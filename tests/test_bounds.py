import math
from dataclasses import replace

import numpy as np
import pytest

from pggwave import (BoundPair, Profile, bounds, build_bound, default_l,
                     derive_params, lower_nonlinearity, make_bounds, make_grid,
                     order_shift, solve_kpp, upper_nonlinearity, verify_bound)
from pggwave.bounds import margins_to_csv
from pggwave.grid import level_crossing, residual
from pggwave.errors import (ParameterError, ShiftNotFoundError,
                            VerificationError)

C = 1.25


@pytest.fixture(scope="module")
def grid40():
    return make_grid(40.0, 3999)


@pytest.fixture(scope="module")
def upper_front(base_params, grid40):
    return solve_kpp(upper_nonlinearity(base_params), C, grid40)


@pytest.fixture(scope="module")
def lower_front(base_params, grid40):
    return solve_kpp(lower_nonlinearity(base_params, 0.3), C, grid40)


@pytest.fixture(scope="module")
def upper_profile(upper_front):
    return build_bound(upper_front)


@pytest.fixture(scope="module")
def lower_profile(lower_front):
    return build_bound(lower_front)


def test_build_bound_reads_l_from_the_front(base_params, upper_front,
                                            lower_front, upper_profile,
                                            lower_profile):
    # (K* l w, w) with l = 1 for the upper front: bit for bit the products
    # K* w and K* l w, and the front's speed and grid
    p = base_params
    for s, prof, factor in ((upper_front, upper_profile, p.kstar),
                            (lower_front, lower_profile, p.kstar * 0.3)):
        want = np.column_stack((factor * s.knots, s.knots))
        assert np.array_equal(prof.knots, want)
        assert prof.c == s.c and prof.grid is s.grid


def test_default_l_matches_base(base_params):
    assert default_l(base_params) == pytest.approx(0.3, abs=1e-15)


def test_upper_construction(base_params, upper_profile):
    p = base_params
    prof = upper_profile
    pos = prof.v > 0
    assert np.allclose(prof.u[pos] / prof.v[pos], p.kstar, atol=1e-12)
    # boundary data: limits (0,0) and (K*,1) up to the pinned tail datum
    assert abs(prof.knots[0, 0]) < 1.2e-4 * p.kstar
    assert abs(prof.knots[0, 1]) < 1.2e-4
    assert tuple(prof.knots[-1]) == (p.kstar, 1.0)


def test_upper_margins(upper_profile):
    rep = verify_bound(upper_profile, "upper")
    assert rep.passed
    assert rep.worst <= 1e-8
    # the v-equation is an exact identity on the construction curve
    assert np.max(np.abs(rep.margins[:, 1])) < 1e-8


def test_worst_location_only_above_roundoff(grid40, upper_profile,
                                            lower_profile):
    # the residual of O(1) samples carries roundoff ~ eps max|U| / h^2; a
    # worst margin inside that floor has no meaningful location
    h2 = grid40.h**2
    up = verify_bound(upper_profile, "upper")
    floor = 4.0 * np.finfo(float).eps * np.max(upper_profile.samples()) / h2
    assert abs(up.worst) <= floor
    assert up.worst_xi is None and up.worst_component is None
    low = verify_bound(lower_profile, "lower")
    floor = 4.0 * np.finfo(float).eps * np.max(lower_profile.samples()) / h2
    assert abs(low.worst) > 10.0 * floor
    assert low.worst_xi == pytest.approx(-39.98, abs=1e-9)
    assert low.worst_component == 1


def test_lower_construction(base_params, lower_profile):
    p = base_params
    prof = lower_profile
    b = 0.4 / 1.24
    assert prof.knots[-1, 0] == pytest.approx(0.116129, abs=1e-6)
    assert prof.knots[-1, 1] == pytest.approx(0.3225806, abs=1e-6)
    assert prof.knots[-1, 0] < p.kstar and prof.knots[-1, 1] < 1.0
    pos = prof.v > 0
    assert np.allclose(prof.u[pos] / prof.v[pos], p.kstar * 0.3, atol=1e-12)
    assert prof.knots[-1, 1] == pytest.approx(b, abs=1e-14)


def test_lower_margins_match_identity(base_params, lower_profile):
    p = base_params
    rep = verify_bound(lower_profile, "lower")
    assert rep.passed
    assert rep.worst >= -1e-8
    # v-equation margin equals v^2 k K* (1-l) / (1 + k K* (1 - l v)) >= 0
    v = lower_profile.v
    identity = v**2 * p.k * p.kstar * (1 - 0.3) / (1 + p.k * p.kstar * (1 - 0.3 * v))
    assert np.max(np.abs(rep.margins[:, 1] - identity)) < 1e-8
    assert np.min(identity) >= 0.0


def test_lower_rejects_out_of_range(base_params):
    # l = 0.7 lies outside (0, 0.625): no front, and so no bound, carries it
    with pytest.raises(ParameterError, match="l=0.7"):
        make_bounds(base_params, C, make_grid(20.0, 199), l=0.7)


def _zero_profile(g, p, c=C):
    return Profile(grid=g, knots=np.zeros((g.n + 2, 2)), c=c, params=p)


def test_zero_profile_degenerate_lower(base_params):
    g = make_grid(20.0, 199)
    rep = verify_bound(_zero_profile(g, base_params), "lower")
    assert np.max(np.abs(rep.margins)) < 1e-14


def test_verification_failure_carries_node(grid40, lower_profile):
    # a strict lower solution fails the upper-solution inequality somewhere
    with pytest.raises(VerificationError) as exc:
        verify_bound(lower_profile, "upper")
    assert exc.value.xi is not None
    assert exc.value.component in (0, 1)
    assert exc.value.margin > 1e-7
    with pytest.raises(ParameterError, match="'middle'"):
        verify_bound(lower_profile, "middle")


@pytest.mark.parametrize("kind", ["upper", "lower"])
def test_nan_margin_fails(base_params, kind):
    # NaN compares False with everything, so the verdict must not be the
    # comparison "worst beyond MARGIN_TOL"
    g = make_grid(20.0, 199)
    nl = (upper_nonlinearity(base_params) if kind == "upper"
          else lower_nonlinearity(base_params, 0.3))
    knots = build_bound(solve_kpp(nl, C, g)).knots.copy()
    knots[100, 1] = np.nan
    with pytest.raises(VerificationError) as exc:
        verify_bound(Profile(g, knots, C, base_params), kind)
    assert math.isnan(exc.value.margin)


@pytest.mark.parametrize("kind,push", [("upper", 1e-5), ("lower", -1e-5)])
def test_pushed_margin_fails(upper_profile, lower_profile, monkeypatch, kind,
                             push):
    # one margin pushed 1e-5 to the wrong side fails the bound: a bound
    # 100x worse than MARGIN_TOL must not pass
    def pushed(prof):
        margins = residual(prof)
        margins[2000, 1] = push
        return margins

    monkeypatch.setattr(bounds, "residual", pushed)
    prof = upper_profile if kind == "upper" else lower_profile
    with pytest.raises(VerificationError) as exc:
        verify_bound(prof, kind)
    assert exc.value.margin == push
    assert exc.value.xi == prof.grid.nodes[2000]


# near-critical points where a bordered step below tol in w leaves the left
# datum still moving: unless the row settles on the datum too, the
# certifying sweeps carry the crossing off 0
@pytest.mark.parametrize("n", [199, 200])
@pytest.mark.parametrize("alpha,k,ratio", [(0.05, 0.1, 1.02), (0.09, 0.9, 1.0),
                                           (0.25, 0.5, 1.02)])
def test_bounds_settle_on_the_datum(alpha, k, ratio, n):
    p = derive_params(alpha, k)
    g = make_grid(20.0, n)
    bp = make_bounds(p, ratio * p.cmin, g)
    for prof, rep in ((bp.upper, bp.fronts["upper"]),
                      (bp.lower, bp.fronts["lower"])):
        w = prof.knots[:, 1]
        assert rep.crossing == level_crossing(g, w, w[-1] / 2.0)
        assert abs(rep.crossing) < 1e-10


def test_order_shift_cases(base_params, grid40, upper_profile, lower_profile):
    assert order_shift(upper_profile, upper_profile) == 0.0
    r = order_shift(upper_profile, lower_profile)
    assert 0.0 <= r <= 20.0
    assert r == 0.0  # regression baseline for the base configuration
    assert order_shift(upper_profile,
                       _zero_profile(grid40, base_params)) == 0.0
    bp = BoundPair(upper=upper_profile, lower=lower_profile, shift=r, l=0.3)
    gap = bp.shifted_upper.knots - lower_profile.knots
    assert np.min(gap) >= -1e-12
    # the Dirichlet rows are ordered too: a lower left datum twice the
    # upper's needs the upper moved left until a sample exceeds it
    knots = upper_profile.knots.copy()
    knots[0] *= 2.0
    r = order_shift(upper_profile, replace(upper_profile, knots=knots))
    assert r > 0.0
    m = int(round(r / grid40.h))
    assert np.all(upper_profile.knots[m] >= knots[0])
    assert not np.all(upper_profile.knots[m - 1] >= knots[0])
    with pytest.raises(ParameterError, match="one grid"):
        order_shift(upper_profile,
                    _zero_profile(make_grid(40.0, 1999), base_params))
    # no shift of the lower front lifts it over the upper one: the lower's
    # right end row, its plateau, lies below the upper front from xi ~ -9 on
    with pytest.raises(ShiftNotFoundError,
                       match=r"exceeds the upper bound's right end row "
                             r"\(0\.\d+, 0\.\d+\) at knot xi="):
        order_shift(lower_profile, upper_profile)


def test_shared_minus_inf_rate(base_params, upper_profile, lower_profile):
    predicted = (C - math.sqrt(C * C - 4 * base_params.alpha)) / 2.0
    for prof in (upper_profile, lower_profile):
        g = prof.grid
        for y in (prof.u, prof.v):
            mask = (g.nodes >= -35.0) & (g.nodes <= -20.0) & (y > 1e-14)
            rate = np.polyfit(g.nodes[mask], np.log(y[mask]), 1)[0]
            assert rate == pytest.approx(predicted, rel=0.03)


def test_upper_plus_inf_exponent_variants(base_params, upper_profile):
    # two candidate exponents for the upper bound's approach to (K*, 1); the
    # fit should select the one with the public-goods correction
    p = base_params
    b1_corrected = p.alpha / (1 - p.k + p.alpha * p.k)
    cand_corrected = (C - math.sqrt(C * C + 4 * b1_corrected)) / 2.0
    cand_plain = (C - math.sqrt(C * C + 4 * p.alpha)) / 2.0
    g = upper_profile.grid
    y = 1.0 - upper_profile.v
    mask = (g.nodes >= 20.0) & (g.nodes <= 35.0) & (y > 1e-14)
    rate = np.polyfit(g.nodes[mask], np.log(y[mask]), 1)[0]
    err_corrected = abs(rate - cand_corrected) / abs(cand_corrected)
    err_plain = abs(rate - cand_plain) / abs(cand_plain)
    assert err_corrected < 0.05
    assert err_corrected < err_plain


def test_margins_csv(tmp_path, upper_profile):
    rep = verify_bound(upper_profile, "upper")
    out = tmp_path / "margins.csv"
    margins_to_csv(rep, upper_profile.grid, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "xi,margin_u,margin_v"
    assert len(lines) == upper_profile.grid.n + 1


def test_shifted_upper_samples_is_slice_and_pad(base_params):
    # a shift by m cells reads all n+2 knot rows from m on and pads with the
    # right end row, past the last sample too
    g = make_grid(10.0, 9)
    knots = np.random.default_rng(7).standard_normal((g.n + 2, 2))
    upper, n = Profile(grid=g, knots=knots, c=C, params=base_params), g.n
    for m in (0, 1, n - 1, n, n + 1):
        bp = BoundPair(upper=upper, lower=upper, shift=m * g.h, l=0.3)
        want = np.concatenate([knots[m:], np.repeat(knots[-1:], m, axis=0)])
        assert np.array_equal(bp.shifted_upper.knots, want)
        shifted = bp.shifted_upper
        assert (shifted.grid, shifted.c, shifted.params) == (g, C, base_params)
        assert bp.params is base_params
