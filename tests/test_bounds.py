import math

import numpy as np
import pytest

from pggwave import (Profile, build_lower, build_upper, default_l,
                     lower_nonlinearity, make_grid, order_shift, solve_kpp,
                     upper_nonlinearity, verify_bound)
from pggwave.bounds import margins_to_csv, shifted_upper_samples
from pggwave.errors import ParameterError, VerificationError

C = 1.25


@pytest.fixture(scope="module")
def grid40():
    return make_grid(40.0, 3999)


@pytest.fixture(scope="module")
def upper_profile(base_params, grid40):
    s = solve_kpp(upper_nonlinearity(base_params), C, grid40)
    return build_upper(base_params, s)


@pytest.fixture(scope="module")
def lower_profile(base_params, grid40):
    s = solve_kpp(lower_nonlinearity(base_params, 0.3), C, grid40)
    return build_lower(base_params, 0.3, s)


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


def test_upper_margins(base_params, upper_profile):
    rep = verify_bound(base_params, upper_profile, C, "upper", tol=1e-7)
    assert rep.passed
    assert rep.worst <= 1e-8
    # the v-equation is an exact identity on the construction curve
    assert np.max(np.abs(rep.margins[:, 1])) < 1e-8


def test_worst_location_only_above_roundoff(base_params, grid40,
                                            upper_profile, lower_profile):
    # the residual of O(1) samples carries roundoff ~ eps max|U| / h^2; a
    # worst margin inside that floor has no meaningful location
    h2 = grid40.h**2
    up = verify_bound(base_params, upper_profile, C, "upper")
    floor = 4.0 * np.finfo(float).eps * np.max(upper_profile.samples()) / h2
    assert abs(up.worst) <= floor
    assert up.worst_xi is None and up.worst_component is None
    low = verify_bound(base_params, lower_profile, C, "lower")
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
    rep = verify_bound(base_params, lower_profile, C, "lower", tol=1e-7)
    assert rep.passed
    assert rep.worst >= -1e-8
    # v-equation margin equals v^2 k K* (1-l) / (1 + k K* (1 - l v)) >= 0
    v = lower_profile.v
    identity = v**2 * p.k * p.kstar * (1 - 0.3) / (1 + p.k * p.kstar * (1 - 0.3 * v))
    assert np.max(np.abs(rep.margins[:, 1] - identity)) < 1e-8
    assert np.min(identity) >= 0.0


def test_lower_rejects_out_of_range(base_params, grid40):
    s = solve_kpp(lower_nonlinearity(base_params, 0.3), C, grid40)
    with pytest.raises(ParameterError):
        build_lower(base_params, 0.7, s)


def _zero_profile(g, c=C):
    return Profile(grid=g, knots=np.zeros((g.n + 2, 2)), c=c)


def test_zero_profile_degenerate_lower(base_params):
    g = make_grid(20.0, 199)
    rep = verify_bound(base_params, _zero_profile(g), C, "lower")
    assert np.max(np.abs(rep.margins)) < 1e-14


def test_verification_failure_carries_node(base_params, grid40, lower_profile):
    # a strict lower solution fails the upper-solution inequality somewhere
    with pytest.raises(VerificationError) as exc:
        verify_bound(base_params, lower_profile, C, "upper", tol=1e-7)
    assert exc.value.xi is not None
    assert exc.value.component in (0, 1)
    assert exc.value.margin > 1e-7


def test_order_shift_cases(base_params, grid40, upper_profile, lower_profile):
    assert order_shift(upper_profile, upper_profile) == 0.0
    r = order_shift(upper_profile, lower_profile)
    assert 0.0 <= r <= 20.0
    assert r == 0.0  # regression baseline for the base configuration
    assert order_shift(upper_profile, _zero_profile(grid40)) == 0.0
    m = int(round(r / grid40.h))
    gap = shifted_upper_samples(upper_profile, m) - lower_profile.samples()
    assert np.min(gap) >= -1e-12


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


def test_margins_csv(tmp_path, base_params, upper_profile):
    rep = verify_bound(base_params, upper_profile, C, "upper")
    out = tmp_path / "margins.csv"
    margins_to_csv(rep, upper_profile.grid, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "xi,margin_u,margin_v"
    assert len(lines) == upper_profile.grid.n + 1


def test_shifted_upper_samples_is_slice_and_pad():
    # a shift by m cells reads the samples from m on and pads with the right
    # end knot, past the last sample too
    g = make_grid(10.0, 9)
    knots = np.random.default_rng(7).standard_normal((g.n + 2, 2))
    upper, n = Profile(grid=g, knots=knots, c=C), g.n
    for m in (0, 1, n - 1, n, n + 1):
        want = np.concatenate([knots[1:-1][m:],
                               np.repeat(knots[-1:], min(m, n), axis=0)])
        assert np.array_equal(shifted_upper_samples(upper, m), want)
