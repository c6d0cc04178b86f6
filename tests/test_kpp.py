import math

import numpy as np
import pytest

from pggwave import (grid, kpp, lower_nonlinearity, make_grid, plateau_of,
                     solve_kpp, upper_nonlinearity)
from pggwave.errors import ConvergenceError, ParameterError, SubcriticalSpeedError
from pggwave.kpp import scalar_residual

C = 1.25


@pytest.fixture(scope="module")
def grid40():
    return make_grid(40.0, 3999)


@pytest.fixture(scope="module")
def upper(base_params, grid40):
    return solve_kpp(upper_nonlinearity(base_params), C, grid40)


def test_plateau_values(base_params):
    assert plateau_of(upper_nonlinearity(base_params)) == 1.0
    low = lower_nonlinearity(base_params, 0.3)
    assert plateau_of(low) == pytest.approx(0.4 / 1.24, abs=1e-12)
    for l in np.linspace(0.05, 0.6, 8):
        assert plateau_of(lower_nonlinearity(base_params, l)) < 1.0


def test_nonlinearity_invariants(base_params):
    for nl in (upper_nonlinearity(base_params),
               lower_nonlinearity(base_params, 0.3)):
        b = nl.plateau
        assert abs(nl.f(0.0)) < 1e-14
        assert abs(nl.f(b)) < 1e-14
        interior = np.linspace(0.0, b, 1002)[1:-1]
        assert np.all(nl.f(interior) > 0.0)
        assert nl.fprime(0.0) == base_params.alpha


def test_lower_parameter_range(base_params):
    # admissible range is (0, 1 - k + k*alpha) = (0, 0.625) at base parameters
    with pytest.raises(ParameterError):
        lower_nonlinearity(base_params, 0.7)
    with pytest.raises(ParameterError):
        lower_nonlinearity(base_params, 0.0)


def test_plateau_slope_report(base_params):
    p = base_params
    up = upper_nonlinearity(p).plateau_slope_report()
    # for the rise-to-1 variant the closed constant matches the numeric slope
    assert up["numeric"] == pytest.approx(up["printed"], abs=1e-8)
    assert up["printed"] == pytest.approx(-p.alpha / (1 - p.k + p.alpha * p.k))

    low = lower_nonlinearity(p, 0.3)
    rep = low.plateau_slope_report()
    b = low.plateau
    # closed-form slope -C/(1 + k K* (1 - l b)); the quoted constant disagrees,
    # so solvers use the numeric slope and the report keeps both on record
    pref = p.alpha / (1 - p.k + p.alpha * p.k)
    expected = -pref / (1 + p.k * p.kstar * (1 - 0.3 * b))
    assert rep["numeric"] == pytest.approx(expected, abs=1e-8)
    assert abs(rep["numeric"] - rep["printed"]) > 0.1


@pytest.mark.parametrize("l", [None, 0.05, 0.3, 0.6])
def test_fprime_is_derivative_of_f(base_params, l):
    nl = kpp.KppNonlinearity(params=base_params, l=l)
    w = np.linspace(0.0, nl.plateau, 401)
    step = 1e-5
    centered = (nl.f(w + step) - nl.f(w - step)) / (2.0 * step)
    assert np.max(np.abs(nl.fprime(w) - centered)) < 1e-7


def test_solve_upper_base(base_params, grid40, upper):
    s = upper
    g = grid40
    assert abs(s.w[0]) < 1e-4
    assert abs(s.plateau - s.w[-1]) < 1e-4
    assert np.min(np.diff(s.w)) >= 0.0
    assert np.all((s.w >= 0.0) & (s.w <= s.plateau))
    res = scalar_residual(upper_nonlinearity(base_params), s)
    assert np.max(np.abs(res)) < 1e-12
    mid = (g.n - 1) // 2
    assert g.nodes[mid] == pytest.approx(0.0, abs=1e-12)
    assert s.w[mid] == pytest.approx(0.5, abs=1e-7)


def test_solve_lower_base(base_params, grid40):
    nl = lower_nonlinearity(base_params, 0.3)
    s = solve_kpp(nl, C, grid40)
    assert np.min(np.diff(s.w)) >= 0.0
    assert np.max(np.abs(scalar_residual(nl, s))) < 1e-12
    assert s.boundary_right == s.plateau


def test_subcritical_rejected(base_params, grid40):
    with pytest.raises(SubcriticalSpeedError):
        solve_kpp(upper_nonlinearity(base_params), 0.9, grid40)


def test_unreachable_tolerance(base_params, monkeypatch):
    monkeypatch.setattr(kpp, "SWEEP_MAX_ITER", 40)
    g = make_grid(20.0, 99)
    with pytest.raises(ConvergenceError):
        solve_kpp(upper_nonlinearity(base_params), C, g, tol=1e-300)


@pytest.mark.parametrize("c,L,n", [(1.0, 80.0, 7999), (C, 40.0, 3999)])
def test_every_phase_pass_closes_by_sweep_two(base_params, monkeypatch, c, L,
                                              n):
    # Newton from the first sweep leaves the second sweep to certify each
    # phase pass, also at the critical speed where the left datum moves by
    # ~66x on phase pass 2
    passes = []

    def recorded(*args, **kwargs):
        out = grid._sweep_newton(*args, **kwargs)
        passes.append(out)
        return out

    monkeypatch.setattr(kpp, "_sweep_newton", recorded)
    g = make_grid(L, n)
    for nl in (upper_nonlinearity(base_params),
               lower_nonlinearity(base_params, 0.3)):
        passes.clear()
        s = solve_kpp(nl, c, g)
        assert passes
        for _, sup_diffs, _, converged in passes:
            assert converged and len(sup_diffs) <= 2
        assert np.max(np.abs(scalar_residual(nl, s))) < 1e-12
        assert np.min(np.diff(s.w)) >= 0.0


def test_sweeps_alone_reach_the_front(base_params, grid40, monkeypatch):
    # with every Newton attempt cut to zero steps the monotone sweeps still
    # converge, from the current iterate, to the default front
    for nl in (upper_nonlinearity(base_params),
               lower_nonlinearity(base_params, 0.3)):
        front = solve_kpp(nl, C, grid40)
        with monkeypatch.context() as m:
            m.setattr(grid, "NEWTON_MAX_STEPS", 0)
            swept = solve_kpp(nl, C, grid40)
        assert np.max(np.abs(swept.w - front.w)) < 1e-10


def _tail_rate(g, y, lo, hi, floor=1e-14):
    mask = (g.nodes >= lo) & (g.nodes <= hi) & (y > floor)
    return np.polyfit(g.nodes[mask], np.log(y[mask]), 1)[0]


def test_tail_rates_supercritical(base_params, grid40, upper):
    g = grid40
    rate_minus = _tail_rate(g, upper.w, -35.0, -20.0)
    predicted = (C - math.sqrt(C * C - 4 * base_params.alpha)) / 2.0
    assert rate_minus == pytest.approx(predicted, rel=0.02)

    nl = upper_nonlinearity(base_params)
    b1 = -float(nl.fprime(nl.plateau))
    rate_plus = _tail_rate(g, upper.plateau - upper.w, 20.0, 35.0)
    predicted_plus = (C - math.sqrt(C * C + 4 * b1)) / 2.0
    assert rate_plus == pytest.approx(predicted_plus, rel=0.05)


def test_critical_speed_tails(base_params):
    # critical-speed runs need L >= 80: algebraic prefactors slow the tails
    g = make_grid(80.0, 7999)
    nl = upper_nonlinearity(base_params)
    c = 2.0 * math.sqrt(base_params.alpha)
    s = solve_kpp(nl, c, g)
    assert np.min(np.diff(s.w)) >= 0.0

    b1 = -float(nl.fprime(nl.plateau))
    a1 = base_params.alpha
    rate_plus = _tail_rate(g, s.plateau - s.w, 40.0, 75.0)
    predicted = math.sqrt(a1) - math.sqrt(a1 + b1)
    assert rate_plus == pytest.approx(predicted, rel=0.10)

    # toward -inf the tail carries a linear prefactor: log w - sqrt(a1)*xi
    # should grow like log|xi|
    mask = (g.nodes >= -75.0) & (g.nodes <= -40.0) & (s.w > 1e-13)
    y = np.log(s.w[mask]) - math.sqrt(a1) * g.nodes[mask]
    slope = np.polyfit(np.log(np.abs(g.nodes[mask])), y, 1)[0]
    assert 0.5 < slope < 2.0
