import math
import warnings

import numpy as np
import pytest

from pggwave import (Profile, StateVec, WeightPair, assemble_weighted_operator,
                     essential_spectrum_max, jacobian, make_bounds, make_grid,
                     solve_wave, spectrum_curves, translation_mode_check,
                     weight_window)
from pggwave.errors import (DegenerateWeightError, EmptyWindowError,
                            ParameterError)
from pggwave.spectrum import (OperatorMatrix, branch_vertices, eigen_report,
                              exp_or_inf, log_weight, weight_functions)

C = 1.25


@pytest.fixture(scope="module")
def coarse_wave(base_params):
    """Base-configuration wave on the 2n = 800 eigenproblem grid."""
    g = make_grid(40.0, 400)
    bp = make_bounds(base_params, C, g)
    prof, _ = solve_wave(bp, tol=1e-11)
    return prof


# --- weight window ---

def test_window_base(base_params):
    win = weight_window(base_params, C)
    assert win.sigma1_max == pytest.approx(0.1753906, abs=1e-7)
    assert win.sigma2_min == pytest.approx(0.25, abs=1e-12)
    assert win.sigma2_max == pytest.approx(1.0, abs=1e-12)
    assert win.contains(WeightPair(0.05, 0.5))
    assert not win.contains(WeightPair(0.2, 0.5))
    assert not win.contains(WeightPair(0.0, 0.25))


def test_window_critical_empty(base_params):
    with pytest.raises(EmptyWindowError):
        weight_window(base_params, 1.0)


def test_window_c15(base_params):
    win = weight_window(base_params, 1.5)
    assert win.sigma1_max == pytest.approx(0.1513878, abs=1e-7)
    assert win.sigma2_min == pytest.approx(0.1909830, abs=1e-7)
    assert win.sigma2_max == pytest.approx(1.3090170, abs=1e-7)


# --- essential spectrum bound ---

def test_unweighted_bound_is_alpha(base_params):
    mx, branches = essential_spectrum_max(base_params, C, WeightPair(0.0, 0.0))
    assert mx == pytest.approx(0.25, abs=1e-14)
    assert np.allclose(branches, [-0.25, -1.0, -0.46875, 0.25], atol=1e-14)


def test_weighted_bound_example(base_params):
    mx, branches = essential_spectrum_max(base_params, C, WeightPair(0.0, 0.5))
    assert mx == pytest.approx(-0.125, abs=1e-14)
    assert np.allclose(branches, [-0.25, -1.0, -0.84375, -0.125], atol=1e-14)


def test_bound_negative_inside_window(base_params):
    win = weight_window(base_params, C)
    s1s = np.linspace(0.0, win.sigma1_max, 12)[:-2]
    s2s = np.linspace(win.sigma2_min, win.sigma2_max, 12)[1:-1]
    count = 0
    for s1 in s1s:
        for s2 in s2s:
            mx, _ = essential_spectrum_max(base_params, C, WeightPair(s1, s2))
            assert mx < 0.0
            count += 1
    assert count == 100


def test_vertices_match_limiting_matrix_sweep(base_params):
    """Vertices cross-checked against dispersion relations of the limits."""
    p = base_params
    for w in (WeightPair(0.0, 0.0), WeightPair(0.05, 0.5), WeightPair(0.1, 0.3)):
        verts = branch_vertices(p, C, w)
        zetas = np.linspace(-3.0, 3.0, 121)  # includes zeta = 0
        Aplus = np.array([[-p.alpha, 0.0], [1.0 - p.k, -1.0]])
        Aminus = jacobian(p, StateVec(0.0, 0.0))
        for (sig, sgn, Alim, pair) in (
                (w.sigma1, 1.0, Aplus, verts[:2]),
                (w.sigma2, -1.0, Aminus, verts[2:])):
            shift = sig**2 + sgn * C * sig
            adv = 2.0 * sgn * sig + C
            best = -np.inf
            for z in zetas:
                M = (-z**2 - 1j * adv * z + shift) * np.eye(2) + Alim
                best = max(best, np.max(np.linalg.eigvals(M).real))
            assert np.max(pair) == pytest.approx(best, abs=1e-8)


# --- curves ---

def test_curves_unweighted(base_params):
    curves = spectrum_curves(base_params, C, WeightPair(0.0, 0.0), 2.0, 41)
    mid = 20  # y = 0
    assert curves[0]["x"][mid] == pytest.approx(-0.25, abs=1e-14)
    assert curves[1]["x"][mid] == pytest.approx(-1.0, abs=1e-14)
    assert curves[2]["x"][mid] == pytest.approx(-0.46875, abs=1e-14)
    assert curves[3]["x"][mid] == pytest.approx(0.25, abs=1e-14)
    y = curves[0]["y"]
    assert np.allclose(curves[0]["x"], -(y**2) / C**2 - 0.25, atol=1e-14)


def test_curves_weighted_point(base_params):
    curves = spectrum_curves(base_params, C, WeightPair(0.0, 0.5), 0.25, 3)
    assert curves[3]["y"][-1] == pytest.approx(0.25)
    assert curves[3]["x"][-1] == pytest.approx(-1.125, abs=1e-12)


def test_curves_degenerate(base_params):
    with pytest.raises(DegenerateWeightError):
        spectrum_curves(base_params, C, WeightPair(0.0, C / 2.0), 1.0, 11)
    with pytest.raises(ParameterError):
        spectrum_curves(base_params, C, WeightPair(0.0, 0.5), 1.0, 1)


# --- weight functions ---

def test_weight_function_limits():
    w = WeightPair(0.1, 0.5)
    g1, g2 = weight_functions(w, np.array([40.0, -40.0]))
    assert abs(g1[0] - 0.1) < 1e-10
    assert abs(g1[1] + 0.5) < 1e-10
    assert abs(g2[0] - 0.01) < 1e-10
    assert abs(g2[1] - 0.25) < 1e-10


def test_weight_functions_overflow_safe():
    w = WeightPair(0.3, 0.8)
    xi = np.array([-2000.0, 2000.0])
    g1, g2 = weight_functions(w, xi)
    assert np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))
    assert g1[0] == pytest.approx(-0.8) and g1[1] == pytest.approx(0.3)


def test_log_weight_origin():
    w = WeightPair(0.05, 0.5)
    assert log_weight(w, 0.0) == math.log(2.0)


# --- operator assembly ---

def test_zero_weight_equals_unweighted_linearization(base_params, coarse_wave):
    p = base_params
    prof = coarse_wave
    g = prof.grid
    op = assemble_weighted_operator(p, prof, WeightPair(0.0, 0.0))
    dense = op.to_dense()
    # manual unweighted assembly
    A = jacobian(p, StateVec(prof.u, prof.v))
    n, h = g.n, g.h
    manual = np.zeros((2 * n, 2 * n))
    for i in range(n):
        for a in range(2):
            r = 2 * i + a
            manual[r, r] = -2.0 / h**2 + A[a, a, i]
            manual[r, 2 * i + (1 - a)] = A[a, 1 - a, i]
            if i > 0:
                manual[r, r - 2] = 1.0 / h**2 + C / (2.0 * h)
            if i < n - 1:
                manual[r, r + 2] = 1.0 / h**2 - C / (2.0 * h)
    assert np.max(np.abs(dense - manual)) < 1e-13


def test_far_field_rows_reach_shifted_limit(base_params):
    """Assembly check with an equilibrium-tailed synthetic profile.

    The real wave approaches its limits only at the tail-decay rate, so its
    far rows match the limit matrix at ~1e-3; a profile whose far field SITS
    at the equilibria isolates the assembly itself at 1e-6.
    """
    p = base_params
    g = make_grid(40.0, 400)
    s = 0.5 * (1.0 + np.tanh(g.nodes))   # reaches 0/1 to ~1e-35 at the ends
    knots = np.vstack(([0.0, 0.0], np.stack([p.kstar * s, s], axis=1),
                       [p.kstar, 1.0]))
    prof = Profile(grid=g, knots=knots, c=C)
    w = WeightPair(0.05, 0.5)
    op = assemble_weighted_operator(p, prof, w)
    dense = op.to_dense()
    h = g.h
    q1 = w.sigma1**2 + C * w.sigma1
    Mplus = np.array([[q1 - p.alpha, 0.0], [1.0 - p.k, q1 - 1.0]])
    r = 2 * (g.n - 1)
    block = dense[r:r + 2, r:r + 2] - np.diag([-2.0 / h**2] * 2)
    assert np.max(np.abs(block - Mplus)) < 1e-6
    # advection coefficient at the far right is 2*sigma1 + c
    assert dense[r, r - 2] == pytest.approx(1.0 / h**2 + (2 * w.sigma1 + C) / (2 * h), abs=1e-6)


def test_far_field_rows_real_wave_tolerance(base_params, coarse_wave):
    p = base_params
    prof = coarse_wave
    g = prof.grid
    w = WeightPair(0.05, 0.5)
    dense = assemble_weighted_operator(p, prof, w).to_dense()
    q1 = w.sigma1**2 + C * w.sigma1
    Mplus = np.array([[q1 - p.alpha, 0.0], [1.0 - p.k, q1 - 1.0]])
    r = 2 * (g.n - 1)
    block = dense[r:r + 2, r:r + 2] - np.diag([-2.0 / g.h**2] * 2)
    assert np.max(np.abs(block - Mplus)) < 5e-3


# --- eigensolves ---

def _scalar_test_operator(L, n, c):
    """Two decoupled copies of w'' - c w' - w with Dirichlet ends."""
    g = make_grid(L, n)
    h = g.h
    N = 2 * n
    bands = np.zeros((5, N))
    bands[2, :] = -2.0 / h**2 - 1.0
    right = 1.0 / h**2 - c / (2.0 * h)
    left = 1.0 / h**2 + c / (2.0 * h)
    bands[0, 2:] = right
    bands[4, :-2] = left
    return OperatorMatrix(bands=bands, grid=g)


def test_zero_matrix_eigenvalues():
    g = make_grid(5.0, 10)
    op = OperatorMatrix(bands=np.zeros((5, 20)), grid=g)
    vals, _ = eigen_report(op, count=5)
    assert np.max(np.abs(vals)) == 0.0


def test_scalar_constant_coefficient_eigenvalues(dense_eigenvalues):
    L, c = 10.0, 0.8
    op = _scalar_test_operator(L, 199, c)
    vals, _ = eigen_report(op, count=6)
    analytic = [-1.0 - c**2 / 4.0 - (m * np.pi / (2 * L)) ** 2 for m in (1, 1, 2, 2, 3, 3)]
    assert np.allclose(vals.real, analytic, atol=2e-3)   # O(h^2) discretization
    assert np.max(np.abs(vals.imag)) < 1e-8
    # each eigenvalue is double (two decoupled copies), found twice
    assert np.max(np.abs(vals[0::2] - vals[1::2])) < 1e-10
    # dense oracle agreement at machine level for the same matrix
    assert np.allclose(vals.real, dense_eigenvalues(op, 6).real, atol=1e-9)


def test_arpack_agrees_with_dense(base_params, coarse_wave, dense_eigenvalues):
    for w in (WeightPair(0.05, 0.5), WeightPair(0.1, 0.9)):
        op = assemble_weighted_operator(base_params, coarse_wave, w)
        vals, _ = eigen_report(op, count=6)
        assert np.max(np.abs(vals - dense_eigenvalues(op, 6))) < 1e-8


def test_eigen_report_is_reproducible(base_params, coarse_wave):
    op = assemble_weighted_operator(base_params, coarse_wave, WeightPair(0.05, 0.5))
    other = assemble_weighted_operator(base_params, coarse_wave,
                                       WeightPair(0.1, 0.9))
    vals, frac = eigen_report(op, count=6)
    for between in (None, other):
        if between is not None:
            eigen_report(between, count=6)
        again, frac_again = eigen_report(op, count=6)
        assert np.array_equal(again, vals)
        assert np.array_equal(frac_again, frac)


def test_rightmost_negative_base(base_params, coarse_wave):
    op = assemble_weighted_operator(base_params, coarse_wave, WeightPair(0.05, 0.5))
    vals, _ = eigen_report(op, count=8)
    assert vals[0].real < 0.0
    assert np.all(vals.real < 0.0)
    # regression value pinned by the dense oracle
    assert vals[0].real == pytest.approx(-0.152, abs=2e-3)


def test_rightmost_stable_under_refinement(base_params):
    vals = []
    for n in (200, 400):
        g = make_grid(40.0, n)
        bp = make_bounds(base_params, C, g)
        prof, _ = solve_wave(bp, tol=1e-11)
        op = assemble_weighted_operator(base_params, prof, WeightPair(0.05, 0.5))
        vals.append(eigen_report(op, count=1)[0][0])
    assert abs(vals[0].real - vals[1].real) < 1e-3


def test_boundary_mass_fractions(base_params, coarse_wave):
    op = assemble_weighted_operator(base_params, coarse_wave, WeightPair(0.05, 0.5))
    vals, frac = eigen_report(op, count=6)
    assert frac.shape == (6,)
    assert np.all((frac >= 0.0) & (frac <= 1.0))


def test_count_validation(base_params, coarse_wave):
    op = assemble_weighted_operator(base_params, coarse_wave, WeightPair(0.0, 0.0))
    for count in (0, -1, op.size - 1):
        with pytest.raises(ParameterError):
            eigen_report(op, count=count)
    small = _scalar_test_operator(10.0, 9, 0.8)   # size 18: count 16 is the limit
    vals, frac = eigen_report(small, count=small.size - 2)
    assert vals.shape == frac.shape == (small.size - 2,)


# --- translation mode ---

def test_translation_mode_base(base_params, base_wave, base_weights):
    prof, _ = base_wave
    rep = translation_mode_check(base_params, prof, base_weights)
    assert rep.residual_sup < 1e-5
    assert rep.tail_factor > 1e3


def test_translation_mode_unweighted_bounded(base_params, base_wave):
    prof, _ = base_wave
    rep = translation_mode_check(base_params, prof, WeightPair(0.0, 0.0))
    # with weight identically 2 the weighted derivative stays bounded
    assert rep.weighted_left <= 2.0 * rep.weighted_mid
    assert rep.tail_factor < 1.0


def test_translation_mode_weighted_tail_does_not_overflow(base_params):
    # at c = 2, L = 400 the weight e^{sigma2 L} alone overflows, while the
    # weighted derivative near -L is still a finite number
    p, c, w = base_params, 2.0, WeightPair(0.0, 1.78)
    assert weight_window(p, c).contains(w)
    g = make_grid(400.0, 1999)
    prof, _ = solve_wave(make_bounds(p, c, g), tol=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = translation_mode_check(p, prof, w)
    assert math.isfinite(rep.weighted_left)
    assert math.isfinite(rep.tail_factor) and rep.tail_factor > 1e3


def test_translation_mode_beyond_float64_is_inf_without_warning(base_params):
    # at c = 2, L = 500 the weighted derivative near -L itself is ~e^887,
    # past float64's range: the report says inf and warns of nothing
    p, c, w = base_params, 2.0, WeightPair(0.0, 1.85)
    assert weight_window(p, c).contains(w)
    g = make_grid(500.0, 2499)
    prof, _ = solve_wave(make_bounds(p, c, g), tol=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = translation_mode_check(p, prof, w)
    assert rep.weighted_left == math.inf and rep.tail_factor == math.inf
    assert math.isfinite(rep.weighted_mid) and rep.residual_sup < 1e-5


def test_exp_or_inf_at_the_float64_edge():
    assert exp_or_inf(708.0) == math.exp(708.0)
    assert exp_or_inf(709.0) == math.inf
    assert exp_or_inf(1e300) == math.inf
    assert exp_or_inf(-math.inf) == 0.0


def test_translation_mode_constant_profile(base_params):
    g = make_grid(20.0, 199)
    p = base_params
    const = Profile(grid=g, knots=np.full((g.n + 2, 2), (p.kstar, 1.0)), c=C)
    rep = translation_mode_check(p, const, WeightPair(0.05, 0.5))
    assert rep.residual_sup < 1e-12
