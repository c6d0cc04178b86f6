import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from pggwave import (Profile, StateVec, WeightPair, apply_advection_diffusion,
                     assemble_weighted_operator, essential_spectrum_max,
                     jacobian, make_bounds, make_grid, reaction, solve_wave,
                     spectrum_curves, translation_mode_check, weight_window)
from pggwave import spectrum
from pggwave.errors import (ConvergenceError, DegenerateWeightError,
                            EmptyWindowError, ParameterError)
from pggwave.grid import stencil_coefficients
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
    g1, g2 = weight_functions(w, np.array([40.0, -40.0, 0.0]))
    assert abs(g1[0] - 0.1) < 1e-10
    assert abs(g1[1] + 0.5) < 1e-10
    assert abs(g2[0] - 0.01) < 1e-10
    assert abs(g2[1] - 0.25) < 1e-10
    # at xi = 0 the two exponentials are equal shares of the weight
    assert g1[2] == pytest.approx((0.1 - 0.5) / 2.0, abs=1e-16)
    assert g2[2] == pytest.approx((0.01 + 0.25) / 2.0, abs=1e-16)


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
    op = assemble_weighted_operator(prof, WeightPair(0.0, 0.0))
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
    prof = Profile(grid=g, knots=knots, c=C, params=p)
    w = WeightPair(0.05, 0.5)
    op = assemble_weighted_operator(prof, w)
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
    dense = assemble_weighted_operator(prof, w).to_dense()
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


def test_zero_matrix_eigenvalues_are_exact_every_time():
    # every Krylov image of the zero operator lies in the basis: each
    # breakdown must leave H exact, and nothing drawn at random may enter
    g = make_grid(5.0, 10)
    op = OperatorMatrix(bands=np.zeros((5, 20)), grid=g)
    for _ in range(300):
        vals, frac = eigen_report(op, count=5)
        assert vals.shape == (5,)
        assert np.all(vals == 0.0)
        assert np.all((frac >= 0.0) & (frac <= 1.0))


def test_diagonal_operator_continues_past_invariant_start(dense_eigenvalues):
    # u rows at -1, v rows at -2: the start block spans an invariant
    # subspace at once, and the fixed continuation finds the rest
    bands = np.zeros((5, 40))
    bands[2, 0::2], bands[2, 1::2] = -1.0, -2.0
    op = OperatorMatrix(bands=bands, grid=make_grid(5.0, 20))
    vals, _ = eigen_report(op, count=12)
    assert np.max(np.abs(vals - dense_eigenvalues(op, 12))) < 1e-13
    assert np.max(np.abs(vals + 1.0)) < 1e-13


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


def test_eigen_report_agrees_with_dense(coarse_wave, dense_eigenvalues):
    for w in (WeightPair(0.05, 0.5), WeightPair(0.1, 0.9)):
        op = assemble_weighted_operator(coarse_wave, w)
        vals, _ = eigen_report(op, count=6)
        assert np.max(np.abs(vals - dense_eigenvalues(op, 6))) < 1e-8


def test_eigen_report_is_reproducible(coarse_wave):
    op = assemble_weighted_operator(coarse_wave, WeightPair(0.05, 0.5))
    other = assemble_weighted_operator(coarse_wave, WeightPair(0.1, 0.9))
    vals, frac = eigen_report(op, count=6)
    for between in (None, other):
        if between is not None:
            eigen_report(between, count=6)
        again, frac_again = eigen_report(op, count=6)
        assert np.array_equal(again, vals)
        assert np.array_equal(frac_again, frac)


def test_rightmost_negative_base(coarse_wave):
    op = assemble_weighted_operator(coarse_wave, WeightPair(0.05, 0.5))
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
        op = assemble_weighted_operator(prof, WeightPair(0.05, 0.5))
        vals.append(eigen_report(op, count=1)[0][0])
    assert abs(vals[0].real - vals[1].real) < 1e-3


def test_boundary_mass_fractions(coarse_wave):
    op = assemble_weighted_operator(coarse_wave, WeightPair(0.05, 0.5))
    vals, frac = eigen_report(op, count=6)
    assert frac.shape == (6,)
    assert np.all((frac >= 0.0) & (frac <= 1.0))


def test_count_validation(coarse_wave):
    op = assemble_weighted_operator(coarse_wave, WeightPair(0.0, 0.0))
    # no basis of at most ARNOLDI_MAX_BASIS = 500 vectors certifies 500
    for count in (0, -1, op.size - 1, 500, 600):
        with pytest.raises(ParameterError):
            eigen_report(op, count=count)
    spectrum.check_count(499, op.size)
    small = _scalar_test_operator(10.0, 9, 0.8)   # size 18: count 16 is the limit
    vals, frac = eigen_report(small, count=small.size - 2)
    assert vals.shape == frac.shape == (small.size - 2,)


def test_full_krylov_space_matches_dense(dense_eigenvalues):
    # count = size - 2 fills the whole space, where the Ritz values are the
    # eigenvalues of H itself
    small = _scalar_test_operator(10.0, 9, 0.8)
    vals, _ = eigen_report(small, count=small.size - 2)
    dense = dense_eigenvalues(small, small.size - 2)
    assert np.max(np.abs(vals - dense)) < 1e-10


def test_basis_cap_raises(coarse_wave, monkeypatch):
    # the base operator needs about 90 basis vectors for its 8 Ritz values
    op = assemble_weighted_operator(coarse_wave, WeightPair(0.05, 0.5))
    monkeypatch.setattr(spectrum, "ARNOLDI_MAX_BASIS", 40)
    with pytest.raises(ConvergenceError, match="cap of 40 vectors"):
        eigen_report(op, count=6)


def test_basis_grows_with_the_test_schedule(coarse_wave, monkeypatch):
    # the basis is allocated for the next test, 20, 30, 45, 67 and 94
    # vectors here, the size at which the base operator converges: a cap
    # between two tests still stops the basis at the cap, and a cap past 94
    # changes no bit of the result
    op = assemble_weighted_operator(coarse_wave, WeightPair(0.05, 0.5))
    want = eigen_report(op, count=6)
    with monkeypatch.context() as m:
        m.setattr(spectrum, "ARNOLDI_MAX_BASIS", 50)
        with pytest.raises(ConvergenceError, match="cap of 50 vectors"):
            eigen_report(op, count=6)
    monkeypatch.setattr(spectrum, "ARNOLDI_MAX_BASIS", 95)
    got = eigen_report(op, count=6)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_eigensolve_memory_is_the_basis_it_builds(coarse_wave, traced_peak):
    # the traced peak was 6.60 MB while the Krylov arrays were sized for
    # the 500-vector cap, (502, 800) and (502, 500), and the Ritz vectors
    # took a complex copy of the basis; it is 1.24 MB with the arrays grown
    # test by test to the 94 vectors the solve builds, the peak being the
    # growth from 67 to 94 (the old and the new basis side by side)
    op = assemble_weighted_operator(coarse_wave, WeightPair(0.05, 0.5))
    _, peak = traced_peak(eigen_report, op, 6)
    assert peak < 1.29e6


def test_complex_ritz_vectors_match_dense_eigenvectors():
    # two complex pairs among the six: their Ritz vectors are formed from
    # the real and imaginary parts of the projected eigenvectors, and give
    # the boundary-mass fractions of the dense eigenvectors to 1e-10
    # relative (measured 3e-13)
    rng = np.random.default_rng(3)
    op = OperatorMatrix(bands=rng.standard_normal((5, 40)),
                        grid=make_grid(5.0, 20))
    vals, frac = eigen_report(op, count=6)
    dense, vecs = np.linalg.eig(op.to_dense())
    order = np.lexsort((dense.imag, -dense.real))[:6]
    assert np.sum(dense[order].imag != 0.0) == 4
    mass = np.abs(vecs[:, order]) ** 2
    node_mass = mass[0::2] + mass[1::2]
    outer = np.abs(op.grid.nodes) > (1.0 - spectrum.OUTER_FRACTION) * op.grid.L
    want = node_mass[outer].sum(axis=0) / node_mass.sum(axis=0)
    assert np.allclose(frac, want, rtol=1e-10, atol=0.0)


def test_conjugate_pairs_in_ascending_imaginary_part(dense_eigenvalues,
                                                     monkeypatch):
    # two complex pairs among the six rightmost eigenvalues: each comes
    # back in one order, whatever order LAPACK gives a pair in
    rng = np.random.default_rng(3)
    op = OperatorMatrix(bands=rng.standard_normal((5, 40)),
                        grid=make_grid(5.0, 20))
    vals, frac = eigen_report(op, count=6)
    dense = dense_eigenvalues(op, 6)
    assert np.sum(dense.imag != 0.0) == 4
    assert np.max(np.abs(vals - dense)) < 1e-8
    pairs = np.flatnonzero(vals.imag < 0.0)
    assert np.all(vals.imag[pairs + 1] > 0.0)
    # the Ritz pairs in the opposite order give the same report
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig",
                        lambda a: tuple(x[..., ::-1] for x in eig(a)))
    again, frac_again = eigen_report(op, count=6)
    assert np.array_equal(again, vals)
    assert np.array_equal(frac_again, frac)


@pytest.mark.xfail(strict=True, reason="eigen_report keeps the Ritz values "
                   "of largest |theta|, nearest the shift, not the rightmost")
def test_rightmost_eigenvalues_of_random_operators(dense_eigenvalues):
    # seed 0 misses the pair 1.1814 +- 1.3887i (error 1.28); seed 4 returns
    # 1.4645 - 0.8422i without its conjugate, the cut by |theta| splitting
    # the pair
    for seed in (0, 4):
        rng = np.random.default_rng(seed)
        op = OperatorMatrix(bands=rng.standard_normal((5, 40)),
                            grid=make_grid(5.0, 20))
        vals, _ = eigen_report(op, count=7)
        assert np.max(np.abs(vals - dense_eigenvalues(op, 7))) < 1e-8


def test_eigensolve_reads_no_unwritten_memory(coarse_wave, monkeypatch):
    # every np.empty the eigensolve makes comes back full of NaN: a read of
    # a row before it is written would spoil the result
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.nan)
        return out

    full = _scalar_test_operator(10.0, 9, 0.8)    # count = size - 2 = 16
    base = assemble_weighted_operator(coarse_wave, WeightPair(0.05, 0.5))
    for op, count in ((full, full.size - 2), (base, 6)):
        want = eigen_report(op, count=count)
        with monkeypatch.context() as m:
            m.setattr(np, "empty", nan_empty)
            got = eigen_report(op, count=count)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


# --- translation mode ---

def test_translation_mode_base(base_wave, base_weights):
    prof, _ = base_wave
    rep = translation_mode_check(prof, base_weights)
    assert rep.residual_sup < 1e-5
    assert rep.tail_factor > 1e3
    # the derivative the check reads, the centred difference of the knots,
    # is positive at every node, end nodes included
    assert np.min(prof.knots[2:] - prof.knots[:-2]) > 0


def _ghost_continued_residual(prof):
    """The oracle: the front continued one cell past each end by solving its
    own discrete equation at the end knot for the outer neighbour, the
    centred derivative of that, and the linearization applied to it."""
    g, K, h = prof.grid, prof.knots, prof.grid.h
    lo, hi = stencil_coefficients(g, prof.c)
    F = reaction(prof.params, StateVec(K[[0, -1], 0], K[[0, -1], 1])).T
    left = (2.0 / h**2 * K[0] - hi * K[1] - F[0]) / lo
    right = (2.0 / h**2 * K[-1] - lo * K[-2] - F[1]) / hi
    ext = np.vstack((left, K, right))
    d = (ext[2:] - ext[:-2]) / (2.0 * h)
    A = jacobian(prof.params, StateVec(prof.u, prof.v))
    inner = d[1:-1]
    return apply_advection_diffusion(g, prof.c, d) + np.stack(
        [A[0, 0] * inner[:, 0] + A[0, 1] * inner[:, 1],
         A[1, 0] * inner[:, 0] + A[1, 1] * inner[:, 1]], axis=1)


def _tanh_profile(p):
    """Not a solution: its residual is O(0.1), so D r matters, and still
    that large at the end nodes, where the sup then sits, so the closure at
    the end knots matters too."""
    g = make_grid(10.0, 199)
    x = g.knots
    knots = np.stack([p.kstar * (1 + np.tanh(x / 5)) / 2,
                      (1 + np.tanh(x / 4)) / 2], axis=1)
    return Profile(grid=g, knots=knots, c=C, params=p)


@pytest.mark.parametrize("front", ["base", "tanh"])
def test_translation_residual_matches_ghost_continuation(front, base_wave,
                                                         base_params,
                                                         base_weights):
    prof = base_wave[0] if front == "base" else _tanh_profile(base_params)
    want = float(np.max(np.abs(_ghost_continued_residual(prof))))
    if front == "tanh":
        assert want > 1e-2
    got = translation_mode_check(prof, base_weights).residual_sup
    assert abs(got - want) <= 1e-9 * want


def test_spectrum_imports_only_errors_grid_and_model():
    # the translation-mode check reads the front's own residual: spectrum
    # needs no solver module, ``wave`` included
    imported = set()
    for node in ast.walk(ast.parse(Path(spectrum.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    package = {name for name in imported
               if name.startswith((".", "pggwave"))}
    assert package == {".errors", ".grid", ".model"}


def test_translation_mode_unweighted_bounded(base_wave):
    prof, _ = base_wave
    rep = translation_mode_check(prof, WeightPair(0.0, 0.0))
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
        rep = translation_mode_check(prof, w)
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
        rep = translation_mode_check(prof, w)
    assert rep.weighted_left == math.inf and rep.tail_factor == math.inf
    assert math.isfinite(rep.weighted_mid) and rep.residual_sup < 1e-5


def test_exp_or_inf_at_the_float64_edge():
    assert exp_or_inf(708.0) == math.exp(708.0)
    assert exp_or_inf(709.0) == math.inf
    assert exp_or_inf(1e300) == math.inf
    assert exp_or_inf(-math.inf) == 0.0
    assert math.isnan(exp_or_inf(math.nan))


def test_translation_mode_constant_profile(base_params):
    g = make_grid(20.0, 199)
    p = base_params
    const = Profile(grid=g, knots=np.full((g.n + 2, 2), (p.kstar, 1.0)), c=C,
                    params=p)
    rep = translation_mode_check(const, WeightPair(0.05, 0.5))
    assert rep.residual_sup < 1e-12
    # a constant has no derivative: both weighted magnitudes weigh 0
    assert rep.weighted_left == rep.weighted_mid == rep.tail_factor == 0.0
