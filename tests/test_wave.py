import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.interpolate import BarycentricInterpolator

from pggwave import (BoundPair, Profile, StateVec, check_monotone,
                     derive_params, fit_decay, grid, jacobian, make_bounds,
                     make_grid, normalize_phase, residual, solve_kpp,
                     solve_wave, subcritical_verdict, upper_nonlinearity, wave,
                     weight_window)
from pggwave.errors import (ConvergenceError, EmptyWindowError,
                            EnvelopeViolationError, FitWindowError, GridError,
                            LevelNotCrossedError, ParameterError,
                            SubcriticalSpeedError)
from pggwave.grid import level_crossing, linearization_bands
from pggwave.wave import IterationReport

C = 1.25


def _carrying(bp, c):
    """The pair ``bp`` with profiles that carry the speed ``c`` instead."""
    return replace(bp, upper=replace(bp.upper, c=c),
                   lower=replace(bp.lower, c=c))


def test_solve_converges(base_params, base_bounds, base_wave):
    prof, rep = base_wave
    # the pair states the model, the speed and the grid once
    assert base_bounds.params is base_params
    assert prof.c == base_bounds.upper.c == C
    assert prof.grid is base_bounds.upper.grid
    assert rep.converged
    assert rep.final_residual < 1e-8
    # one sweep, the Newton finish, and the closing sweep that certifies it
    assert rep.iterations == 2
    assert rep.sup_diffs[-1] < 1e-10
    assert rep.newton_steps[-1] < 1e-10
    assert all(d > 0 for d in rep.sup_diffs[:-1])
    res = residual(prof)
    assert np.max(np.abs(res)) == rep.final_residual


def test_envelope_and_monotone_direction(base_bounds):
    upper_env = base_bounds.shifted_upper.samples()
    lower_env = base_bounds.lower.samples()
    seen = []

    def cb(it, U):
        seen.append((float(np.min(upper_env - U)), float(np.min(U - lower_env))))

    prof, _ = solve_wave(base_bounds, tol=1e-8, callback=cb)
    worst_up = min(s[0] for s in seen)
    worst_lo = min(s[1] for s in seen)
    assert worst_up >= -1e-12
    assert worst_lo >= -1e-12


def test_fixed_point_single_iteration(base_bounds, base_wave):
    prof, _ = base_wave
    _, rep = solve_wave(base_bounds, tol=1e-10, initial=prof)
    assert rep.iterations == 1
    assert rep.sup_diffs[0] < 1e-10


def test_zero_tolerance_refused(base_params):
    # a sup-diff is never below 0, so tol = 0 could only spend the budget
    g = make_grid(20.0, 199)
    bp = make_bounds(base_params, C, g)
    with pytest.raises(ParameterError, match="positive"):
        solve_wave(bp, tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_nonfinite_tolerance_refused(base_params, tol):
    # tol = inf accepted the first sweep from the upper bound as the front
    bp = make_bounds(base_params, C, make_grid(20.0, 199))
    with pytest.raises(ParameterError, match="positive and finite"):
        solve_wave(bp, tol=tol)
    with pytest.raises(ParameterError, match="positive and finite"):
        solve_kpp(upper_nonlinearity(base_params), C, bp.upper.grid, tol=tol)


def test_sweep_budget_spent(base_params, monkeypatch):
    monkeypatch.setattr(grid, "SWEEP_MAX_ITER", 10)
    g = make_grid(20.0, 199)
    bp = make_bounds(base_params, C, g)
    with pytest.raises(ConvergenceError,
                       match=r"tol=1e-300 in 10 sweeps \(last sup-diff"):
        solve_wave(bp, tol=1e-300)


def test_initial_from_another_grid_refused(base_params):
    g = make_grid(20.0, 199)
    bp = make_bounds(base_params, C, g)
    for L, n in ((20.0, 99), (30.0, 199)):
        other = make_bounds(base_params, C, make_grid(L, n)).upper
        with pytest.raises(ParameterError, match="initial"):
            solve_wave(bp, initial=other)
        with pytest.raises(ParameterError, match="lower bound"):
            solve_wave(replace(bp, lower=other))


@pytest.mark.parametrize("n", [30, 20])
def test_non_monotone_stencil_rejected(base_params, n):
    # c*h/2 = 1.61 and 2.38: -T is no M-matrix, the sweeps are not monotone
    g = make_grid(40.0, n)
    with pytest.raises(GridError):
        make_bounds(base_params, C, g)
    # make_bounds refuses the grid, so the pair on it is built by hand
    flat = Profile(grid=g, knots=np.zeros((g.n + 2, 2)), c=C,
                   params=base_params)
    with pytest.raises(GridError):
        solve_wave(BoundPair(upper=flat, lower=flat, shift=0.0, l=0.3))


def test_upward_iteration_agrees(base_bounds, base_wave):
    prof_down, _ = base_wave
    prof_up, rep = solve_wave(base_bounds, tol=1e-10,
                              initial=base_bounds.lower)
    assert rep.converged
    gap = np.max(np.abs(prof_up.samples() - prof_down.samples()))
    assert gap < 1e-6


def _envelope_recorder(bp):
    """Callback collecting each iterate's envelope gap, and the gap list."""
    upper_env = bp.shifted_upper.samples()
    lower_env = bp.lower.samples()
    gaps = []

    def cb(it, U):
        gaps.append(min(float(np.min(upper_env - U)),
                        float(np.min(U - lower_env))))
    return cb, gaps


def test_critical_speed_certificate(base_params):
    g = make_grid(80.0, 7999)
    bp = make_bounds(base_params, 1.0, g)
    cb, gaps = _envelope_recorder(bp)
    tol = 1e-10
    prof, rep = solve_wave(bp, tol=tol, callback=cb)
    assert rep.converged
    assert rep.final_residual < 1e-8
    # every sweep and Newton iterate reached the callback, in the envelope
    assert len(gaps) == rep.iterations + len(rep.newton_steps)
    assert min(gaps) >= -1e-12
    du, dv = check_monotone(prof)
    assert du > 0 and dv > 0
    assert rep.newton_steps and rep.newton_steps[-1] < tol


def test_critical_front_on_a_long_domain(base_params):
    # ROADMAP item 1: at L = 160 (h = 0.02) the left tail falls far below
    # 1e-16, where a reaction with a rounding floor at the invaded state
    # drives the sweeps out of the envelope; with F exact there it
    # converges as at L = 40
    bp = make_bounds(base_params, 1.0, make_grid(160.0, 15999))
    prof, rep = solve_wave(bp, tol=1e-10)
    assert rep.converged and rep.final_residual < 1e-8
    assert rep.iterations <= 2 and len(rep.newton_steps) <= 8


def test_newton_finish_agrees_up_and_down(base_bounds, base_wave):
    prof_down, rep_down = base_wave
    prof_up, rep_up = solve_wave(base_bounds, tol=1e-10,
                                 initial=base_bounds.lower)
    assert rep_down.newton_steps[-1] < 1e-10
    assert rep_up.newton_steps[-1] < 1e-10
    gap = np.max(np.abs(prof_up.samples() - prof_down.samples()))
    assert gap < 1e-12


BOX_GRID = (40.0, 2999)


def _box_points():
    # the admissible box: alpha, k in (0, 1), c >= cmin = 2 sqrt(alpha)
    for alpha in (0.05, 0.25, 0.6, 0.9):
        for k in (0.1, 0.5, 0.9):
            for ratio in (1.0, 1.3, 2.5):
                yield pytest.param(alpha, k, ratio, BOX_GRID,
                                   id=f"a{alpha}-k{k}-c{ratio}cmin")
    # the upper bound needs a shift of 16 cells here, and the Dirichlet
    # data must move with it
    yield pytest.param(0.6, 0.9, 1.0, (80.0, 7999),
                       id="a0.6-k0.9-c1.0cmin-L80")


@pytest.mark.parametrize("alpha,k,ratio,grid_size", _box_points())
def test_parameter_box_one_sweep_then_newton(alpha, k, ratio, grid_size):
    p = derive_params(alpha, k)
    c = ratio * p.cmin
    g = make_grid(*grid_size)
    bp = make_bounds(p, c, g)
    cb, gaps = _envelope_recorder(bp)
    prof, rep = solve_wave(bp, tol=1e-10, callback=cb)
    assert rep.converged
    assert rep.iterations <= 2
    assert len(rep.newton_steps) <= 8
    assert len(gaps) == rep.iterations + len(rep.newton_steps)
    assert min(gaps) >= -1e-12
    du, dv = check_monotone(prof)
    assert du > 0 and dv > 0
    assert np.array_equal(prof.knots[[0, -1]], bp.shifted_upper.knots[[0, -1]])
    # from below the iterates rise to the same front, damped Newton steps
    # keeping every one inside the envelope
    cb_up, gaps_up = _envelope_recorder(bp)
    up, rep_up = solve_wave(bp, tol=1e-10, initial=bp.lower,
                            callback=cb_up)
    assert rep_up.iterations <= 4
    assert len(gaps_up) == rep_up.iterations + len(rep_up.newton_steps)
    assert min(gaps_up) >= -1e-12
    assert np.max(np.abs(up.samples() - prof.samples())) < 1e-12


def test_up_and_down_agree_at_critical_speed(base_params):
    g = make_grid(*BOX_GRID)
    bp = make_bounds(base_params, 1.0, g)
    down, _ = solve_wave(bp, tol=1e-10)
    up, rep_up = solve_wave(bp, tol=1e-10, initial=bp.lower)
    assert rep_up.converged
    assert rep_up.iterations <= 4
    assert np.max(np.abs(up.samples() - down.samples())) < 1e-12


@pytest.mark.parametrize("scale", [0.5, 1e-3])
def test_rejected_newton_resumes_sweeps(base_bounds, base_wave, monkeypatch,
                                        scale):
    # a wrong Jacobian: at 0.5 the corrections barely shrink, at 1e-3 the
    # first step overshoots by ~1000x; either way the sweeps must finish
    def scaled(prof, *, out):
        linearization_bands(prof, out=out)
        out *= scale

    monkeypatch.setattr(wave, "linearization_bands", scaled)
    cb, gaps = _envelope_recorder(base_bounds)
    prof, rep = solve_wave(base_bounds, tol=1e-10, callback=cb)
    assert rep.converged
    assert rep.sup_diffs[-1] < 1e-10
    assert not rep.newton_steps or rep.newton_steps[-1] >= 1e-10
    assert rep.iterations > base_wave[1].iterations
    assert min(gaps) >= -1e-12
    assert np.max(np.abs(prof.samples() - base_wave[0].samples())) < 1e-8


# the critical front run, c = 1.0, L = 80, n = 7999 at the CLI's
# tolerances: each stage's traced peak above its start is bounded by its
# measured value plus at most 5% (``tools/peak_rss.py`` prints all four)
@pytest.fixture(scope="module")
def critical_bounds(base_params):
    return make_bounds(base_params, 1.0, make_grid(80.0, 7999), tol=1e-12)


def test_critical_bounds_sweep_without_a_ghost_vector(base_params,
                                                      traced_peak):
    # the traced peak was 1.16 MB while each scalar sweep held an (n,)
    # ghost vector that is zero between its end rows; it is 1.09 MB with
    # the two ghost rows added to the right-hand side alone
    g = make_grid(80.0, 7999)
    _, peak = traced_peak(make_bounds, base_params, 1.0, g, tol=1e-12)
    assert peak < 1.14e6


def test_newton_steps_write_their_bands_in_place(critical_bounds,
                                                 traced_peak):
    # the traced peak was 3.20 MB while each Newton step built the (5, 2n)
    # bands (0.64 MB) and copied them into the dgbsv workspace, 2.69 MB
    # with the bands written into the workspace itself, 2.44 MB with the
    # Jacobian written into the bands instead of a (2, 2, n) array, 2.37 MB
    # with the residual summed and negated in place, and is 1.67 MB once no
    # (n, 2) array is built only to be read: the sweep adds its two ghost
    # rows, the envelope reads the bounds' own knots, the unshifted upper
    # bound is not copied, the stencil forms in two buffers, and neither a
    # spent correction nor a replaced sweep iterate outlives its use
    (_, rep), peak = traced_peak(solve_wave, critical_bounds, tol=1e-10)
    assert rep.newton_steps
    assert peak < 1.75e6


def test_phase_translation_takes_no_coefficient_copies(critical_bounds,
                                                       traced_peak):
    # the traced peak was 1.61 MB while a resampling translation copied
    # each of the four (n+1, 2) PCHIP coefficient arrays at the query rows,
    # and 1.19 MB with the rows taken into one buffer.  The phase is an
    # origin now, and no (n+2, 2) array is made: the peak is 68 kB, the
    # (n+2,) knot coordinates ``level_crossing`` reads
    front, _ = solve_wave(critical_bounds, tol=1e-10)
    _, peak = traced_peak(normalize_phase, front)
    assert peak < 0.1e6


def test_report_records_solver_state(base_bounds, base_wave, monkeypatch):
    _, rep = base_wave
    assert rep.iterations == len(rep.sup_diffs)
    d = asdict(rep)
    assert d["newton_steps"] == rep.newton_steps
    # with no Newton steps allowed, the plain monotone iteration
    monkeypatch.setattr(grid, "NEWTON_MAX_STEPS", 0)
    _, swept = solve_wave(base_bounds, tol=1e-10)
    assert not swept.newton_steps and swept.iterations >= 50
    # sup-diffs decrease monotonically after the first few sweeps
    tail = swept.sup_diffs[5:]
    assert all(b <= a for a, b in zip(tail, tail[1:]))
    short = IterationReport(iterations=1, sup_diffs=[1e-3], final_residual=0.0,
                            beta=1.0, converged=True)
    assert asdict(short)["newton_steps"] == []


def test_residual_guard(base_params, monkeypatch):
    # a converged iterate one node off the front, residual ~5e-7: far above
    # 10*tol = 1e-9, and below the 1e-6 that a guard of 1e4*tol would pass
    g = make_grid(20.0, 199)
    bp = make_bounds(base_params, C, g)

    def nudged(*args, **kwargs):
        U, sup_diffs, newton_steps = grid._sweep_newton(*args, **kwargs)
        U = U.copy()
        U[100, 1] += 1e-8
        return U, sup_diffs, newton_steps

    monkeypatch.setattr(wave, "_sweep_newton", nudged)
    with pytest.raises(ConvergenceError,
                       match=r"residual [45]\.\d+e-07 > 10\*tol"):
        solve_wave(bp, tol=1e-10)


def test_box_diagonal_minimum_at_a_corner():
    # the shift beta reads the Jacobian diagonals at the box corners only;
    # with w = K* - u and D = 1 + k w, both diagonals fall in v, and at
    # v = 1 each is of one sign in w, so their minimum is at a corner
    sp = pytest.importorskip("sympy")
    w, v, a, k = sp.symbols("w v alpha k", positive=True)
    D = 1 + k * w
    a11 = 1 - (w + v) / D - a + w * (k * v - 1) / D**2
    a22 = 1 - (w + v) / D - v / D
    assert sp.simplify(sp.diff(a11, v) + 1 / D**2) == 0
    assert sp.simplify(sp.diff(a22, v) + 2 / D) == 0
    assert sp.simplify(sp.diff(a11, w).subs(v, 1) + 2 * (1 - k) / D**3) == 0
    assert sp.simplify(sp.diff(a22, w).subs(v, 1) + (1 - 2 * k) / D**2) == 0
    diagonals = sp.lambdify((w, v, a, k), (a11, a22))
    for alpha, kk in ((0.05, 0.1), (0.25, 0.5), (0.9, 0.9), (0.6, 0.3)):
        p = derive_params(alpha, kk)
        us, vs = np.meshgrid(np.linspace(0.0, p.kstar, 101),
                             np.linspace(0.0, 1.0, 101))
        box = jacobian(p, StateVec(us.ravel(), vs.ravel()))
        # the symbolic diagonals are the package's
        a11_box, a22_box = diagonals(p.kstar - us.ravel(), vs.ravel(),
                                     alpha, kk)
        assert np.max(np.abs(a11_box - box[0, 0])) < 1e-14
        assert np.max(np.abs(a22_box - box[1, 1])) < 1e-14
        corners = wave._box_diagonal(p)
        assert corners.shape == (4, 2)
        assert abs(np.min(corners) - min(np.min(box[0, 0]),
                                         np.min(box[1, 1]))) < 1e-15


def test_envelope_violation_detected(base_params):
    g = make_grid(20.0, 199)
    bp = make_bounds(base_params, C, g)
    swapped = BoundPair(upper=bp.lower, lower=bp.upper, shift=0.0, l=bp.l)
    # the swapped "upper" start rises at once, above its own envelope
    with pytest.raises(EnvelopeViolationError, match="iterate 1 left"):
        solve_wave(swapped, tol=1e-10)


def test_bounds_for_another_model_are_refused(base_bounds, monkeypatch):
    # the model is the upper bound's; a lower bound or a start built for
    # another model is refused before any sweep
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep ran before the model check")

    monkeypatch.setattr(wave, "_sweep_newton", refuse)
    other = replace(base_bounds.lower, params=derive_params(0.3, 0.5))
    with pytest.raises(ParameterError,
                       match="lower bound on another grid or model"):
        solve_wave(replace(base_bounds, lower=other))
    with pytest.raises(ParameterError,
                       match="initial on another grid or model"):
        solve_wave(base_bounds, initial=other)


def test_subcritical_speed_rejected(base_bounds):
    # the speed is the pair's: profiles that carry c = 0.8 < cmin = 1
    with pytest.raises(ParameterError, match="cmin"):
        solve_wave(_carrying(base_bounds, 0.8))


# --- phase normalization ---

def _crossing_offset(prof):
    """|v - 1/2| at xi = 0, on scipy's cubic through the four v knots around
    the bracket of 1/2, at their abscissae xi = knots - x0."""
    xi = prof.grid.knots - prof.x0
    v = prof.knots[:, 1]
    i = int(np.nonzero(v >= 0.5)[0][0])
    j = min(max(i - 2, 0), len(v) - 4)
    cubic = BarycentricInterpolator(xi[j:j + 4], v[j:j + 4])
    return abs(float(cubic(0.0)) - 0.5)


def test_normalize_idempotent(base_wave, base_wave_normalized):
    prof = base_wave_normalized
    # the knots are the solved front's, bit for bit; only the origin moves
    assert np.array_equal(prof.knots, base_wave[0].knots)
    assert base_wave[0].x0 == 0.0
    assert prof.x0 == level_crossing(prof.grid, prof.knots[:, 1], 0.5)
    assert prof.x0 == pytest.approx(1.0567, abs=1e-4)
    assert _crossing_offset(prof) <= 4 * np.finfo(float).eps
    again = normalize_phase(prof)
    assert again.x0 == prof.x0
    assert np.array_equal(again.knots, prof.knots)


def test_normalize_contract_odd_and_even_n(base_params):
    # at odd and even n alike v crosses 1/2 at xi = 0 to the bisection's
    # last bits (measured <= 5.6e-17), and the front is the solved one
    for n in (199, 100, 200, 400, 800):
        g = make_grid(20.0, n)
        front = solve_wave(make_bounds(base_params, 1.0, g), tol=1e-10)[0]
        prof = normalize_phase(front)
        assert np.array_equal(prof.knots, front.knots)
        assert _crossing_offset(prof) <= 4 * np.finfo(float).eps


def test_normalize_round_trip(base_wave_normalized):
    # the front translated left by m = 185 cells (3.7 at h = 0.02), its
    # right end row repeated: its origin moves by m h, so each sample keeps
    # its xi
    prof = base_wave_normalized
    m = 185
    knots = np.vstack((prof.knots[m:], np.repeat(prof.knots[-1:], m, axis=0)))
    back = normalize_phase(replace(prof, knots=knots))
    assert abs(prof.x0 - back.x0 - m * prof.grid.h) < 1e-12


def test_normalize_requires_crossing(base_params):
    g = make_grid(10.0, 99)
    const = Profile(grid=g, knots=np.zeros((g.n + 2, 2)), c=C,
                    params=base_params)
    with pytest.raises(LevelNotCrossedError):
        normalize_phase(const)


# --- monotonicity ---

def test_monotonicity(base_wave):
    prof, _ = base_wave
    du, dv = check_monotone(prof)
    assert du > 0 and dv > 0
    const = replace(prof, knots=np.ones_like(prof.knots))
    assert check_monotone(const) == (0.0, 0.0)
    rev = replace(prof, knots=prof.knots[::-1].copy())
    du_r, dv_r = check_monotone(rev)
    assert du_r < 0 and dv_r < 0


# --- decay fits ---

def test_decay_fits_base(base_wave_normalized):
    prof = base_wave_normalized
    fm = fit_decay(prof, "-inf")
    fp = fit_decay(prof, "+inf")
    assert fm.predicted_rate == pytest.approx(0.25, abs=1e-12)
    assert fp.predicted_rate == pytest.approx(-0.1753906, abs=1e-7)
    assert fm.rate_u == pytest.approx(0.25, rel=0.02)
    assert fm.rate_v == pytest.approx(0.25, rel=0.02)
    assert fp.rate_u == pytest.approx(fp.predicted_rate, rel=0.05)
    assert fp.rate_v == pytest.approx(fp.predicted_rate, rel=0.05)
    # one exponent per side
    assert abs(fm.rate_u - fm.rate_v) / abs(fm.rate_u) < 0.03
    assert abs(fp.rate_u - fp.rate_v) / abs(fp.rate_u) < 0.03
    assert fm.rsquared > 0.999 and fp.rsquared > 0.999
    assert fm.amplitude_u > 0 and fm.amplitude_v > 0


def test_fit_windows_checked_from_the_grid():
    wave.check_fit_windows(make_grid(20.0, 199))    # 26 nodes in each
    with pytest.raises(ParameterError,
                       match=r"the -inf fit window \[-7, -6\] holds 3 < 20"):
        wave.check_fit_windows(make_grid(12.0, 59))
    g = make_grid(40.0, 3999)
    assert wave._fit_window(g, "+inf", g.nodes)[0] == (20.0, 35.0)


def test_shifted_fit_windows_read_solved_nodes_only(monkeypatch):
    # at (alpha, k, c) = (0.02, 0.99, 0.55) the front crosses 1/2 at
    # x0 = 8.65, so the +inf window [20, 35] in xi holds the nodes in
    # [28.65, 43.65], cut at L = 40: 567 of the 751 that check_fit_windows
    # counts on the grid (the -inf window holds 750), every one a solved
    # node and no Dirichlet row
    g = make_grid(40.0, 3999)
    front = solve_wave(make_bounds(derive_params(0.02, 0.99), 0.55, g),
                       tol=1e-10)[0]
    prof = normalize_phase(front)
    assert prof.x0 == pytest.approx(8.6507, abs=1e-4)
    lines = []

    def recorded(x, y, error):
        lines.append((x, y))
        return grid.least_squares_line(x, y, error)

    monkeypatch.setattr(wave, "least_squares_line", recorded)
    for side, (lo, hi), count in (("-inf", (-35.0, -20.0), 750),
                                  ("+inf", (20.0, 35.0), 567)):
        lines.clear()
        assert fit_decay(prof, side).window == (lo, hi)
        inside = (g.nodes - prof.x0 >= lo) & (g.nodes - prof.x0 <= hi)
        assert inside.sum() == count
        ys = ((front.u, front.v) if side == "-inf"
              else (prof.params.kstar - front.u, 1.0 - front.v))
        for (x, logy), y in zip(lines, ys):
            assert np.array_equal(x, g.nodes[inside] - prof.x0)
            assert np.array_equal(logy, np.log(y[inside]))
            assert -g.L < x.min() + prof.x0 and x.max() + prof.x0 < g.L


def test_fit_window_too_noisy(base_params):
    g = make_grid(40.0, 3999)
    const = Profile(grid=g, knots=np.zeros((g.n + 2, 2)), c=C,
                    params=base_params)
    with pytest.raises(FitWindowError):
        fit_decay(const, "-inf")
    with pytest.raises(ParameterError, match="'middle'"):
        fit_decay(const, "middle")


def _rate_errors(p, c, L, n):
    g = make_grid(L, n)
    bp = make_bounds(p, c, g)
    prof, _ = solve_wave(bp, tol=1e-10)
    prof = normalize_phase(prof)
    fm = fit_decay(prof, "-inf")
    fp = fit_decay(prof, "+inf")
    return (abs(fm.rate_v - fm.predicted_rate),
            abs(fp.rate_v - fp.predicted_rate))


def test_rates_improve_with_domain_size(base_params):
    err30 = _rate_errors(base_params, C, 30.0, 2999)
    err60 = _rate_errors(base_params, C, 60.0, 5999)
    assert err60[0] < err30[0]
    assert err60[1] < err30[1]


def test_uniqueness_across_lower_parameters(base_params):
    g = make_grid(40.0, 1999)
    waves = []
    for l in (0.2, 0.4):
        bp = make_bounds(base_params, C, g, l=l)
        prof, _ = solve_wave(bp, tol=1e-10)
        waves.append(normalize_phase(prof))
    gap = np.max(np.abs(waves[0].samples() - waves[1].samples()))
    assert gap < 1e-6


# --- speed verdicts ---

def test_verdicts(base_params):
    v = subcritical_verdict(base_params, 0.8)
    assert v.verdict == "NoMonotoneWave"
    roots = sorted(v.roots, key=lambda z: z.imag)
    assert roots[1] == pytest.approx(0.4 + 0.3j, abs=1e-12)
    assert roots[0] == pytest.approx(0.4 - 0.3j, abs=1e-12)

    v = subcritical_verdict(base_params, 1.0)
    assert v.verdict == "CriticalAdmissible"
    assert v.roots[0] == pytest.approx(0.5, abs=1e-12)
    assert v.roots[1] == v.roots[0]
    assert v.plus_inf_root == pytest.approx((1.0 - math.sqrt(2.0)) / 2.0,
                                            abs=1e-15)

    v = subcritical_verdict(base_params, 1.25)
    assert v.verdict == "SupercriticalAdmissible"
    assert v.roots[0] == pytest.approx(0.25, abs=1e-12)
    assert v.roots[1] == pytest.approx(1.0, abs=1e-12)
    assert v.plus_inf_root == pytest.approx(-0.1753906, abs=1e-7)

    for c in (-1.0, 0.0):
        with pytest.raises(ParameterError, match="positive"):
            subcritical_verdict(base_params, c)


# alpha at k = 0.5 where c^2 - 4 alpha at c = cmin rounds below, above and
# to zero
CMIN_ALPHAS = (0.01, 0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75,
               0.8, 0.9, 0.95, 0.99)


@pytest.mark.parametrize("alpha", CMIN_ALPHAS)
def test_cmin_is_critical(alpha):
    p = derive_params(alpha, 0.5)
    v = subcritical_verdict(p, p.cmin)
    assert v.verdict == "CriticalAdmissible"
    assert v.roots == (complex(math.sqrt(alpha)),) * 2
    assert v.discriminant == 0.0
    with pytest.raises(EmptyWindowError):
        weight_window(p, p.cmin)


def test_speed_rule_is_one_rule(base_params):
    # within 1e-12 below cmin = 1 is critical: the verdict and both solvers
    # accept it; further below all refuse it
    g = make_grid(20.0, 399)
    c = 1.0 - 5e-13
    assert subcritical_verdict(base_params, c).verdict == "CriticalAdmissible"
    bp = make_bounds(base_params, c, g)
    assert solve_wave(bp, tol=1e-10)[1].converged
    c = 1.0 - 2e-12
    assert subcritical_verdict(base_params, c).verdict == "NoMonotoneWave"
    with pytest.raises(SubcriticalSpeedError):
        solve_kpp(upper_nonlinearity(base_params), c, g)
    with pytest.raises(SubcriticalSpeedError, match="cmin"):
        solve_wave(_carrying(bp, c))


@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_critical_tail_fit_at_rounded_cmin(alpha):
    # c^2 - 4 alpha at c = cmin rounds to -2.2e-16 (0.3) and 4.4e-16 (0.5);
    # the -inf tail still takes the critical form (A|xi| + B) e^{sqrt(alpha) xi}
    p = derive_params(alpha, 0.5)
    g = make_grid(60.0, 2999)
    prof, _ = solve_wave(make_bounds(p, p.cmin, g), tol=1e-10)
    f = fit_decay(normalize_phase(prof), "-inf")
    assert f.predicted_rate == math.sqrt(alpha)
    assert f.rate_u == pytest.approx(math.sqrt(alpha), rel=0.01)
    assert f.rate_v == pytest.approx(math.sqrt(alpha), rel=0.01)

