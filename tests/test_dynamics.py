import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded, solveh_banded

import pggwave.dynamics
from pggwave import (Profile, SimConfig, StateVec, Trace, WeightPair,
                     fit_decay_constant, instability_experiment, make_grid,
                     perturb, run_simulation, spreading_experiment,
                     spreading_speed, stability_experiment, weighted_norm)
from pggwave.dynamics import (SCALE_LOG_BOUND, factor_banded, front_position,
                              trace_to_csv)
from pggwave.errors import (BlowUpError, FrontNotFoundError, GridError,
                            NormError, ParameterError)
from pggwave.grid import (apply_advection_diffusion, boundary_vector,
                          stencil_bands)
from pggwave.model import reaction

C = 1.25


def test_sim_config_validation():
    with pytest.raises(ParameterError):
        SimConfig(dt=0.0)
    with pytest.raises(ParameterError):
        SimConfig(dt=0.2)
    with pytest.raises(ParameterError):
        SimConfig(dt=0.01, t_end=-1.0)
    with pytest.raises(ParameterError):
        SimConfig(record_every=0)
    # 0.1 / 0.03 steps would round to 3 and stop at t = 0.09
    with pytest.raises(ParameterError, match="not a multiple of dt"):
        SimConfig(dt=0.03, t_end=0.1)
    assert SimConfig(dt=0.1, t_end=0.3).t_end == 0.3   # 2.9999999999999996


# --- weighted norm ---

def test_weighted_norm_examples(base_grid):
    g = base_grid
    w = WeightPair(0.05, 0.5)
    zero = np.zeros(g.n)
    assert weighted_norm(zero, zero, g, w) == 0.0

    mid = (g.n - 1) // 2  # node at xi = 0
    spike = np.zeros(g.n)
    spike[mid] = 1e-3
    assert weighted_norm(spike, zero, g, WeightPair(0.3, 0.9)) == pytest.approx(2e-3, rel=1e-12)

    i10 = int(np.argmin(np.abs(g.nodes + 10.0)))
    spike = np.zeros(g.n)
    spike[i10] = 1e-3
    expected = 1e-3 * (math.exp(0.05 * -10.0) + math.exp(5.0))
    assert weighted_norm(spike, zero, g, w) == pytest.approx(expected, rel=1e-6)
    assert weighted_norm(spike, zero, g, w) == pytest.approx(0.149, rel=2e-3)


def test_weighted_norm_overflow_safe():
    g = make_grid(4000.0, 399)
    w = WeightPair(0.0, 0.5)
    f = np.ones(g.n)
    out = weighted_norm(f, f, g, w)   # weight ~ e^2000 overflows naive eval
    assert out > 1e100 or math.isinf(out)


# --- perturbations ---

def test_gaussian_perturbation_norm(base_wave, base_weights):
    prof, _ = base_wave
    pert = perturb(prof, "gaussian", 1e-3)
    dev = pert.samples() - prof.samples()
    wn = weighted_norm(dev[:, 0], dev[:, 1], prof.grid, base_weights)
    assert wn == pytest.approx(2.1e-3, rel=0.05)
    assert math.isfinite(wn)


def test_left_tail_perturbation_norm(base_wave, base_weights):
    prof, _ = base_wave
    pert = perturb(prof, "left_tail", 1e-3)
    dev = pert.samples() - prof.samples()
    assert np.max(np.abs(dev)) == pytest.approx(1e-3, rel=1e-6)
    wn = weighted_norm(dev[:, 0], dev[:, 1], prof.grid, base_weights)
    assert wn >= 1e-3 * math.exp(0.5 * 20.0)
    assert pert.knots[0, 1] == pytest.approx(prof.knots[0, 1] + 1e-3, abs=1e-9)


def test_perturb_rejects_zero_amplitude(base_wave):
    prof, _ = base_wave
    with pytest.raises(ParameterError):
        perturb(prof, "gaussian", 0.0)
    with pytest.raises(ParameterError):
        perturb(prof, "sinusoid", 1e-3)


# --- simulation basics ---

def test_equilibrium_fixed_point(base_params):
    p = base_params
    g = make_grid(20.0, 399)
    const = Profile(grid=g, knots=np.full((g.n + 2, 2), (p.kstar, 1.0)), c=C)
    tr = run_simulation(p, C, const, SimConfig(dt=0.01, t_end=10.0),
                        reference=const)
    assert np.max(tr.sup_norms) < 1e-10


def test_wave_is_steady_in_own_frame(base_params, base_wave, base_weights):
    prof, _ = base_wave
    tr = run_simulation(base_params, C, prof,
                        SimConfig(dt=0.01, t_end=10.0, record_every=100),
                        w=base_weights, reference=prof)
    # drift is bounded by iteration-tolerance-level creep
    assert np.max(tr.weighted_norms) < 1e-5
    assert np.max(tr.sup_norms) < 1e-6


def test_wave_stays_put_long_run(base_params, base_wave):
    prof, _ = base_wave
    tr = run_simulation(base_params, C, prof,
                        SimConfig(dt=0.01, t_end=50.0, record_every=500),
                        reference=prof)
    assert np.max(tr.sup_norms) < 1e-4


def test_scheme_second_order(base_params):
    """Manufactured solution via forcing: halving dt and h gains ~4x."""
    p = base_params
    c = 0.7

    def exact(xi, t):
        u = math.exp(-0.3 * t) * np.exp(-xi**2 / 2.0)
        v = math.exp(-0.2 * t) * np.exp(-xi**2 / 3.0)
        return np.stack([u, v], axis=1)

    def make_forcing():
        from pggwave.model import reaction

        def forcing(xi, t):
            au, av = math.exp(-0.3 * t), math.exp(-0.2 * t)
            pu, pv = np.exp(-xi**2 / 2.0), np.exp(-xi**2 / 3.0)
            u, v = au * pu, av * pv
            ut, vt = -0.3 * u, -0.2 * v
            ux = -xi * u
            uxx = (xi**2 - 1.0) * u
            vx = -(2.0 * xi / 3.0) * v
            vxx = (4.0 * xi**2 / 9.0 - 2.0 / 3.0) * v
            F = reaction(p, StateVec(u, v))
            fu = ut - (uxx - c * ux + F[0])
            fv = vt - (vxx - c * vx + F[1])
            return np.stack([fu, fv], axis=1)

        return forcing

    errs = []
    for n, dt in ((199, 0.02), (399, 0.01)):
        g = make_grid(10.0, n)
        U0 = exact(g.nodes, 0.0)
        init = Profile(grid=g, knots=np.vstack(([0.0, 0.0], U0, [0.0, 0.0])),
                       c=c)
        tr = run_simulation(p, c, init, SimConfig(dt=dt, t_end=1.0,
                                                  record_every=10**6),
                            forcing=make_forcing())
        errs.append(np.max(np.abs(tr.final_state.samples() - exact(g.nodes, 1.0))))
    ratio = errs[0] / errs[1]
    assert 3.3 < ratio < 4.7


def test_blowup_paths(base_params, base_wave):
    prof, _ = base_wave
    bad = perturb(prof, "gaussian", 50.0)
    with pytest.raises(BlowUpError):
        run_simulation(base_params, C, bad, SimConfig(dt=0.01, t_end=5.0))
    tr = run_simulation(base_params, C, bad, SimConfig(dt=0.01, t_end=5.0),
                        on_blowup="stop")
    assert tr.blew_up
    assert 0 < tr.steps < 500
    assert tr.guard_margin < 0.0


def test_trace_reports_steps_and_guard_margin(base_params):
    init = _plateau(base_params)
    tr = run_simulation(base_params, C, init,
                        SimConfig(dt=0.01, t_end=0.2, record_every=7))
    assert tr.steps == 20
    # the plateau holds sup|U| = K* = 1.2 to roundoff; the guard is 10 K*
    assert tr.guard_margin == pytest.approx(9.0 * base_params.kstar,
                                            rel=1e-14)


def _nan_forcing(column):
    """Forcing that puts NaN into one column once t > 0.05.  Each column is
    substituted on its own at every speed, so the NaN stays in its column
    and the guard alone must report it."""
    def forcing(xi, t):
        out = np.zeros((len(xi), 2))
        out[:, column] = math.nan if t > 0.05 else 0.0
        return out
    return forcing


def _plateau(p):
    g = make_grid(10.0, 199)
    return Profile(grid=g, knots=np.full((g.n + 2, 2), (p.kstar, 1.0)), c=C)


@pytest.mark.parametrize("column", [0, 1], ids=["u", "v"])
@pytest.mark.parametrize("c", [0.0, C])
def test_nonfinite_state_is_a_blowup(base_params, c, column):
    """With and without the symmetrising scale, a NaN in one column is a
    blow-up."""
    init = _plateau(base_params)
    cfg = SimConfig(dt=0.01, t_end=1.0)
    forcing = _nan_forcing(column)
    with pytest.raises(BlowUpError, match="sup\\|U\\| is not finite"):
        run_simulation(base_params, c, init, cfg, forcing=forcing)
    tr = run_simulation(base_params, c, init, cfg, forcing=forcing,
                        on_blowup="stop")
    assert tr.blew_up
    assert list(tr.times) == [0.0]
    assert tr.steps == 7                  # the forcing turns NaN at t = 0.06
    assert math.isnan(tr.guard_margin)


def _reference_steps(p, c, init, dt, nsteps):
    """CNAB2 in the explicit form: A U' = U + dt/2 T U + dt ghosts + dt G,
    G = F on the first step and 3/2 F - 1/2 F_prev after it."""
    g = init.grid
    dl, dr = init.knots[0], init.knots[-1]
    ab = stencil_bands(g, c, -dt / 2.0, 1.0)
    bvec = boundary_vector(g, c, dl, dr)
    U = init.samples()
    F_prev = None
    for _ in range(nsteps):
        F = reaction(p, StateVec(U[:, 0], U[:, 1])).T
        G = F if F_prev is None else 1.5 * F - 0.5 * F_prev
        F_prev = F
        rhs = (U + dt / 2.0 * apply_advection_diffusion(g, c,
                                                        np.vstack((dl, U, dr)))
               + dt / 2.0 * bvec + dt * G)
        U = solve_banded((1, 1), ab, rhs)
    return U


def _tanh_front(c):
    g = make_grid(10.0, 199)
    th = np.tanh(g.knots / 2.0)
    return Profile(grid=g, knots=np.column_stack((0.4 + 0.2 * th,
                                                  0.55 - 0.5 * th)), c=c)


@pytest.mark.parametrize("c", [0.0, C])
@pytest.mark.parametrize("nsteps", [1, 2])
def test_step_matches_explicit_form(base_params, c, nsteps):
    init = _tanh_front(c)
    dt = 0.01
    tr = run_simulation(base_params, c, init,
                        SimConfig(dt=dt, t_end=nsteps * dt, record_every=1))
    assert len(tr.times) == nsteps + 1
    ref = _reference_steps(base_params, c, init, dt, nsteps)
    got = tr.final_state.samples()
    assert np.max(np.abs(got - init.samples())) > 1e-4
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_one_solve_and_one_reaction_per_step(base_params, monkeypatch):
    """One in-place substitution and one reaction call per step, with and
    without the symmetrising scale."""
    counts = {"solve_banded": 0, "reaction": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            out = fn(*args, **kwargs)
            if name == "solve_banded":
                assert np.shares_memory(out, args[1])
            return out
        return wrapper

    monkeypatch.setattr(pggwave.dynamics, "solve_banded",
                        counted("solve_banded", pggwave.dynamics.solve_banded))
    monkeypatch.setattr(pggwave.dynamics, "reaction",
                        counted("reaction", pggwave.dynamics.reaction))
    nsteps = 7
    for runs, c in enumerate((0.0, C), start=1):
        tr = run_simulation(base_params, c, _plateau(base_params),
                            SimConfig(dt=0.01, t_end=nsteps * 0.01,
                                      record_every=3))
        assert not tr.blew_up
        assert counts == {"solve_banded": runs * nsteps,
                          "reaction": runs * nsteps}


def _symmetrised(ab):
    """B = S^-1 A S in solveh_banded's 2-row upper form and the scale s,
    built as ``factor_banded`` documents: s = 1 at the middle node and
    cumulative products of rho outward; s = 1 everywhere for symmetric
    bands, where scaling by it is exact."""
    upper, diag, lower = ab[0, 1:], ab[1], ab[2, :-1]
    s = np.ones(len(diag))
    if np.array_equal(upper, lower):
        return np.array([ab[0], diag]), s
    rho = np.sqrt(lower / upper)
    m = len(diag) // 2
    s[m + 1:] = np.cumprod(rho[m:])
    s[:m] = np.cumprod(1.0 / rho[:m][::-1])[::-1]
    sym = np.zeros((2, len(diag)))
    sym[0, 1:] = -np.sqrt(lower * upper)
    sym[1] = diag
    return sym, s


def _refactorised_steps(p, c, init, dt, nsteps):
    """The reflected step Y' = B^-1 (2Y + S^-1 g) - Y, U = S Y, with scipy's
    solveh_banded, which refactorises B on every call (LAPACK ptsv)."""
    g = init.grid
    sym, s = _symmetrised(stencil_bands(g, c, -dt / 2.0, 1.0))
    S = np.column_stack((s, s))
    S_inv = 1.0 / S
    ghosts = dt * boundary_vector(g, c, init.knots[0], init.knots[-1]) * S_inv
    U = init.samples()
    Y = U * S_inv
    F_prev = None
    for _ in range(nsteps):
        F = reaction(p, StateVec(U[:, 0], U[:, 1])).T * S_inv
        rhs = (dt * F if F_prev is None
               else (1.5 * dt) * F - (0.5 * dt) * F_prev)
        F_prev = F
        rhs += 2.0 * Y
        rhs[0] += ghosts[0]
        rhs[-1] += ghosts[-1]
        Y = solveh_banded(sym, rhs) - Y
        U = Y * S
    return U


def _gtsv_steps(p, c, init, dt, nsteps):
    """The reflected step U' = A^-1 (2U + g) - U with scipy's solve_banded,
    a pivoted LU of the unscaled A on every call (LAPACK gtsv)."""
    g = init.grid
    ab = stencil_bands(g, c, -dt / 2.0, 1.0)
    ghosts = dt * boundary_vector(g, c, init.knots[0], init.knots[-1])
    U = np.asfortranarray(init.samples())
    F_prev = None
    for _ in range(nsteps):
        F = reaction(p, StateVec(U[:, 0], U[:, 1])).T
        rhs = (dt * F if F_prev is None
               else (1.5 * dt) * F - (0.5 * dt) * F_prev)
        F_prev = F
        rhs += 2.0 * U
        rhs[0] += ghosts[0]
        rhs[-1] += ghosts[-1]
        U = solve_banded((1, 1), ab, rhs) - U
    return U


@pytest.mark.parametrize("c, rel", [(C, 0.0), (0.0, 0.0), (C, 1e-13),
                                    (0.0, 1e-13)])
def test_factored_step_matches_refactorised(base_params, c, rel):
    """rel = 0: refactorising the same (symmetrised) system every step is
    dpttrf + dpttrs arithmetic, so bit-identical.  rel = 1e-13: against
    an independent LU of the unscaled A, equal up to roundoff."""
    init = _tanh_front(c)
    dt, nsteps = 0.01, 40
    tr = run_simulation(base_params, c, init,
                        SimConfig(dt=dt, t_end=nsteps * dt, record_every=10))
    steps = _refactorised_steps if rel == 0.0 else _gtsv_steps
    ref = steps(base_params, c, init, dt, nsteps)
    got = tr.final_state.samples()
    assert np.max(np.abs(got - init.samples())) > 1e-3
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


@pytest.mark.parametrize("L, n, c", [(40.0, 3999, C), (80.0, 7999, 1.0),
                                     (150.0, 5999, 2.0), (10.0, 19, 1.9)])
def test_scaled_solve_backward_error(L, n, c):
    """x = S B^-1 S^-1 b, scaled as the step scales, solves A x = b with a
    componentwise (Oettli-Prager) backward error
    max_i |b - A x|_i / (|A| |x| + |b|)_i below 4 eps, the residual formed
    in long double, over right-hand sides spanning e^-20..1."""
    g = make_grid(L, n)
    ab = stencil_bands(g, c, -0.005, 1.0)
    factors, s = factor_banded(ab)
    S = np.column_stack((s, s))
    S_inv = 1.0 / S
    upper, diag, lower = (np.asarray(ab[i], dtype=np.longdouble)[:, None]
                          for i in range(3))
    rng = np.random.default_rng(20261018)
    worst = 0.0
    for _ in range(20):
        b = np.exp(rng.uniform(-20.0, 0.0, (n, 2)))
        x = pggwave.dynamics.solve_banded(
            factors, np.multiply(b, S_inv, order="F")) * S
        xl = x.astype(np.longdouble)
        Ax = diag * xl
        Ax[:-1] += upper[1:] * xl[1:]
        Ax[1:] += lower[:-1] * xl[:-1]
        absAx = abs(diag) * abs(xl)
        absAx[:-1] += abs(upper[1:]) * abs(xl[1:])
        absAx[1:] += abs(lower[:-1]) * abs(xl[:-1])
        omega = np.max(abs(b - Ax) / (absAx + b))
        worst = max(worst, float(omega))
    assert worst <= 4.0 * np.finfo(float).eps


@pytest.mark.parametrize("c, route", [(0.0, "dpttrf"), (C, "dpttrf")])
def test_step_matrix_factored_once_per_run(base_params, monkeypatch, c,
                                           route):
    counts = {route: 0}
    lapack = getattr(pggwave.dynamics, route)

    def counted(*args):
        counts[route] += 1
        return lapack(*args)

    monkeypatch.setattr(pggwave.dynamics, route, counted)
    cfg = SimConfig(dt=0.01, t_end=0.2, record_every=5)
    run_simulation(base_params, c, _tanh_front(c), cfg)
    assert counts[route] == 1
    run_simulation(base_params, c, _tanh_front(c), cfg)
    assert counts[route] == 2


@pytest.mark.parametrize("c, route", [(0.0, "dpttrf"), (C, "dpttrf")])
def test_failed_factorisation_is_a_grid_error(base_params, monkeypatch, c,
                                              route):
    lapack = getattr(pggwave.dynamics, route)
    monkeypatch.setattr(pggwave.dynamics, route,
                        lambda *args: (*lapack(*args)[:-1], 3))
    reactions = []
    monkeypatch.setattr(pggwave.dynamics, "reaction",
                        lambda *args: reactions.append(args))
    with pytest.raises(GridError, match="pivot 3"):
        run_simulation(base_params, c, _tanh_front(c),
                       SimConfig(dt=0.01, t_end=0.1))
    assert reactions == []


def _coarse_plateau(p, L, c):
    """The (K*, 1) plateau on a grid of spacing h = 1."""
    g = make_grid(L, int(2 * L) - 1)
    return Profile(grid=g, knots=np.full((g.n + 2, 2), (p.kstar, 1.0)), c=c)


def test_scale_range_guard(base_params, monkeypatch):
    """At c = 1.9, h = 1 the scale spans e^{1.83 (n-1)/2}: n = 657 is past
    SCALE_LOG_BOUND and raises before any reaction call; n = 655, just
    inside, keeps the plateau to roundoff."""
    assert SCALE_LOG_BOUND == 600.0
    cfg = SimConfig(dt=0.01, t_end=0.5)
    inside = _coarse_plateau(base_params, 328.0, 1.9)
    tr = run_simulation(base_params, 1.9, inside, cfg, reference=inside)
    assert tr.steps == 50
    assert np.max(tr.sup_norms) < 1e-12
    reactions = []
    monkeypatch.setattr(pggwave.dynamics, "reaction",
                        lambda *args, **kwargs: reactions.append(args))
    with pytest.raises(GridError, match="symmetrising scale"):
        run_simulation(base_params, 1.9,
                       _coarse_plateau(base_params, 329.0, 1.9), cfg)
    assert reactions == []


def test_run_simulation_requires_monotone_stencil(base_params):
    g = make_grid(10.0, 19)                    # h = 1: c*h/2 >= 1 at c >= 2
    init = Profile(grid=g, knots=np.zeros((g.n + 2, 2)), c=2.0)
    with pytest.raises(GridError, match="not monotone"):
        run_simulation(base_params, 2.0, init, SimConfig(dt=0.01, t_end=0.1))
    tr = run_simulation(base_params, 1.9, replace(init, c=1.9),
                        SimConfig(dt=0.01, t_end=0.1))
    assert not tr.blew_up


# --- fitting helpers ---

def test_fit_decay_constant_exact():
    t = np.linspace(0.0, 30.0, 61)
    tr = Trace(times=t, weighted_norms=3.0 * np.exp(-0.2 * t),
               sup_norms=np.zeros_like(t), front_positions=np.zeros_like(t))
    M, b = fit_decay_constant(tr, t_start=0.0)
    assert M == pytest.approx(3.0, abs=1e-10)
    assert b == pytest.approx(0.2, abs=1e-10)


def test_fit_decay_constant_flat_and_invalid():
    t = np.linspace(0.0, 10.0, 21)
    tr = Trace(times=t, weighted_norms=np.full_like(t, 0.7),
               sup_norms=np.zeros_like(t), front_positions=np.zeros_like(t))
    M, b = fit_decay_constant(tr, 0.0)
    assert abs(b) < 1e-12
    tr.weighted_norms[3] = 0.0
    with pytest.raises(NormError):
        fit_decay_constant(tr, 0.0)


def test_spreading_speed_synthetic():
    t = np.linspace(0.0, 20.0, 41)
    tr = Trace(times=t, weighted_norms=np.ones_like(t),
               sup_norms=np.ones_like(t), front_positions=0.3 + 1.0 * t)
    assert spreading_speed(tr, (0.0, 20.0)) == pytest.approx(1.0, abs=1e-12)
    tr2 = Trace(times=t, weighted_norms=np.ones_like(t),
                sup_norms=np.ones_like(t),
                front_positions=np.full_like(t, 2.5))
    assert spreading_speed(tr2, (0.0, 20.0)) == pytest.approx(0.0, abs=1e-12)
    tr2.front_positions[5] = math.nan
    with pytest.raises(FrontNotFoundError):
        spreading_speed(tr2, (0.0, 20.0))


def test_front_position_interpolation():
    g = make_grid(10.0, 19)
    v = 1.0 / (1.0 + np.exp(-(g.nodes - 2.0)))   # rises through 0.5 at xi=2
    x = front_position(g, v)
    assert x == pytest.approx(2.0, abs=0.05)
    assert math.isnan(front_position(g, np.zeros(g.n)))
    assert math.isnan(front_position(g, np.ones(g.n)))


# --- experiments (shortened versions; full lengths run in acceptance) ---

def test_stability_experiment_short(base_params, base_wave, base_weights):
    prof, _ = base_wave
    rep = stability_experiment(base_params, C, prof, base_weights,
                               SimConfig(dt=0.01, t_end=12.0, record_every=50))
    assert rep["final_weighted_norm"] < rep["initial_weighted_norm"]
    assert rep["b"] > 0.05
    tr = rep["trace"]
    tail = tr.weighted_norms[tr.times >= 5.0]
    assert np.all(np.diff(tail) <= 1e-15)


def test_stability_zero_perturbation_floor(base_params, base_wave, base_weights):
    """Unperturbed wave: deviation norms stay at the numerical floor."""
    prof, _ = base_wave
    tr = run_simulation(base_params, C, prof,
                        SimConfig(dt=0.01, t_end=2.0, record_every=50),
                        w=base_weights, reference=prof)
    assert np.max(tr.weighted_norms) < 1e-7


def test_instability_experiment_short(base_params, base_wave):
    prof, _ = base_wave
    rep = instability_experiment(base_params, C, prof,
                                 SimConfig(dt=0.01, t_end=10.0, record_every=100))
    assert rep["growth_factor"] > 2.0
    assert rep["initial_weighted_norm"] >= 1.0


def test_spreading_experiment_short(base_params):
    g = make_grid(60.0, 1199)
    rep = spreading_experiment(base_params, g,
                               SimConfig(dt=0.02, t_end=30.0, record_every=50),
                               t_window=(15.0, 30.0))
    assert rep["speed"] == pytest.approx(1.0, rel=0.15)


def test_trace_csv(tmp_path, base_params, base_wave, base_weights):
    prof, _ = base_wave
    tr = run_simulation(base_params, C, prof,
                        SimConfig(dt=0.05, t_end=0.5, record_every=5),
                        w=base_weights, reference=prof)
    out = tmp_path / "trace.csv"
    trace_to_csv(tr, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,weighted_norm,sup_norm,front_position"
    assert len(lines) == len(tr.times) + 1
