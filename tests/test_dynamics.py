import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded, solveh_banded

import pggwave.dynamics
from pggwave import (Profile, SimConfig, StateVec, Trace, WeightPair,
                     derive_params, essential_spectrum_max,
                     fit_decay_constant, instability_experiment, make_bounds,
                     make_grid, perturb, run_simulation, solve_wave,
                     spreading_experiment, spreading_speed,
                     stability_experiment, weighted_norm)
from pggwave.dynamics import (SCALE_LOG_BOUND, SEED_EDGE, SEED_FLOOR,
                              SEED_HALFWIDTH, SEED_HEIGHT, factor_banded,
                              front_position, spreading_seed, trace_to_csv)
from pggwave.errors import (BlowUpError, FrontNotFoundError, GridError,
                            NormError, ParameterError)
from pggwave.grid import (_ghost_rows, apply_advection_diffusion, half_line,
                          least_squares_line, stencil_bands)
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

    # a NaN is no magnitude to drop: the norm of a state holding one is NaN
    spike[mid] = math.nan
    assert math.isnan(weighted_norm(zero, spike, g, w))


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


def test_perturb_centres_its_bumps_at_the_phase_origin(base_params):
    # the bumps sit at the profile's abscissae xi = grid.knots - x0, so a
    # front whose origin is x0 = 1.5 gets its Gaussian peak at xi = 0 and
    # its left tail's half height at xi = -L/2, not at grid knots 0 and -L/2
    g = make_grid(10.0, 399)                      # h = 0.05: both are knots
    flat = Profile(grid=g, knots=np.zeros((g.n + 2, 2)), c=C,
                   params=base_params, x0=1.5)
    xi = g.knots - flat.x0
    gauss = perturb(flat, "gaussian", 1e-3).knots[:, 1]
    assert xi[np.argmax(gauss)] == pytest.approx(0.0, abs=1e-12)
    assert np.max(gauss) == pytest.approx(1e-3, rel=1e-15)
    tail = perturb(flat, "left_tail", 1e-3).knots[:, 1]
    half = int(np.argmin(np.abs(xi + g.L / 2.0)))
    assert xi[half] == pytest.approx(-g.L / 2.0, abs=1e-12)
    assert tail[half] == pytest.approx(0.5e-3, rel=1e-12)


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
    const = Profile(grid=g, knots=np.full((g.n + 2, 2), (p.kstar, 1.0)), c=C,
                    params=p)
    tr = run_simulation(const, SimConfig(dt=0.01, t_end=10.0),
                        reference=const)
    assert np.max(tr.sup_norms) < 1e-10


def test_wave_is_steady_in_own_frame(base_wave, base_weights):
    prof, _ = base_wave
    tr = run_simulation(prof,
                        SimConfig(dt=0.01, t_end=10.0, record_every=100),
                        w=base_weights, reference=prof)
    # drift is bounded by iteration-tolerance-level creep
    assert np.max(tr.weighted_norms) < 1e-5
    assert np.max(tr.sup_norms) < 1e-6


def test_wave_stays_put_long_run(base_wave):
    prof, _ = base_wave
    tr = run_simulation(prof,
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
                       c=c, params=p)
        tr = run_simulation(init, SimConfig(dt=dt, t_end=1.0,
                                            record_every=10**6),
                            forcing=make_forcing())
        errs.append(np.max(np.abs(tr.final_state.samples() - exact(g.nodes, 1.0))))
    ratio = errs[0] / errs[1]
    assert 3.3 < ratio < 4.7


def test_blowup_paths(base_wave):
    prof, _ = base_wave
    bad = perturb(prof, "gaussian", 50.0)
    with pytest.raises(BlowUpError):
        run_simulation(bad, SimConfig(dt=0.01, t_end=5.0))
    tr = run_simulation(bad, SimConfig(dt=0.01, t_end=5.0), on_blowup="stop")
    assert tr.blew_up
    assert 0 < tr.steps < 500
    assert tr.guard_margin < 0.0
    with pytest.raises(ParameterError, match="on_blowup"):
        run_simulation(bad, SimConfig(dt=0.01, t_end=5.0), on_blowup="x")


def test_trace_reports_steps_and_guard_margin(base_params):
    init = _plateau(base_params)
    tr = run_simulation(init, SimConfig(dt=0.01, t_end=0.2, record_every=7))
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


def _plateau(p, c=C):
    g = make_grid(10.0, 199)
    return Profile(grid=g, knots=np.full((g.n + 2, 2), (p.kstar, 1.0)), c=c,
                   params=p)


@pytest.mark.parametrize("column", [0, 1], ids=["u", "v"])
@pytest.mark.parametrize("c", [0.0, C])
def test_nonfinite_state_is_a_blowup(base_params, c, column):
    """With and without the symmetrising scale, a NaN in one column is a
    blow-up."""
    init = _plateau(base_params, c)
    cfg = SimConfig(dt=0.01, t_end=1.0)
    forcing = _nan_forcing(column)
    with pytest.raises(BlowUpError, match="sup\\|U\\| is not finite"):
        run_simulation(init, cfg, forcing=forcing)
    tr = run_simulation(init, cfg, forcing=forcing, on_blowup="stop")
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
    ghost_left, ghost_right = _ghost_rows(g, c, dl, dr)
    U = init.samples()
    F_prev = None
    for _ in range(nsteps):
        F = reaction(p, StateVec(U[:, 0], U[:, 1])).T
        G = F if F_prev is None else 1.5 * F - 0.5 * F_prev
        F_prev = F
        rhs = (U + dt / 2.0 * apply_advection_diffusion(g, c,
                                                        np.vstack((dl, U, dr)))
               + dt * G)
        rhs[0] += dt / 2.0 * ghost_left
        rhs[-1] += dt / 2.0 * ghost_right
        U = solve_banded((1, 1), ab, rhs)
    return U


def _tanh_front(p, c):
    g = make_grid(10.0, 199)
    th = np.tanh(g.knots / 2.0)
    return Profile(grid=g, knots=np.column_stack((0.4 + 0.2 * th,
                                                  0.55 - 0.5 * th)), c=c,
                   params=p)


@pytest.mark.parametrize("c", [0.0, C])
@pytest.mark.parametrize("nsteps", [1, 2])
def test_step_matches_explicit_form(base_params, c, nsteps):
    init = _tanh_front(base_params, c)
    dt = 0.01
    tr = run_simulation(init, SimConfig(dt=dt, t_end=nsteps * dt,
                                        record_every=1))
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
        tr = run_simulation(_plateau(base_params, c),
                            SimConfig(dt=0.01, t_end=nsteps * 0.01,
                                      record_every=3))
        assert not tr.blew_up
        assert counts == {"solve_banded": runs * nsteps,
                          "reaction": runs * nsteps}


def _subnormals(a):
    a = np.abs(a)
    return int(np.count_nonzero((a > 0.0) & (a < np.finfo(float).tiny)))


@pytest.mark.parametrize(
    "L, n, line", [(L, n, line) for line in ("full", "half") for L, n in
                   ((150.0, 5999), (200.0, 7999), (300.0, 11999))],
    ids=["L150", "L200", "L300", "L150-half", "L200-half", "L300-half"])
def test_spread_seed_solves_stay_normal(base_params, monkeypatch, L, n, line):
    """The spreading run's first 20 steps (dt = 0.01, h = 0.05), on the full
    line and on the half line ``spreading_experiment`` solves on: no solve
    reads or returns a subnormal number.  A seed whose tails are exact zeros
    fails at step 0, when the solve smears subnormals into the zero runs of
    its right-hand side; past L ~ 181 so does one without ``SEED_FLOOR``."""
    seen = []

    def checked(factors, rhs):
        before = _subnormals(rhs)
        out = solve(factors, rhs)
        seen.append((before, _subnormals(out)))
        return out

    solve = pggwave.dynamics.solve_banded
    monkeypatch.setattr(pggwave.dynamics, "solve_banded", checked)
    g = make_grid(L, n)
    init = spreading_seed(base_params, g if line == "full" else half_line(g))
    tr = run_simulation(init,
                        SimConfig(dt=0.01, t_end=0.2, record_every=10))
    assert tr.steps == 20
    assert seen == [(0, 0)] * 20


def test_spreading_seed_logistic_form(base_params):
    """The seed's bump equals the tanh product wherever that is nonzero,
    and beyond |x| = 15 keeps its exponential tail, a positive normal float
    at every knot of the L = 150 grid; on a longer grid the tail stops at
    ``SEED_FLOOR``."""
    g = make_grid(150.0, 5999)
    seed = spreading_seed(base_params, g)
    assert seed.c == 0.0
    u, v = seed.knots.T
    x = g.knots
    assert np.all(u == 0.0)
    tanh_form = SEED_HEIGHT * 0.25 * (
        (1.0 + np.tanh((x + SEED_HALFWIDTH) / SEED_EDGE))
        * (1.0 + np.tanh((SEED_HALFWIDTH - x) / SEED_EDGE)))
    nonzero = tanh_form != 0.0
    assert np.count_nonzero(~nonzero) > 5000
    assert np.max(np.abs(v - tanh_form)[nonzero]) <= 1e-15
    assert np.all(v >= np.finfo(float).tiny)
    far = np.abs(x) >= 15.0
    tail = SEED_HEIGHT * np.exp(-4.0 * (np.abs(x[far]) - SEED_HALFWIDTH))
    assert np.max(np.abs(v[far] / tail - 1.0)) <= 1e-12
    assert v[0] == v[-1] == pytest.approx(1.3e-253, rel=0.02)
    # the floor binds only on longer domains
    long_v = spreading_seed(base_params, make_grid(300.0, 11999)).knots[:, 1]
    assert long_v.min() == SEED_FLOOR


def test_reference_must_share_the_frame(base_params, monkeypatch):
    """The frame speed, the model and the grid are the initial profile's; a
    reference in another frame, for another model or on another grid (by
    n, L or the mirror row), or a negative speed, is refused before any
    reaction call."""
    reactions = []
    monkeypatch.setattr(pggwave.dynamics, "reaction",
                        lambda *args, **kwargs: reactions.append(args))
    init = _plateau(base_params)
    cfg = SimConfig(dt=0.01, t_end=0.1)
    with pytest.raises(ParameterError, match="reference moves at c = 1"):
        run_simulation(init, cfg, reference=replace(init, c=1.0))
    with pytest.raises(ParameterError, match="another model"):
        run_simulation(init, cfg,
                       reference=replace(init, params=derive_params(0.3, 0.5)))
    with pytest.raises(ParameterError, match="negative"):
        run_simulation(_plateau(base_params, -0.5), cfg)
    for other in (make_grid(10.0, 201), make_grid(12.0, 199),
                  replace(init.grid, mirror=True)):
        knots = np.full((other.n + 2, 2), (base_params.kstar, 1.0))
        with pytest.raises(ParameterError, match="another grid"):
            run_simulation(init, cfg,
                           reference=replace(init, grid=other, knots=knots))
    assert reactions == []


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
    ghost_left, ghost_right = _ghost_rows(g, c, init.knots[0], init.knots[-1])
    ghosts = (dt * ghost_left * S_inv[0], dt * ghost_right * S_inv[-1])
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
    ghosts = [dt * ghost
              for ghost in _ghost_rows(g, c, init.knots[0], init.knots[-1])]
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
    init = _tanh_front(base_params, c)
    dt, nsteps = 0.01, 40
    tr = run_simulation(init,
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
    run_simulation(_tanh_front(base_params, c), cfg)
    assert counts[route] == 1
    run_simulation(_tanh_front(base_params, c), cfg)
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
        run_simulation(_tanh_front(base_params, c),
                       SimConfig(dt=0.01, t_end=0.1))
    assert reactions == []


def _coarse_plateau(p, L, c):
    """The (K*, 1) plateau on a grid of spacing h = 1."""
    g = make_grid(L, int(2 * L) - 1)
    return Profile(grid=g, knots=np.full((g.n + 2, 2), (p.kstar, 1.0)), c=c,
                   params=p)


def test_scale_range_guard(base_params, monkeypatch):
    """At c = 1.9, h = 1 the scale spans e^{1.83 (n-1)/2}: n = 657 is past
    SCALE_LOG_BOUND and raises before any reaction call; n = 655, just
    inside, keeps the plateau to roundoff."""
    assert SCALE_LOG_BOUND == 600.0
    cfg = SimConfig(dt=0.01, t_end=0.5)
    inside = _coarse_plateau(base_params, 328.0, 1.9)
    tr = run_simulation(inside, cfg, reference=inside)
    assert tr.steps == 50
    assert np.max(tr.sup_norms) < 1e-12
    reactions = []
    monkeypatch.setattr(pggwave.dynamics, "reaction",
                        lambda *args, **kwargs: reactions.append(args))
    with pytest.raises(GridError, match="symmetrising scale"):
        run_simulation(_coarse_plateau(base_params, 329.0, 1.9), cfg)
    assert reactions == []


def test_run_simulation_requires_monotone_stencil(base_params):
    g = make_grid(10.0, 19)                    # h = 1: c*h/2 >= 1 at c >= 2
    init = Profile(grid=g, knots=np.zeros((g.n + 2, 2)), c=2.0,
                   params=base_params)
    with pytest.raises(GridError, match="not monotone"):
        run_simulation(init, SimConfig(dt=0.01, t_end=0.1))
    tr = run_simulation(replace(init, c=1.9),
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
    with pytest.raises(NormError, match="too few"):
        fit_decay_constant(tr, 10.0)     # one sample, t = 10


def test_fits_need_two_distinct_times():
    # repeated times leave no line: each fit raises its own error type
    t = np.full(5, 10.0)
    tr = Trace(times=t, weighted_norms=np.linspace(1.0, 2.0, 5),
               sup_norms=np.ones_like(t), front_positions=np.linspace(0, 1, 5))
    with pytest.raises(NormError, match="two distinct"):
        fit_decay_constant(tr, 0.0)
    with pytest.raises(FrontNotFoundError, match="two distinct"):
        spreading_speed(tr, (0.0, 20.0))


def test_fits_agree_with_polyfit():
    rng = np.random.default_rng(37)
    t = np.sort(rng.uniform(40.0, 80.0, 41))
    tr = Trace(times=t, weighted_norms=np.exp(-0.2 * t + 0.01 * np.sin(t)),
               sup_norms=np.ones_like(t),
               front_positions=0.95 * t + 0.05 * rng.standard_normal(t.size))
    slope, intercept = np.polyfit(t, np.log(tr.weighted_norms), 1)
    M, b = fit_decay_constant(tr, 40.0)
    assert b == pytest.approx(-slope, rel=1e-12)
    assert M == pytest.approx(math.exp(intercept), rel=1e-12)
    assert spreading_speed(tr, (40.0, 80.0)) == pytest.approx(
        np.polyfit(t, tr.front_positions, 1)[0], rel=1e-12)


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
    with pytest.raises(FrontNotFoundError, match="too few"):
        spreading_speed(tr2, (3.1, 3.4))     # no sample between the records


def test_front_position_interpolation():
    g = make_grid(10.0, 19)
    v = 1.0 / (1.0 + np.exp(-(g.nodes - 2.0)))   # rises through 0.5 at xi=2
    x = front_position(g, v)
    assert x == pytest.approx(2.0, abs=0.05)
    assert math.isnan(front_position(g, np.zeros(g.n)))
    assert math.isnan(front_position(g, np.ones(g.n)))


def test_front_position_between_nodes():
    # a ramp through 0.5 at xi = 2.3, between the nodes 2 and 3 of an h = 1
    # grid: the linear interpolant recovers the crossing exactly, where the
    # node left of it is off by 0.3
    g = make_grid(10.0, 19)
    assert g.h == 1.0
    v = np.clip(0.5 + 0.1 * (g.nodes - 2.3), 0.0, 1.0)
    assert abs(front_position(g, v) - 2.3) < 1e-12


# --- experiments (shortened versions; full lengths run in acceptance) ---

def test_stability_experiment_short(base_wave, base_weights):
    prof, _ = base_wave
    rep, tr = stability_experiment(
        prof, base_weights, SimConfig(dt=0.01, t_end=12.0, record_every=50))
    assert rep["final_weighted_norm"] < rep["initial_weighted_norm"]
    assert rep["b"] > 0.05
    tail = tr.weighted_norms[tr.times >= 5.0]
    assert np.all(np.diff(tail) <= 1e-15)


def test_stability_zero_perturbation_floor(base_wave, base_weights):
    """Unperturbed wave: deviation norms stay at the numerical floor."""
    prof, _ = base_wave
    tr = run_simulation(prof,
                        SimConfig(dt=0.01, t_end=2.0, record_every=50),
                        w=base_weights, reference=prof)
    assert np.max(tr.weighted_norms) < 1e-7


def test_instability_experiment_short(base_wave, base_weights):
    prof, _ = base_wave
    rep, _ = instability_experiment(
        prof, base_weights, SimConfig(dt=0.01, t_end=10.0, record_every=100))
    assert rep["growth_factor"] > 2.0
    assert rep["initial_weighted_norm"] >= 1.0


@pytest.fixture(scope="module")
def coarse_base_front(base_params):
    prof, _ = solve_wave(make_bounds(base_params, C, make_grid(40.0, 399)))
    return prof


def _early_growth(prof):
    """The instability run's sup-norm growth rate on [5, 10], the slope of
    log sup_norms, and its growth factor by t = 20."""
    rep, tr = instability_experiment(
        prof, WeightPair(0.05, 0.5),
        SimConfig(dt=0.01, t_end=20.0, record_every=10))
    early = (tr.times >= 5.0) & (tr.times <= 10.0)
    rate, _, _ = least_squares_line(tr.times[early],
                                    np.log(tr.sup_norms[early]), NormError)
    return rate, rep["growth_factor"]


# The rate on [5, 10] reads 0.2488 (-0.48%) at L = 40 and 0.2532 (+1.29%) at
# L = 80, the same to 4 digits for every n from 399 to 7999 and at dt 0.01
# and 0.005.  So 2.5% holds both lengths, and a run growing at half the rate
# misses it by 20x.  Away from the base point these windows do not read the
# edge (ROADMAP item 23), so the check is made here only.
EDGE_RATE_TOL = 0.025


def test_instability_grows_at_the_essential_edge(base_params,
                                                 coarse_base_front):
    # a perturbation flat over many decay lengths grows at the rightmost
    # point of the unweighted essential spectrum, the vertex alpha of the
    # invaded state's Jacobian
    edge = essential_spectrum_max(base_params, C, WeightPair(0.0, 0.0))[0]
    assert edge == base_params.alpha
    rate, growth = _early_growth(coarse_base_front)
    assert rate == pytest.approx(edge, rel=EDGE_RATE_TOL)
    assert growth >= 5.0


def test_a_halved_reaction_fails_the_rate_not_the_growth(
        base_params, coarse_base_front, monkeypatch):
    # the stepper's reaction at half its value: the run grows at 0.1246 on
    # [5, 10], yet 604.7x by t = 20, which criterion 12's growth gate passes
    def halved(p, s, out=None):
        f = reaction(p, s, out=out)
        f *= 0.5
        return f

    monkeypatch.setattr(pggwave.dynamics, "reaction", halved)
    rate, growth = _early_growth(coarse_base_front)
    assert growth >= 5.0
    assert rate != pytest.approx(base_params.alpha, rel=EDGE_RATE_TOL)


def test_spreading_experiment_short(base_params):
    g = make_grid(60.0, 1199)
    rep, _ = spreading_experiment(
        base_params, g, SimConfig(dt=0.02, t_end=30.0, record_every=50),
        t_window=(15.0, 30.0))
    assert rep["speed"] == pytest.approx(1.0, rel=0.15)
    # a window that reaches t = 0, where the seed has no front, is refused
    with pytest.raises(ParameterError, match="reaches t = 0"):
        spreading_experiment(base_params, g, SimConfig(dt=0.02, t_end=30.0),
                             t_window=(0.0, 30.0))


def _refuse_to_step(*args, **kwargs):
    raise AssertionError("the run stepped before its window was checked")


def test_stability_experiment_checks_the_decay_window_first(
        base_wave, base_weights, monkeypatch):
    # t_end = 5 records one sample from DECAY_FIT_START = 5 on; the fit
    # needs two, so the run is refused before its first step
    monkeypatch.setattr(pggwave.dynamics, "run_simulation", _refuse_to_step)
    with pytest.raises(ParameterError, match="the fit needs 2"):
        stability_experiment(base_wave[0], base_weights,
                             SimConfig(dt=0.01, t_end=5.0))


def test_spreading_experiment_refuses_a_window_past_t_end(base_params,
                                                          monkeypatch):
    # a speed fitted on [20, 30] must not be reported as the speed on
    # [20, 80]
    monkeypatch.setattr(pggwave.dynamics, "run_simulation", _refuse_to_step)
    with pytest.raises(ParameterError, match="ends after t_end = 30"):
        spreading_experiment(base_params, make_grid(60.0, 599),
                             SimConfig(dt=0.02, t_end=30.0, record_every=25),
                             (20.0, 80.0))


@pytest.mark.parametrize("n", [799, 800], ids=["odd", "even"])
def test_half_line_spread_matches_full_line(base_params, n):
    """``spreading_experiment`` solves on the half line and reports the
    trace of a full-line run from the same seed: the same missing fronts,
    fronts within 1e-9, norms and speed within 1e-12 relative."""
    g = make_grid(40.0, n)
    cfg = SimConfig(dt=0.05, t_end=18.0, record_every=10)
    window = (12.0, 18.0)
    full = run_simulation(spreading_seed(base_params, g), cfg)
    rep, half = spreading_experiment(base_params, g, cfg, window)
    assert half.final_state.grid.mirror
    assert half.final_state.grid.n == (n + 1) // 2
    assert half.steps == full.steps == 360
    np.testing.assert_array_equal(half.times, full.times)
    missing = np.isnan(full.front_positions)
    assert 0 < np.count_nonzero(missing) < len(missing)
    np.testing.assert_array_equal(np.isnan(half.front_positions), missing)
    assert np.max(np.abs(half.front_positions - full.front_positions)[
        ~missing]) <= 1e-9
    for got, want in ((half.sup_norms, full.sup_norms),
                      (half.weighted_norms, full.weighted_norms)):
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12
    assert rep["speed"] == pytest.approx(spreading_speed(full, window),
                                         rel=1e-12)


def test_trace_csv(tmp_path, base_wave, base_weights):
    prof, _ = base_wave
    tr = run_simulation(prof,
                        SimConfig(dt=0.05, t_end=0.5, record_every=5),
                        w=base_weights, reference=prof)
    out = tmp_path / "trace.csv"
    trace_to_csv(tr, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,weighted_norm,sup_norm,front_position"
    assert len(lines) == len(tr.times) + 1
