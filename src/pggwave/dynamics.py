"""Time integration of the moving-frame system and the headline experiments.

The integrator is CNAB2, the Crank-Nicolson / Adams-Bashforth IMEX scheme of
Ascher, Ruuth & Wetton (SIAM J. Numer. Anal. 1995): Crank-Nicolson on the
linear advection-diffusion part T and second-order Adams-Bashforth
extrapolation of the reaction, with a single explicit-Euler reaction
bootstrap step.  Dirichlet ends stay pinned to the initial profile's
boundary data.

Each step is taken in reflected form.  With A = I - dt/2 T, the explicit
half is I + dt/2 T = 2I - A, so the update A U' = (2I - A) U + g is

    U' = A^-1 (2U + g) - U,   g = dt * ghosts + dt * (3/2 F - 1/2 F_prev),

one tridiagonal solve for both components and no explicit stencil product;
the Dirichlet ghosts of T are two row updates of the right-hand side.  The
state is kept as an (n, 2) column-contiguous (Fortran-order) array, the
layout of the transposed reaction and of LAPACK's solution, so a step makes
no layout copies.

A is the same matrix at every step, so ``factor_banded`` factors it once per
run and each step is one LAPACK substitution with the stored factors.  In
the lab frame (c = 0) the stencil weights lo and hi are equal, A is
symmetric positive definite, and the factors are L D L^T (dpttrf/dpttrs).
For c != 0 they are the partially pivoted LU of dgttrf/dgttrs, the same
arithmetic scipy's ``solve_banded`` performs through gtsv, so moving-frame
runs are bit-identical to refactorising every step.  A nonzero pivot report
raises GridError before any step is taken.  The substitution is the
module-level ``solve_banded(factors, rhs)``, the name under which
perfbench's tracer counts banded solves; it makes no finiteness check, a
non-finite value anywhere in the right-hand side spreads through the whole
solve, and the blow-up guard after every step reports it.

Three experiments reproduce the front's dynamic signature: decay of small
weighted perturbations, sup-norm growth of bounded-but-weighted-large left
tail perturbations, and the selected invasion speed in the lab frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs

from .errors import (BlowUpError, FrontNotFoundError, GridError, NormError,
                     ParameterError)
from .grid import (Grid, Profile, boundary_vector, require_m_matrix,
                   stencil_bands, write_csv)
from .model import ModelParams, StateVec, reaction, to_transformed
from .spectrum import WeightPair

__all__ = [
    "SimConfig",
    "Trace",
    "run_simulation",
    "weighted_norm",
    "perturb",
    "fit_decay_constant",
    "spreading_speed",
    "front_position",
    "stability_experiment",
    "instability_experiment",
    "spreading_experiment",
    "trace_to_csv",
]

FRONT_LEVEL = 0.5       # v level whose rightmost crossing is the front
AMPLITUDE = 1e-3        # size of the stability/instability perturbations
LEFT_TAIL_WIDTH = 2.0   # smoothing width of the left-tail perturbation
DECAY_FIT_START = 5.0   # start of the stability run's decay fit
SEED_HEIGHT = 0.1       # the spreading run's defector seed
SEED_HALFWIDTH = 5.0


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.01
    t_end: float = 50.0
    record_every: int = 100

    def __post_init__(self):
        if self.dt <= 0:
            raise ParameterError("dt must be positive")
        if self.dt > 0.1:
            raise ParameterError("dt above 0.1 loses reaction accuracy")
        if self.t_end <= 0:
            raise ParameterError("t_end must be positive")
        if self.record_every < 1:
            raise ParameterError("record_every must be at least 1")


@dataclass
class Trace:
    times: np.ndarray
    weighted_norms: np.ndarray
    sup_norms: np.ndarray
    front_positions: np.ndarray
    blew_up: bool = False
    final_state: Profile | None = field(default=None, repr=False)


def weighted_norm(u, v, g: Grid, w: WeightPair) -> float:
    """sup over nodes of (componentwise max magnitude) * weight, overflow-safe."""
    mag = np.maximum(np.abs(np.asarray(u, dtype=float)),
                     np.abs(np.asarray(v, dtype=float)))
    pos = mag > 0
    if not np.any(pos):
        return 0.0
    logw = np.logaddexp(w.sigma1 * g.nodes[pos], -w.sigma2 * g.nodes[pos])
    lognorm = float(np.max(np.log(mag[pos]) + logw))
    return math.exp(lognorm) if lognorm < 709.0 else math.inf


def front_position(g: Grid, v: np.ndarray) -> float:
    """Rightmost crossing of ``FRONT_LEVEL`` by v, linearly interpolated.

    Returns NaN when the level set is absent (all samples on one side).
    Callers that need the front (the spreading fit) treat NaN as
    "front not found".
    """
    s = v - FRONT_LEVEL
    change = s[:-1] * s[1:] <= 0.0
    change &= ~((s[:-1] == 0.0) & (s[1:] == 0.0))
    idx = np.nonzero(change)[0]
    if len(idx) == 0:
        return math.nan
    i = int(idx[-1])
    x0, x1 = g.nodes[i], g.nodes[i + 1]
    if v[i + 1] == v[i]:
        return float(x0)
    return float(x0 + (FRONT_LEVEL - v[i]) * (x1 - x0) / (v[i + 1] - v[i]))


def factor_banded(ab: np.ndarray) -> tuple:
    """Factor the tridiagonal matrix with LAPACK (1, 1) bands ``ab`` once.

    Returns the (substitution routine, factors) pair ``solve_banded`` takes:
    L D L^T from dpttrf when the bands are symmetric (the matrix must then
    be positive definite), the pivoted LU of dgttrf otherwise.  A nonzero
    LAPACK ``info`` raises GridError naming the failed pivot.
    """
    upper, diag, lower = ab[0, 1:], ab[1], ab[2, :-1]
    if np.array_equal(upper, lower):
        *factors, info = dpttrf(diag, upper)
        solve = dpttrs
    else:
        *factors, info = dgttrf(lower, diag, upper)
        solve = dgttrs
    if info != 0:
        raise GridError(f"factorising the step matrix failed at pivot {info}")
    return solve, tuple(factors)


def solve_banded(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """A^-1 rhs from the factors of ``factor_banded``: one substitution,
    in place when rhs is a Fortran-order float array, no checks."""
    solve, arrays = factors
    return solve(*arrays, rhs, overwrite_b=True)[0]


def run_simulation(p: ModelParams, frame_speed: float, initial: Profile,
                   cfg: SimConfig, w: WeightPair | None = None,
                   reference: Profile | None = None, forcing=None,
                   on_blowup: str = "raise") -> Trace:
    """Advance U_t = U_xx - frame_speed U_x + F(U) [+ forcing] and record norms.

    Norms are of U - reference when a reference is supplied, otherwise of U
    itself; the weighted norm uses ``w`` (zero weights when omitted, i.e. a
    doubled sup norm).  ``forcing(xi, t) -> (n, 2)`` supports manufactured
    solutions.  Blow-up (sup|U| > 10 max(K*, 1)) raises by default; with
    on_blowup="stop" the trace is truncated and flagged instead.
    """
    if frame_speed < 0:
        raise ParameterError("frame_speed must be nonnegative")
    if on_blowup not in ("raise", "stop"):
        raise ParameterError("on_blowup must be 'raise' or 'stop'")
    g = initial.grid
    require_m_matrix(g, frame_speed)
    dt = cfg.dt
    wpair = w if w is not None else WeightPair(0.0, 0.0)
    dl = np.array(initial.boundary_left, dtype=float)
    dr = np.array(initial.boundary_right, dtype=float)
    ref = reference.samples() if reference is not None else None

    # Crank-Nicolson on T: implicit matrix A = I - dt/2 T, factored once;
    # Dirichlet data held
    factors = factor_banded(stencil_bands(g, frame_speed, -dt / 2.0, 1.0))
    ghosts = dt * boundary_vector(g, frame_speed, dl, dr)

    guard = 10.0 * max(p.kstar, 1.0)
    nsteps = int(round(cfg.t_end / dt))
    U = np.asfortranarray(initial.samples())
    F_prev = None
    times, wnorms, snorms, fronts = [], [], [], []
    blew_up = False

    def record(mstep, Ucur):
        dev = Ucur - ref if ref is not None else Ucur
        times.append(mstep * dt)
        wnorms.append(weighted_norm(dev[:, 0], dev[:, 1], g, wpair))
        snorms.append(float(np.max(np.abs(dev))))
        fronts.append(front_position(g, Ucur[:, 1]))

    record(0, U)
    for mstep in range(nsteps):
        t = mstep * dt
        F = reaction(p, StateVec(U[:, 0], U[:, 1])).T
        if forcing is not None:
            F = F + forcing(g.nodes, t)
        rhs = (dt * F if F_prev is None
               else (1.5 * dt) * F - (0.5 * dt) * F_prev)
        F_prev = F
        rhs += 2.0 * U
        rhs[0] += ghosts[0]
        rhs[-1] += ghosts[-1]
        Unew = solve_banded(factors, rhs)
        Unew -= U
        U = Unew
        supU = float(np.max(np.abs(U)))
        if not math.isfinite(supU) or supU > guard:
            blew_up = True
            if on_blowup == "raise":
                what = (f"sup|U| = {supU:.3e} exceeded the guard {guard:.3e}"
                        if math.isfinite(supU) else "sup|U| is not finite")
                raise BlowUpError(f"{what} at t = {t + dt:.3f}")
            break
        if (mstep + 1) % cfg.record_every == 0 or mstep + 1 == nsteps:
            record(mstep + 1, U)

    final = Profile(grid=g, u=U[:, 0].copy(), v=U[:, 1].copy(),
                    c=frame_speed,
                    boundary_left=StateVec(dl[0], dl[1]),
                    boundary_right=StateVec(dr[0], dr[1]))
    return Trace(times=np.array(times), weighted_norms=np.array(wnorms),
                 sup_norms=np.array(snorms), front_positions=np.array(fronts),
                 blew_up=blew_up, final_state=final)


def perturb(base: Profile, kind: str, amplitude: float) -> Profile:
    """Add a perturbation to the v component.

    "gaussian": amplitude * exp(-xi^2/4), inside every admissible weighted
    space.  "left_tail": amplitude * indicator(xi < -L/2) smoothed over
    ``LEFT_TAIL_WIDTH`` units - bounded, but weighted-norm large.  Boundary
    data are perturbed consistently.
    """
    if amplitude == 0:
        raise ParameterError("perturbation amplitude must be nonzero")
    g = base.grid
    if kind == "gaussian":
        bump = np.exp(-(g.nodes**2) / 4.0)
        bl = math.exp(-(g.L**2) / 4.0)
        br = bl
    elif kind == "left_tail":
        scale = LEFT_TAIL_WIDTH / 4.0
        bump = 0.5 * (1.0 + np.tanh((-g.L / 2.0 - g.nodes) / scale))
        bl = 0.5 * (1.0 + math.tanh((g.L / 2.0) / scale))
        br = 0.5 * (1.0 + math.tanh((-3.0 * g.L / 2.0) / scale))
    else:
        raise ParameterError(f"unknown perturbation kind {kind!r}")
    return replace(
        base,
        v=base.v + amplitude * bump,
        boundary_left=StateVec(base.boundary_left[0],
                               base.boundary_left[1] + amplitude * bl),
        boundary_right=StateVec(base.boundary_right[0],
                                base.boundary_right[1] + amplitude * br),
    )


def fit_decay_constant(tr: Trace, t_start: float = 5.0) -> tuple[float, float]:
    """Fit weighted_norm ~ M e^{-b t} on [t_start, t_end]; returns (M, b)."""
    mask = tr.times >= t_start
    y = tr.weighted_norms[mask]
    if len(y) < 2:
        raise NormError("too few samples past t_start for a decay fit")
    if np.any(y <= 0):
        raise NormError("weighted norms must be positive for a log fit")
    t = tr.times[mask]
    slope, intercept = np.polyfit(t, np.log(y), 1)
    return float(math.exp(intercept)), float(-slope)


def spreading_speed(tr: Trace, t_window: tuple[float, float]) -> float:
    """Least-squares slope of the front position over the time window."""
    t0, t1 = t_window
    mask = (tr.times >= t0) & (tr.times <= t1)
    x = tr.front_positions[mask]
    if len(x) < 2:
        raise FrontNotFoundError("too few samples in the speed window")
    if np.any(~np.isfinite(x)):
        raise FrontNotFoundError(
            "front level set absent or out of the domain inside the window"
        )
    slope = np.polyfit(tr.times[mask], x, 1)[0]
    return float(slope)


def stability_experiment(p: ModelParams, c: float, wave: Profile,
                         w: WeightPair, cfg: SimConfig | None = None) -> dict:
    """Small weighted perturbation (``AMPLITUDE``) decays: returns norms and
    (M, b) fitted from ``DECAY_FIT_START`` on."""
    if cfg is None:
        cfg = SimConfig(t_end=50.0)
    initial = perturb(wave, "gaussian", AMPLITUDE)
    tr = run_simulation(p, c, initial, cfg, w=w, reference=wave)
    M, b = fit_decay_constant(tr, DECAY_FIT_START)
    return {
        "kind": "stability",
        "amplitude": AMPLITUDE,
        "initial_weighted_norm": float(tr.weighted_norms[0]),
        "final_weighted_norm": float(tr.weighted_norms[-1]),
        "norm_ratio": float(tr.weighted_norms[-1] / tr.weighted_norms[0]),
        "M": M,
        "b": b,
        "t_end": cfg.t_end,
        "dt": cfg.dt,
        "sigma1": w.sigma1,
        "sigma2": w.sigma2,
        "trace": tr,
    }


def instability_experiment(p: ModelParams, c: float, wave: Profile,
                           cfg: SimConfig | None = None,
                           w: WeightPair | None = None) -> dict:
    """Left-tail perturbation (``AMPLITUDE``) grows in sup norm; blow-up is
    reported, not raised."""
    if cfg is None:
        cfg = SimConfig(t_end=20.0)
    if w is None:
        w = WeightPair(0.05, 0.5)
    initial = perturb(wave, "left_tail", AMPLITUDE)
    dev0 = initial.samples() - wave.samples()
    tr = run_simulation(p, c, initial, cfg, w=w, reference=wave,
                        on_blowup="stop")
    return {
        "kind": "instability",
        "amplitude": AMPLITUDE,
        "initial_sup_norm": float(tr.sup_norms[0]),
        "final_sup_norm": float(tr.sup_norms[-1]),
        "growth_factor": float(tr.sup_norms[-1] / tr.sup_norms[0]),
        "initial_weighted_norm": float(
            weighted_norm(dev0[:, 0], dev0[:, 1], wave.grid, w)),
        "blew_up": tr.blew_up,
        "t_end": cfg.t_end,
        "dt": cfg.dt,
        "trace": tr,
    }


def spreading_experiment(p: ModelParams, g: Grid, cfg: SimConfig | None = None,
                         t_window: tuple[float, float] = (40.0, 80.0)) -> dict:
    """Lab-frame invasion from a compact defector bump; measures front speed.

    The seed is stated in original variables - cooperators at their
    equilibrium level everywhere, a smoothed indicator bump of defectors of
    height ``SEED_HEIGHT`` on [-SEED_HALFWIDTH, SEED_HALFWIDTH] - and mapped through the coordinate transform before evolving.
    The selected front speed is 2 sqrt(alpha).
    """
    if cfg is None:
        cfg = SimConfig(t_end=t_window[1], record_every=50)
    sharp = 0.5
    bump = SEED_HEIGHT * 0.25 * (
        (1.0 + np.tanh((g.nodes + SEED_HALFWIDTH) / sharp))
        * (1.0 + np.tanh((SEED_HALFWIDTH - g.nodes) / sharp)))
    u0, v0 = to_transformed(p, StateVec(np.full(g.n, p.kstar), bump))
    bl = to_transformed(p, StateVec(p.kstar, 0.0))
    initial = Profile(grid=g, u=u0, v=v0, c=0.0,
                      boundary_left=StateVec(bl[0], bl[1]),
                      boundary_right=StateVec(bl[0], bl[1]))
    tr = run_simulation(p, 0.0, initial, cfg)
    speed = spreading_speed(tr, t_window)
    return {
        "kind": "spreading",
        "speed": speed,
        "predicted_speed": p.cmin,
        "t_window": list(t_window),
        "dt": cfg.dt,
        "trace": tr,
    }


def trace_to_csv(tr: Trace, path) -> None:
    write_csv(path, "t,weighted_norm,sup_norm,front_position", tr.times,
              tr.weighted_norms, tr.sup_norms, tr.front_positions)
