"""Time integration of the moving-frame system and the headline experiments.

The integrator is CNAB2, the Crank-Nicolson / Adams-Bashforth IMEX scheme of
Ascher, Ruuth & Wetton (SIAM J. Numer. Anal. 1995): Crank-Nicolson on the
linear advection-diffusion part T and second-order Adams-Bashforth
extrapolation of the reaction, with a single explicit-Euler reaction
bootstrap step.  Dirichlet ends stay pinned to the initial profile's end
knots.

Each step is taken in reflected form.  With A = I - dt/2 T, the explicit
half is I + dt/2 T = 2I - A, so the update A U' = (2I - A) U + g is

    U' = A^-1 (2U + g) - U,   g = dt * ghosts + dt * (3/2 F - 1/2 F_prev),

one tridiagonal solve for both components and no explicit stencil product;
the Dirichlet ghosts of T are two row updates of the right-hand side.  On
a ``grid.half_line`` grid the left end is the mirror row instead: its ghost
lies in A's bands, and at odd n, where a node sits at x = 0 and owns half a
cell, row 0 of A is halved (``grid.stencil_bands``), so the step scales row
0 of the right-hand side by ``Grid.first_cell``; A stays symmetric.

A is the same matrix at every step, so ``factor_banded`` factors it once per
run and each step is one LAPACK substitution with the stored factors, on
the two columns of an F-order (n, 2) state, at every speed:

- c = 0: lo == hi, A is symmetric positive definite, and dpttrf/dpttrs
  (L D L^T) factor and substitute A itself.  Nothing is scaled.
- c != 0: for every c h/2 < 1, A is a strictly diagonally dominant
  tridiagonal M-matrix, and the diagonal similarity A = S B S^-1 with
  s_{i+1}/s_i = rho = sqrt(lower/upper) makes B symmetric: its
  off-diagonal sqrt(lower*upper) is at most the mean of |lower| and
  |upper|, so B is strictly diagonally dominant too, and positive
  definite.  dpttrf factors B.
  The step evolves Y = S^-1 U, so the update reads Y' = B^-1 (2Y + S^-1 g)
  - Y with scalar Adams-Bashforth weights; a step costs two extra passes,
  F <- S^-1 F after the reaction and U <- S Y after the solve, with full
  (n, 2) scale arrays.  S is built by repeated multiplication outward
  from the middle node (s = 1 there), so each neighbour ratio is rho to
  one rounding; a scale from exp or powers carries an error that grows
  with |log s|.  The componentwise backward error of the scaled solve is
  that of a direct solve, below 1.3 eps on the step matrices tested.  The
  float64 range bounds max|log s_i| (about c L/2) by
  ``SCALE_LOG_BOUND``; a grid past it raises GridError before any step is
  taken, as does a nonzero pivot report.

A run binds dpttrs to the factors and its right-hand side once, and each
step runs that binding through the module-level ``solve_banded``, the
name under which perfbench's tracer counts banded solves; the solution
takes the right-hand side's place.  No finiteness check is made, a
non-finite value in a column spreads through that column's solve, and the
blow-up guard after every step reports it.  The
state (and at c != 0 the scaled state), the two alternating reaction
buffers, the right-hand side and one temporary are allocated once per run,
and a step writes into them with in-place ufuncs in the arithmetic order
of the formula above; ``reaction`` writes the contiguous rows of its
buffer's transpose.

Three experiments reproduce the front's dynamic signature: decay of small
weighted perturbations, sup-norm growth of bounded-but-weighted-large left
tail perturbations, and the selected invasion speed in the lab frame.  The
moving-frame runs take their frame speed from the wave they perturb.  The
invasion is even in x: its seed, its frame speed 0 and its Dirichlet data
are, so its solution stays even for all time, and the run solves on the
half line x >= 0 alone, which halves the substitution, the reaction and
every pass of a step.  It starts from a tanh-edged defector bump evaluated
in logistic form, (1 + tanh z)/2 = exp(-log(1 + e^{-2z})), whose tails
decay like e^{-4|x|} instead of cancelling to exact zero beyond
|x| ~ 14.5, down to the floor ``SEED_FLOOR``.  A run of exact zeros or
subnormal numbers in the state makes every solve smear subnormals into it,
which the CPU handles slowly; on a domain of any length the bump is normal
at every knot and the solves meet no such run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (BlowUpError, FrontNotFoundError, GridError, NormError,
                     ParameterError)
from .grid import (Grid, Profile, _ghost_rows, dpttrf, dpttrs, half_line,
                   least_squares_line, require_m_matrix, stencil_bands,
                   write_csv)
from .model import ModelParams, StateVec, reaction, to_original
from .spectrum import WeightPair, exp_or_inf, log_weight

__all__ = [
    "SimConfig",
    "Trace",
    "run_simulation",
    "weighted_norm",
    "perturb",
    "fit_decay_constant",
    "spreading_speed",
    "front_position",
    "check_speed_window",
    "check_decay_window",
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
SEED_EDGE = 0.5         # width of the seed's tanh edges
# floor of the seed's tails, reached past |x| ~ 171: far above float64's
# smallest normal 2.2e-308, so the AB2 term 1.5 dt F of a floored knot
# stays normal for dt down to ~1e-17
SEED_FLOOR = 1e-290
# largest max|log s_i| of the step matrix's symmetrising scale: a state
# below the blow-up guard (10 max(K*, 1), O(10)) then stays below ~5e261
# when scaled, far from float64's overflow at e^709.8, and values down to
# e^-108 (~1e-47) stay normal (above e^-708) when scaled by e^-600
SCALE_LOG_BOUND = 600.0


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.01
    t_end: float = 50.0
    record_every: int = 100

    def __post_init__(self):
        if not self.dt > 0:
            raise ParameterError("dt must be positive")
        if self.dt > 0.1:
            raise ParameterError("dt above 0.1 loses reaction accuracy")
        if not 0.0 < self.t_end < math.inf:
            raise ParameterError("t_end must be positive and finite")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ParameterError(
                f"t_end = {self.t_end:g} is not a multiple of dt = "
                f"{self.dt:g}: the run would stop at "
                f"t = {round(steps) * self.dt:g}")
        if self.record_every < 1:
            raise ParameterError("record_every must be at least 1")

    def recorded_steps(self) -> frozenset[int]:
        """The step counts after which a run records its state: 0, every
        ``record_every``-th, and the last, t_end / dt."""
        nsteps = int(round(self.t_end / self.dt))
        return frozenset((*range(0, nsteps + 1, self.record_every), nsteps))


@dataclass
class Trace:
    """A run's recorded norms and front positions, one entry per recorded
    step.  ``final_state`` is the state after the last step, on the grid's
    own knots with origin x0 = 0, as every solve's output is; the origin of
    the front it has moved to is ``wave.normalize_phase``'s to set."""

    times: np.ndarray
    weighted_norms: np.ndarray
    sup_norms: np.ndarray
    front_positions: np.ndarray
    blew_up: bool = False
    final_state: Profile | None = field(default=None, repr=False)
    steps: int = 0                # time steps taken
    guard_margin: float = math.nan  # blow-up guard minus the largest sup|U|


def weighted_norm(u, v, g: Grid, w: WeightPair) -> float:
    """sup over nodes of (componentwise max magnitude) * weight, formed in
    logs, so it never overflows; a NaN in the state gives NaN."""
    mag = np.maximum(np.abs(np.asarray(u, dtype=float)),
                     np.abs(np.asarray(v, dtype=float)))
    with np.errstate(divide="ignore"):        # log 0 = -inf weighs 0
        return exp_or_inf(float(np.max(np.log(mag) + log_weight(w, g.nodes))))


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
    # v[i + 1] != v[i]: equal values change sign only when both sit on the
    # level, which is excluded
    return float(x0 + (FRONT_LEVEL - v[i]) * (x1 - x0) / (v[i + 1] - v[i]))


def factor_banded(ab: np.ndarray) -> tuple[tuple, np.ndarray | None]:
    """Factor the tridiagonal matrix A with LAPACK (1, 1) bands ``ab`` once.

    Returns ``(factors, scale)``: dpttrf's L D L^T factors of a symmetric
    positive definite B, and the scale s of A = S B S^-1, so that
    A^-1 r = S B^-1 S^-1 r.  Symmetric bands are factored as they are and
    ``scale`` is None.  Otherwise the off-diagonals must share one sign, s
    is 1 at the middle node and s_{i+1} = s_i rho_i, rho_i =
    sqrt(lower_i / upper_i), by cumulative products outward, and B keeps
    A's diagonal and takes the off-diagonal sqrt(lower_i upper_i), rounded
    once.  (upper_i rho_i instead carries rho's rounding into a systematic
    perturbation of the stencil, which at the base configuration raised
    the stability run's weighted-norm floor 2.3-fold.)  GridError is
    raised when max|log s_i| exceeds ``SCALE_LOG_BOUND`` or when dpttrf
    reports a nonzero ``info``, naming the failed pivot.
    """
    # dpttrf factors in place, and the bands stay the caller's
    upper, diag, lower = ab[0, 1:].copy(), ab[1].copy(), ab[2, :-1]
    scale = None
    if not np.array_equal(upper, lower):
        rho = np.sqrt(lower / upper)
        m = len(diag) // 2
        # an upper bound on max|log s_i|, exact when log rho keeps one sign
        span = np.abs(np.log(rho))
        reach = max(float(np.sum(span[:m])), float(np.sum(span[m:])))
        if not reach <= SCALE_LOG_BOUND:
            raise GridError(
                f"the step matrix's symmetrising scale spans e^{reach:.4g}, "
                f"beyond e^{SCALE_LOG_BOUND:g}: shorten the domain or "
                "lower the speed")
        scale = np.ones(len(diag))
        scale[m + 1:] = np.cumprod(rho[m:])
        scale[:m] = np.cumprod(1.0 / rho[:m][::-1])[::-1]
        np.copysign(np.sqrt(lower * upper), upper, out=upper)
    info = dpttrf(diag, upper)
    if info != 0:
        raise GridError(f"factorising the step matrix failed at pivot {info}")
    return (diag, upper), scale


def solve_banded(substitute) -> None:
    """One step's B^-1 rhs: ``substitute``, a dpttrs binding of the factors
    of ``factor_banded`` to the run's (n, 2) F-ordered right-hand side,
    which it overwrites with the solution.  No checks; applying the scale
    is the caller's part."""
    substitute()


def run_simulation(initial: Profile, cfg: SimConfig,
                   w: WeightPair | None = None,
                   reference: Profile | None = None, forcing=None,
                   on_blowup: str = "raise") -> Trace:
    """Advance U_t = U_xx - c U_x + F(U) [+ forcing] and record norms.

    The model is ``initial.params`` and the frame speed c is ``initial.c``,
    and the final state carries both; a reference in another frame
    (``reference.c != initial.c``), for another model or on another grid
    (another n, L or mirror) raises ParameterError before any step.  Norms
    are of U - reference when a reference is supplied, otherwise of U
    itself; the weighted norm uses ``w`` (zero weights when omitted, i.e. a
    doubled sup norm).  A forcing ``forcing(xi, t) -> (n, 2)`` supports
    manufactured solutions.  Blow-up (sup|U| > 10 max(K*, 1)) raises by
    default; with on_blowup="stop" the trace is truncated and flagged
    instead.  On a ``half_line`` grid (frame
    speed 0) the left end is the mirror row.  The state is recorded after
    the steps ``cfg.recorded_steps()`` names.
    """
    p, c, g = initial.params, initial.c, initial.grid
    if c < 0:
        raise ParameterError(f"the frame speed initial.c = {c:g} is negative")
    if reference is not None and reference.c != c:
        raise ParameterError(
            f"the reference moves at c = {reference.c:g}, the run's frame at "
            f"initial.c = {c:g}")
    if reference is not None and reference.params != p:
        raise ParameterError("the reference is for another model")
    rg = reference.grid if reference is not None else g
    if rg != g:
        raise ParameterError("the reference is on another grid")
    if on_blowup not in ("raise", "stop"):
        raise ParameterError("on_blowup must be 'raise' or 'stop'")
    require_m_matrix(g, c)
    dt = cfg.dt
    wpair = w if w is not None else WeightPair(0.0, 0.0)
    ref = reference.samples() if reference is not None else None

    # Crank-Nicolson on T: implicit matrix A = I - dt/2 T = S B S^-1,
    # factored once; Dirichlet data held
    factors, scale = factor_banded(stencil_bands(g, c, -dt / 2.0, 1.0))
    ghosts = [dt * ghost for ghost in _ghost_rows(g, c, initial.knots[0],
                                                  initial.knots[-1])]
    first_cell = g.first_cell

    guard = 10.0 * max(p.kstar, 1.0)
    nsteps = int(round(cfg.t_end / dt))
    recorded = cfg.recorded_steps()
    # every per-step array, allocated once in the F order dpttrs reads: the
    # state, two alternating reaction buffers, the right-hand side and one
    # temporary
    U, F, F_prev, rhs, tmp = (np.empty((g.n, 2), order="F")
                              for _ in range(5))
    substitute = dpttrs(*factors, rhs)
    U[...] = initial.knots[1:-1]
    # the step evolves Y = S^-1 U, the state B's solve works in, so the
    # Adams-Bashforth weights stay scalars; at c = 0 Y is U itself and
    # nothing is scaled
    if scale is None:
        Y = U
    else:
        S = np.asfortranarray(np.column_stack((scale, scale)))
        S_inv = 1.0 / S
        Y = U * S_inv
        ghosts[0] *= S_inv[0]
        ghosts[-1] *= S_inv[-1]
    peak = float(np.max(np.abs(U)))     # largest sup|U| the guard has seen
    times, wnorms, snorms, fronts = [], [], [], []
    blew_up = False
    steps = 0

    def record(mstep, Ucur):
        dev = Ucur - ref if ref is not None else Ucur
        times.append(mstep * dt)
        wnorms.append(weighted_norm(dev[:, 0], dev[:, 1], g, wpair))
        snorms.append(float(np.max(np.abs(dev))))
        fronts.append(front_position(g, Ucur[:, 1]))

    record(0, U)
    for mstep in range(nsteps):
        t = mstep * dt
        reaction(p, StateVec(U[:, 0], U[:, 1]), out=F.T)
        if forcing is not None:
            F += forcing(g.nodes, t)
        if scale is not None:
            F *= S_inv
        if mstep == 0:
            np.multiply(F, dt, out=rhs)
        else:
            np.multiply(F, 1.5 * dt, out=rhs)
            rhs -= np.multiply(F_prev, 0.5 * dt, out=tmp)
        F, F_prev = F_prev, F
        rhs += np.multiply(Y, 2.0, out=tmp)
        if g.mirror:
            rhs[0] *= first_cell
        else:
            rhs[0] += ghosts[0]
        rhs[-1] += ghosts[-1]
        solve_banded(substitute)
        np.subtract(rhs, Y, out=Y)
        if scale is not None:
            np.multiply(Y, S, out=U)
        steps += 1
        supU = float(np.abs(U, out=tmp).max())     # NaN propagates
        if not supU <= peak:                       # so does the peak
            peak = supU
        if not math.isfinite(supU) or supU > guard:
            blew_up = True
            if on_blowup == "raise":
                what = (f"sup|U| = {supU:.3e} exceeded the guard {guard:.3e}"
                        if math.isfinite(supU) else "sup|U| is not finite")
                raise BlowUpError(f"{what} at t = {t + dt:.3f}")
            break
        if mstep + 1 in recorded:
            record(mstep + 1, U)

    left = initial.knots[0] if g.mirror_row is None else U[g.mirror_row]
    final = replace(initial, knots=np.vstack((left, U, initial.knots[-1])),
                    x0=0.0)
    return Trace(times=np.array(times), weighted_norms=np.array(wnorms),
                 sup_norms=np.array(snorms), front_positions=np.array(fronts),
                 blew_up=blew_up, final_state=final, steps=steps,
                 guard_margin=guard - peak)


def perturb(base: Profile, kind: str, amplitude: float) -> Profile:
    """Add a perturbation to the v component.

    "gaussian": amplitude * exp(-xi^2/4), inside every admissible weighted
    space.  "left_tail": amplitude * indicator(xi < -L/2) smoothed over
    ``LEFT_TAIL_WIDTH`` units - bounded, but weighted-norm large.  Each bump
    is evaluated once at the profile's abscissae xi = grid.knots - x0, so
    it sits at the front's phase origin, and the end knots, the Dirichlet
    data, are perturbed consistently.
    """
    if amplitude == 0:
        raise ParameterError("perturbation amplitude must be nonzero")
    x = base.grid.knots - base.x0
    if kind == "gaussian":
        bump = np.exp(-(x**2) / 4.0)
    elif kind == "left_tail":
        scale = LEFT_TAIL_WIDTH / 4.0
        bump = 0.5 * (1.0 + np.tanh((-base.grid.L / 2.0 - x) / scale))
    else:
        raise ParameterError(f"unknown perturbation kind {kind!r}")
    knots = base.knots.copy()
    knots[:, 1] += amplitude * bump
    return replace(base, knots=knots)


def fit_decay_constant(tr: Trace, t_start: float) -> tuple[float, float]:
    """Fit weighted_norm ~ M e^{-b t} on [t_start, t_end], a
    ``grid.least_squares_line`` through (t, log weighted_norm); returns
    (M, b)."""
    mask = tr.times >= t_start
    y = tr.weighted_norms[mask]
    if len(y) < 2:
        raise NormError("too few samples past t_start for a decay fit")
    if np.any(y <= 0):
        raise NormError("weighted norms must be positive for a log fit")
    slope, intercept, _ = least_squares_line(tr.times[mask], np.log(y),
                                             NormError)
    return math.exp(intercept), -slope


def spreading_speed(tr: Trace, t_window: tuple[float, float]) -> float:
    """Least-squares slope of the front position over the time window
    (``grid.least_squares_line``)."""
    t0, t1 = t_window
    mask = (tr.times >= t0) & (tr.times <= t1)
    x = tr.front_positions[mask]
    if len(x) < 2:
        raise FrontNotFoundError("too few samples in the speed window")
    if np.any(~np.isfinite(x)):
        raise FrontNotFoundError(
            "front level set absent or out of the domain inside the window"
        )
    return least_squares_line(tr.times[mask], x, FrontNotFoundError)[0]


def stability_experiment(wave: Profile, w: WeightPair,
                         cfg: SimConfig) -> tuple[dict, Trace]:
    """Small weighted perturbation (``AMPLITUDE``) decays in the frame of
    ``wave.c``.  Returns ``(report, trace)``: the report holds the norms
    and (M, b) fitted from ``DECAY_FIT_START`` on.  A run too short for
    the fit (``check_decay_window``) is refused before any step."""
    check_decay_window(cfg)
    initial = perturb(wave, "gaussian", AMPLITUDE)
    tr = run_simulation(initial, cfg, w=w, reference=wave)
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
        "sigma1": w.sigma1,
        "sigma2": w.sigma2,
    }, tr


def instability_experiment(wave: Profile, w: WeightPair,
                           cfg: SimConfig) -> tuple[dict, Trace]:
    """Left-tail perturbation (``AMPLITUDE``) grows in sup norm in the frame
    of ``wave.c``; blow-up is reported, not raised.  ``w`` measures the
    perturbation's weighted size.  Returns ``(report, trace)``."""
    initial = perturb(wave, "left_tail", AMPLITUDE)
    tr = run_simulation(initial, cfg, w=w, reference=wave, on_blowup="stop")
    return {
        "kind": "instability",
        "amplitude": AMPLITUDE,
        "initial_sup_norm": float(tr.sup_norms[0]),
        "final_sup_norm": float(tr.sup_norms[-1]),
        "growth_factor": float(tr.sup_norms[-1] / tr.sup_norms[0]),
        "initial_weighted_norm": float(tr.weighted_norms[0]),
        "blew_up": tr.blew_up,
        "t_end": cfg.t_end,
    }, tr


def spreading_seed(p: ModelParams, g: Grid) -> Profile:
    """The spreading run's initial state at every knot of ``g``, the
    Dirichlet ends (and on a half line the mirror ghost) included, at frame
    speed 0.

    Stated in original variables - cooperators at their equilibrium level
    K* everywhere, defectors in a smoothed indicator of height
    ``SEED_HEIGHT`` on [-SEED_HALFWIDTH, SEED_HALFWIDTH],

        SEED_HEIGHT (1 + tanh a)(1 + tanh b) / 4,
        a = (x + SEED_HALFWIDTH) / SEED_EDGE,
        b = (SEED_HALFWIDTH - x) / SEED_EDGE,

    - and mapped through the coordinate transform.  The bump is evaluated
    in logistic form, (1 + tanh z)/2 = exp(-log(1 + e^{-2z})).  Written
    with tanh, the product cancels to exact zero beyond |x| ~ 14.5; here
    the tails keep their size, SEED_HEIGHT e^{-4(|x| - SEED_HALFWIDTH)} to
    ~1e-13 relative (1.3e-253 at |x| = 150), until they reach
    ``SEED_FLOOR`` past |x| ~ 171.  Without the floor they would turn
    subnormal past ~181 and exact zero past ~190.
    """
    x = g.knots
    bump = np.maximum(SEED_HEIGHT * np.exp(
        -np.logaddexp(0.0, -2.0 / SEED_EDGE * (x + SEED_HALFWIDTH))
        - np.logaddexp(0.0, -2.0 / SEED_EDGE * (SEED_HALFWIDTH - x))),
        SEED_FLOOR)
    seed = to_original(p, StateVec(np.full(g.n + 2, p.kstar), bump))
    return Profile(g, np.column_stack(seed), 0.0, p)


def check_speed_window(cfg: SimConfig, t_window: tuple[float, float]) -> None:
    """Raise ParameterError unless the speed window is 0 < t0 < t1 <= t_end.

    The seed's height ``SEED_HEIGHT`` lies below ``FRONT_LEVEL``, so at
    t = 0 the front has no position, and a fit over a window that reaches
    t = 0 could only fail, after the whole run.  A window past the run's
    ``cfg.t_end`` would be fitted on its recorded part alone.
    """
    t0, t1 = t_window
    if not t0 < t1:
        raise ParameterError(f"speed window [{t0}, {t1}] is empty")
    if not t0 > 0:
        raise ParameterError(
            f"speed window [{t0}, {t1}] reaches t = 0, where the seed "
            f"(height {SEED_HEIGHT:g}) has no front at level {FRONT_LEVEL:g}")
    if not t1 <= cfg.t_end:
        raise ParameterError(f"speed window [{t0}, {t1}] ends after "
                             f"t_end = {cfg.t_end:g}")


def check_decay_window(cfg: SimConfig) -> None:
    """Raise ParameterError unless a run under ``cfg`` records at least two
    samples at or after ``DECAY_FIT_START``, which the stability run's decay
    fit needs.  The record schedule is the configuration's alone, so this
    runs before any solve."""
    late = sum(m * cfg.dt >= DECAY_FIT_START for m in cfg.recorded_steps())
    if late < 2:
        raise ParameterError(f"t_end = {cfg.t_end:g} records {late} sample(s) "
                             f"from t = {DECAY_FIT_START:g}; the fit needs 2")


def spreading_experiment(p: ModelParams, g: Grid, cfg: SimConfig,
                         t_window: tuple[float, float]) -> tuple[dict, Trace]:
    """Lab-frame invasion from ``spreading_seed``; measures front speed.
    Returns ``(report, trace)``.

    The window is checked first (``check_speed_window``).  The seed, the
    frame speed 0 and the Dirichlet data are even in x, so the solution is
    even for all time, and the run solves on ``half_line(g)``: the nodes
    of ``g`` at x >= 0, closed at x = 0 by the mirror row.  At odd n the
    node at x = 0 owns half a cell and its row is halved, so the step
    matrix stays symmetric.  The trace is the full line's: the front is
    the rightmost crossing, and the norms are maxima over an even state.
    Its final state is on the half line.

    The seed is a normal float at every knot, so the solves meet no run of
    zeros to smear subnormals into.  The selected front speed is
    2 sqrt(alpha).
    """
    check_speed_window(cfg, t_window)
    initial = spreading_seed(p, half_line(g))
    tr = run_simulation(initial, cfg)
    return {
        "kind": "spreading",
        "speed": spreading_speed(tr, t_window),
        "predicted_speed": p.cmin,
        "t_window": list(t_window),
    }, tr


def trace_to_csv(tr: Trace, path) -> None:
    write_csv(path, "t,weighted_norm,sup_norm,front_position", tr.times,
              tr.weighted_norms, tr.sup_norms, tr.front_positions)
