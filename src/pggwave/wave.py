"""Traveling-front computation by monotone iteration, and its certificates.

The iteration solves, per component,

    (d^2/dxi^2 - c d/dxi - beta) U_next = -F(U) - beta U

with beta at least one above the largest negative Jacobian diagonal over the
state box, so the right-hand side is monotone in U and the tridiagonal
left-hand matrix is an M-matrix for c*h/2 < 1 (required; a coarser grid
raises GridError).  Started from the shifted upper solution the iterates
decrease nodewise and stay inside the [lower, upper] envelope; the fixed
point is the discretized front.  Started from the lower solution they rise
to the same front (Sattinger 1972), so a start from below is only another
``initial`` iterate.

The sweeps contract at a rate rho that tends to 1 at the critical speed
(rho ~ 0.9987 at c = 1, L = 80), so Newton's method on the interleaved
pentadiagonal Jacobian of the discretized system (``grid.linearization_bands``,
the zero-weight operator of the spectrum module) accelerates them.  A
Newton step copies those five bands into one Fortran-ordered (7, 2n)
workspace, allocated once per solve, which LAPACK's dgbsv factors in place
(``grid._banded_solve``): the routine ``scipy.linalg.solve_banded`` calls,
on the same values, with none of its copies or finiteness scans.  The
sweep is ``grid._shifted_sweep`` and the loop ``grid._sweep_newton``, both
shared with the scalar solves of ``kpp``: Newton from the first sweep, each
step halved back into the envelope (``grid._damped``), the envelope check
on every iterate, convergence only at a sweep whose sup-diff is below the
tolerance, and the one ConvergenceError once the sweep budget is spent.  A
fixed point of the monotone map inside the envelope is, by the uniqueness
of the front, the front, however the iterate got there.  From either bound
the default path takes two sweeps.

``solve_wave`` takes its whole problem from one ``bounds.BoundPair``: the
model from the pair's ``params``, the speed and the grid from the one
translated upper bound ``bounds.shifted_upper``.  Dirichlet data, the end
knots of every iterate, are that profile's end rows, and it also gives the
start and the top of the envelope.  Its right end is the exact limit
(K*, 1); its left end is a knot of the upper bound, a tiny positive datum,
which is what fixes the front's position on the truncated domain (with
exactly zero data the discrete solution degenerates into a layer at +L).
``bounds.order_shift`` orders these rows with the lower bound's, so the
data move with the samples.  The speed rule and the tail rates are
``model``'s verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundPair
from .errors import ConvergenceError, FitWindowError, ParameterError
from .grid import (Grid, Profile, _banded_solve as solve_banded,
                   _shifted_sweep, _sweep_newton,
                   apply_advection_diffusion, level_crossing,
                   linearization_bands, require_m_matrix, residual,
                   stencil_coefficients, translate)
from .model import (ModelParams, StateVec, jacobian, reaction,
                    require_monotone_wave)

__all__ = [
    "IterationReport",
    "DecayFit",
    "solve_wave",
    "normalize_phase",
    "check_monotone",
    "check_fit_windows",
    "fit_decay",
    "derivative_profile",
    "derivative_system_residual",
]

FIT_MIN_NODES = 20  # nodes a tail fit needs


@dataclass
class IterationReport:
    """What ``solve_wave`` did.

    ``iterations`` and ``sup_diffs`` count monotone sweeps only;
    ``newton_steps`` holds the sup-norm of each accepted Newton step, after
    any damping into the envelope.
    ``converged`` is True on every returned report: a solve that does not
    converge raises.
    """

    iterations: int
    sup_diffs: list
    final_residual: float
    beta: float
    converged: bool
    newton_steps: list = field(default_factory=list)


@dataclass(frozen=True)
class DecayFit:
    side: str                 # "-inf" | "+inf"
    rate_u: float
    rate_v: float
    amplitude_u: float
    amplitude_v: float
    predicted_rate: float
    window: tuple
    rsquared: float


def _box_diagonal(p: ModelParams) -> np.ndarray:
    """The Jacobian diagonals (A11, A22) at the four corners of the state
    box [0, K*] x [0, 1], where their minimum over the box lies.

    With w = K* - u and D = 1 + k w, both fall in v (dA11/dv = -1/D^2,
    dA22/dv = -2/D), and at v = 1 each is of one sign in w
    (dA11/dw = -2(1-k)/D^3, dA22/dw = -(1-2k)/D^2).
    """
    corners = StateVec(np.array([0.0, p.kstar] * 2), np.repeat([0.0, 1.0], 2))
    return np.diagonal(jacobian(p, corners))


def solve_wave(bounds: BoundPair, tol: float = 1e-10,
               initial: Profile | None = None,
               callback=None) -> tuple[Profile, IterationReport]:
    """Monotone iteration between the ordered bounds, accelerated by Newton.

    The pair states the problem: the model is ``bounds.params``, and the
    speed and the grid are those of ``bounds.shifted_upper``, which is also
    the start, the top of the envelope [lower, shifted upper] and, by its
    end rows, the Dirichlet data of every iterate.  A subcritical speed, a
    stencil that is not an M-matrix on the grid, and a lower bound or an
    ``initial`` on another grid raise.  ``initial`` replaces only the
    start: ``bounds.lower`` starts it from below, and a converged wave is a
    fixed point.  Sweeps and Newton steps on the discretized system run
    through ``grid._sweep_newton`` inside the envelope, each Newton step
    damped into it.  It converges only at a sweep whose sup-diff is below
    ``tol``, raises EnvelopeViolationError on a sweep outside the envelope
    and ConvergenceError after ``grid.SWEEP_MAX_ITER`` sweeps, and passes
    every accepted iterate to ``callback(k, U)``.
    """
    if tol <= 0:
        raise ParameterError("tolerance must be positive")
    top = bounds.shifted_upper
    p, c, g = bounds.params, top.c, top.grid
    require_monotone_wave(p, c)
    require_m_matrix(g, c)
    for what, given in (("lower bound", bounds.lower), ("initial", initial)):
        if given is not None and (given.grid.n != g.n or given.grid.L != g.L):
            raise ParameterError(f"{what} on a different grid")

    def as_profile(U):
        return Profile(g, np.vstack((top.knots[0], U, top.knots[-1])), c)

    beta, sweep = _shifted_sweep(
        g, c, lambda U: reaction(p, StateVec(U[:, 0], U[:, 1])).T,
        _box_diagonal(p), top.knots[0], top.knots[-1], solve_banded)

    # dgbsv's band storage, allocated once; a Newton step writes the five
    # bands below the two fill rows and factors it in place
    work = np.empty((7, 2 * g.n), order="F")

    def newton(U):
        prof = as_profile(U)
        work[2:] = linearization_bands(p, prof)
        return solve_banded((2, 2), work,
                            -residual(p, prof).ravel()).reshape(U.shape)

    upper = top.knots[1:-1]
    U = upper if initial is None else initial.samples()
    U, sup_diffs, newton_steps = _sweep_newton(
        sweep, newton, U, (bounds.lower.samples(), upper), tol, callback)

    prof = as_profile(U)
    final_res = float(np.max(np.abs(residual(p, prof))))
    if final_res > 10.0 * tol:
        raise ConvergenceError(
            f"converged iterate has residual {final_res:.3e} > 10*tol"
        )
    return prof, IterationReport(iterations=len(sup_diffs),
                                 sup_diffs=sup_diffs, final_residual=final_res,
                                 beta=beta, converged=True,
                                 newton_steps=newton_steps)


def normalize_phase(prof: Profile) -> Profile:
    """Translate (monotone interpolation, re-sampled) so that v(0) = 1/2.

    Queries beyond the truncated domain are clamped to the boundary data.
    At odd n a node sits at 0 and holds 1/2, so the result crosses 1/2 at
    0 and a second pass moves it by roundoff only (measured <= 5.3e-16 and
    5.6e-17).  At even n, 0 lies between two nodes, and the re-sampled
    front's own interpolant crosses 1/2 off 0 by its interpolation error,
    of order h^3: on h-ladders at L = 20, 40 and c = 1, 1.25 the crossing
    is at most 9.8e-4 h^3 (7.2e-6 at L = 20, n = 200) and a second pass
    moves the front by at most 7.4e-5 h^3.
    """
    g = prof.grid
    x0 = level_crossing(g, prof.knots[:, 1], 0.5)
    return Profile(g, translate(g, prof.knots, x0), prof.c)


def check_monotone(prof: Profile) -> tuple[float, float]:
    """Minimum forward difference per component; positive = strictly increasing."""
    return float(np.min(np.diff(prof.u))), float(np.min(np.diff(prof.v)))


def _loglinear_fit(x, y):
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = A @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def _fit_window(g: Grid, side: str) -> tuple[tuple, np.ndarray]:
    """The tail fit window on ``side``, [-L+5, -L/2] at "-inf" and
    [L/2, L-5] at "+inf", and the mask of the nodes inside it."""
    wins = {"-inf": (-g.L + 5.0, -g.L / 2.0), "+inf": (g.L / 2.0, g.L - 5.0)}
    if side not in wins:
        raise ParameterError(f"side must be '-inf' or '+inf', got {side!r}")
    lo, hi = wins[side]
    return (lo, hi), (g.nodes >= lo) & (g.nodes <= hi)


def check_fit_windows(g: Grid) -> None:
    """Raise ParameterError unless both tail fit windows hold FIT_MIN_NODES
    nodes; they depend on the grid alone, so this runs before any solve."""
    for side in ("-inf", "+inf"):
        (lo, hi), inwin = _fit_window(g, side)
        if inwin.sum() < FIT_MIN_NODES:
            raise ParameterError(f"the {side} fit window [{lo:g}, {hi:g}] "
                                 f"holds {inwin.sum()} < {FIT_MIN_NODES} nodes")


def fit_decay(prof: Profile, p: ModelParams, side: str) -> DecayFit:
    """Log-linear tail fit against the analytic front asymptotics.

    side "-inf" fits log u and log v on its ``_fit_window``; side "+inf"
    fits log(K*-u) and log(1-v), against the verdict's roots.  At the
    critical speed the -inf tail carries a linear prefactor, so
    log y - log|xi| is fitted instead.  Samples below 1e-14 are excluded;
    fewer than FIT_MIN_NODES usable nodes is an error.
    """
    g = prof.grid
    win, inwin = _fit_window(g, side)
    verdict = require_monotone_wave(p, prof.c)
    if side == "-inf":
        data, predicted = (prof.u, prof.v), verdict.roots[0].real
    else:
        data = (p.kstar - prof.u, 1.0 - prof.v)
        predicted = verdict.plus_inf_root

    rates, amps, r2s = [], [], []
    for y in data:
        mask = inwin & (y > 1e-14)
        if mask.sum() < FIT_MIN_NODES:
            raise FitWindowError(
                f"only {mask.sum()} usable nodes in the {side} fit window")
        logy = np.log(y[mask])
        if side == "-inf" and verdict.verdict == "CriticalAdmissible":
            logy = logy - np.log(np.abs(g.nodes[mask]))
        slope, intercept, r2 = _loglinear_fit(g.nodes[mask], logy)
        rates.append(slope)
        amps.append(math.exp(intercept))
        r2s.append(r2)
    return DecayFit(side=side, rate_u=rates[0], rate_v=rates[1],
                    amplitude_u=amps[0], amplitude_v=amps[1],
                    predicted_rate=predicted, window=win,
                    rsquared=min(r2s))


def _ghost_states(p: ModelParams, prof: Profile) -> tuple[np.ndarray, np.ndarray]:
    """Continuation values one cell beyond each end, from the discrete ODE row.

    The discrete wave equation is imposed at the ghost node (where the
    Dirichlet datum lives) and solved for the out-of-domain neighbor.
    """
    h = prof.grid.h
    lo, hi = stencil_coefficients(prof.grid, prof.c)
    dl, first, last, dr = prof.knots[[0, 1, -2, -1]]
    Fdl = reaction(p, StateVec(dl[0], dl[1]))
    Fdr = reaction(p, StateVec(dr[0], dr[1]))
    beyond_left = (2.0 / h**2 * dl - hi * first - Fdl) / lo
    beyond_right = (2.0 / h**2 * dr - lo * last - Fdr) / hi
    return beyond_left, beyond_right


def derivative_profile(p: ModelParams, prof: Profile) -> Profile:
    """Centered-difference derivative of a converged wave, as a Profile.

    The wave is continued one cell past each end with its own discrete
    equation before differencing, so the derivative's Dirichlet data and the
    closure rows stay consistent with the linearized system to O(h^2).
    """
    g = prof.grid
    bml, bpr = _ghost_states(p, prof)
    ext = np.vstack([bml, prof.knots, bpr])   # one ghost past each end knot
    return Profile(g, (ext[2:] - ext[:-2]) / (2.0 * g.h), prof.c)


def derivative_system_residual(p: ModelParams, prof: Profile,
                               deriv: Profile) -> np.ndarray:
    """Residual (n, 2) of the linearized system applied to the derivative.

    Evaluates w'' - c w' + A(U*) w per component with the derivative
    profile's own Dirichlet data; small sup-norm certifies that the front's
    derivative is the translation null mode of the linearization.
    """
    lin = apply_advection_diffusion(prof.grid, prof.c, deriv.knots)
    A = jacobian(p, StateVec(prof.u, prof.v))
    return np.stack([lin[:, 0] + A[0, 0] * deriv.u + A[0, 1] * deriv.v,
                     lin[:, 1] + A[1, 0] * deriv.u + A[1, 1] * deriv.v], axis=1)
