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
Newton step writes those five bands straight into one Fortran-ordered
(7, 2n) workspace, allocated once per solve, which LAPACK's dgbsv factors
in place (``grid._banded_solve``): the routine ``scipy.linalg.solve_banded``
calls, on the same values, with none of its copies or finiteness scans.  The
sweep is ``grid._shifted_sweep`` and the loop ``grid._sweep_newton``, both
shared with the scalar solves of ``kpp``: Newton from the first sweep, each
step halved back into the envelope (``grid._damped``), the envelope check
on every iterate, convergence only at a sweep whose sup-diff is below the
tolerance, and the one ConvergenceError once the sweep budget is spent.  A
fixed point of the monotone map inside the envelope is, by the uniqueness
of the front, the front, however the iterate got there.  From either bound
the default path takes two sweeps.

``solve_wave`` takes its whole problem from one ``bounds.BoundPair``: the
model, the speed and the grid from the one translated upper bound
``bounds.shifted_upper``.  The front it returns carries all three, so the
functions here that read a front take no model, speed or grid beside it.
Dirichlet data, the end knots of every iterate, are that profile's end
rows, and it also gives the start and the top of the envelope.  Its right
end is the exact limit (K*, 1); its left end is a knot of the upper bound,
a tiny positive datum, which is what fixes the front's position on the
truncated domain (with exactly zero data the discrete solution degenerates
into a layer at +L).  ``bounds.order_shift`` orders these rows with the
lower bound's, so the data move with the samples.  The speed rule and the
tail rates are ``model``'s verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import BoundPair
from .errors import ConvergenceError, FitWindowError, ParameterError
from .grid import (Grid, Profile, _banded_solve as solve_banded,
                   _shifted_sweep, _sweep_newton, least_squares_line,
                   level_crossing, linearization_bands, require_m_matrix,
                   residual)
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

    The pair states the problem: the model, the speed and the grid are
    those of ``bounds.shifted_upper``, which is also the start, the top of
    the envelope [lower, shifted upper] and, by its end rows, the Dirichlet
    data of every iterate; the returned front carries them.  A subcritical
    speed, a stencil that is not an M-matrix on the grid, and a lower bound
    or an ``initial`` on another grid or for another model raise.
    ``initial`` replaces only the start: ``bounds.lower`` starts it from
    below, and a converged wave is a fixed point.  Sweeps and Newton steps
    on the discretized system run through ``grid._sweep_newton`` inside the
    envelope, each Newton step damped into it.  It converges only at a
    sweep whose sup-diff is below ``tol``, raises EnvelopeViolationError on
    a sweep outside the envelope and ConvergenceError after
    ``grid.SWEEP_MAX_ITER`` sweeps, and passes every accepted iterate to
    ``callback(k, U)``.
    """
    if not 0.0 < tol < math.inf:
        raise ParameterError("tolerance must be positive and finite")
    top = bounds.shifted_upper
    p, c, g = top.params, top.c, top.grid
    require_monotone_wave(p, c)
    require_m_matrix(g, c)
    for what, given in (("lower bound", bounds.lower), ("initial", initial)):
        if given is not None and (given.grid, given.params) != (g, p):
            raise ParameterError(f"{what} on another grid or model")

    def as_profile(U):
        return replace(top, knots=np.vstack((top.knots[0], U, top.knots[-1])))

    beta, sweep = _shifted_sweep(
        g, c, lambda U: reaction(p, StateVec(U[:, 0], U[:, 1])).T,
        _box_diagonal(p), top.knots[0], top.knots[-1], solve_banded)

    # dgbsv's band storage, allocated once; a Newton step writes the five
    # bands below the two fill rows and factors it in place
    work = np.empty((7, 2 * g.n), order="F")

    def newton(U):
        prof = as_profile(U)
        linearization_bands(prof, out=work[2:])
        rhs = residual(prof).ravel()
        np.negative(rhs, out=rhs)
        return solve_banded((2, 2), work, rhs).reshape(U.shape)

    upper = top.knots[1:-1]
    U = upper if initial is None else initial.knots[1:-1]
    U, sup_diffs, newton_steps = _sweep_newton(
        sweep, newton, U, (bounds.lower.knots[1:-1], upper), tol, callback)

    prof = as_profile(U)
    final_res = float(np.max(np.abs(residual(prof))))
    if final_res > 10.0 * tol:
        raise ConvergenceError(
            f"converged iterate has residual {final_res:.3e} > 10*tol"
        )
    return prof, IterationReport(iterations=len(sup_diffs),
                                 sup_diffs=sup_diffs, final_residual=final_res,
                                 beta=beta, converged=True,
                                 newton_steps=newton_steps)


def normalize_phase(prof: Profile) -> Profile:
    """The profile with its phase origin at the crossing of v = 1/2:
    ``x0`` is ``grid.level_crossing`` of the v knots, and the knots, the
    solved front's, stay as they are.  Its abscissae xi = grid.knots - x0
    put that crossing at xi = 0 to the bisection's last bit; the paper's
    front is unique up to this translation.  The solved front stays
    strictly increasing, with its own nodes and Dirichlet rows: nothing is
    resampled, so nothing is clamped at the ends.  A profile that carries
    an origin already gets the same one again.
    """
    return replace(prof, x0=level_crossing(prof.grid, prof.knots[:, 1], 0.5))


def check_monotone(prof: Profile) -> tuple[float, float]:
    """Minimum forward difference per component; positive = strictly increasing."""
    return float(np.min(np.diff(prof.u))), float(np.min(np.diff(prof.v)))


def _fit_window(g: Grid, side: str, xi) -> tuple[tuple, np.ndarray]:
    """The tail fit window on ``side``, [-L+5, -L/2] at "-inf" and
    [L/2, L-5] at "+inf", and the mask of the abscissae ``xi`` of the
    grid's nodes inside it."""
    wins = {"-inf": (-g.L + 5.0, -g.L / 2.0), "+inf": (g.L / 2.0, g.L - 5.0)}
    if side not in wins:
        raise ParameterError(f"side must be '-inf' or '+inf', got {side!r}")
    lo, hi = wins[side]
    return (lo, hi), (xi >= lo) & (xi <= hi)


def check_fit_windows(g: Grid) -> None:
    """Raise ParameterError unless both tail fit windows hold FIT_MIN_NODES
    nodes; this reads the grid alone, so it runs before any solve.  A fit
    reads the windows at its front's phase origin, where one can hold
    fewer nodes; ``fit_decay``'s FitWindowError guards that."""
    for side in ("-inf", "+inf"):
        (lo, hi), inwin = _fit_window(g, side, g.nodes)
        if inwin.sum() < FIT_MIN_NODES:
            raise ParameterError(f"the {side} fit window [{lo:g}, {hi:g}] "
                                 f"holds {inwin.sum()} < {FIT_MIN_NODES} nodes")


def fit_decay(prof: Profile, side: str) -> DecayFit:
    """Log-linear tail fit against the analytic front asymptotics.

    The fit reads the solved nodes at their abscissae xi = nodes - x0,
    from the profile's phase origin ``x0``, and no Dirichlet row: side
    "-inf" fits log u and log v against xi on its ``_fit_window``; side
    "+inf" fits log(K*-u) and log(1-v), against the verdict's roots.  At
    the critical speed the -inf tail carries a linear prefactor, so
    log y - log|xi| is fitted instead; each line is
    ``grid.least_squares_line``.  Samples below 1e-14 are excluded;
    fewer than FIT_MIN_NODES usable nodes is an error.
    """
    g, p = prof.grid, prof.params
    xi = g.nodes - prof.x0
    win, inwin = _fit_window(g, side, xi)
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
            logy = logy - np.log(np.abs(xi[mask]))
        slope, intercept, r2 = least_squares_line(xi[mask], logy,
                                                  FitWindowError)
        rates.append(slope)
        amps.append(math.exp(intercept))
        r2s.append(r2)
    return DecayFit(side=side, rate_u=rates[0], rate_v=rates[1],
                    amplitude_u=amps[0], amplitude_v=amps[1],
                    predicted_rate=predicted, window=win,
                    rsquared=min(r2s))
