"""Traveling-front computation by monotone iteration, and its certificates.

The iteration solves, per component,

    (d^2/dxi^2 - c d/dxi - beta) U_next = -F(U) - beta U

with beta at least one above the largest negative Jacobian diagonal over the
state box, so the right-hand side is monotone in U and the tridiagonal
left-hand matrix is an M-matrix for c*h/2 < 1 (required; a coarser grid
raises GridError).  Started from the shifted upper solution the iterates
decrease nodewise and stay inside the [lower, upper] envelope; the fixed
point is the discretized front.

The sweeps contract at a rate rho that tends to 1 at the critical speed
(rho ~ 0.9987 at c = 1, L = 80), so Newton's method on the interleaved
pentadiagonal Jacobian of the discretized system (``grid.linearization_bands``,
the zero-weight operator of the spectrum module) accelerates them.  The loop
is ``grid._sweep_newton``, shared with the scalar solves of ``kpp``: Newton
from the first sweep, the envelope check on every iterate, and convergence
only at a sweep whose sup-diff is below the tolerance.  A fixed point of the
monotone map inside the envelope is, by the uniqueness of the front, the
front, however the iterate got there.

Dirichlet data, the end knots of every iterate: the right end is pinned at
the exact limit (K*, 1); the left end is the upper bound's left knot, a tiny
positive datum, which is what fixes the front's position on the truncated
domain (with exactly zero data the discrete solution degenerates into a
layer at +L).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .bounds import BoundPair, shifted_upper_samples
from .errors import ConvergenceError, FitWindowError, ParameterError
from .grid import (Grid, Profile, _sweep_newton, apply_advection_diffusion,
                   boundary_vector, level_crossing, linearization_bands,
                   require_m_matrix, residual, stencil_bands,
                   stencil_coefficients, translate)
from .model import ModelParams, StateVec, jacobian, reaction

__all__ = [
    "IterationReport",
    "DecayFit",
    "SpeedVerdict",
    "solve_wave",
    "normalize_phase",
    "check_monotone",
    "fit_decay",
    "subcritical_verdict",
    "derivative_profile",
    "derivative_system_residual",
]


@dataclass
class IterationReport:
    """What ``solve_wave`` did.

    ``iterations`` and ``sup_diffs`` count monotone sweeps only;
    ``newton_steps`` holds the sup-norm of each accepted Newton correction.
    """

    iterations: int
    sup_diffs: list
    final_residual: float
    beta: float
    converged: bool
    newton_steps: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "sup_diffs": list(map(float, self.sup_diffs)),
            "final_residual": self.final_residual,
            "beta": self.beta,
            "converged": self.converged,
            "newton_steps": list(map(float, self.newton_steps)),
        }


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

    def to_dict(self) -> dict:
        return {
            "side": self.side,
            "rate_u": self.rate_u, "rate_v": self.rate_v,
            "amplitude_u": self.amplitude_u, "amplitude_v": self.amplitude_v,
            "predicted_rate": self.predicted_rate,
            "window": list(self.window),
            "rsquared": self.rsquared,
        }


def _beta_for(p: ModelParams, samples: int = 50) -> float:
    """Monotonicity shift: box maximum of (-A11, -A22, 0) plus margin 1."""
    us = np.linspace(0.0, p.kstar, samples)
    vs = np.linspace(0.0, 1.0, samples)
    U, V = np.meshgrid(us, vs)
    A = jacobian(p, StateVec(U.ravel(), V.ravel()))
    return max(0.0, float(-A[0, 0].min()), float(-A[1, 1].min())) + 1.0


def solve_wave(p: ModelParams, c: float, g: Grid, bounds: BoundPair,
               tol: float = 1e-10, max_iter: int = 20000,
               direction: str = "down", initial: Profile | None = None,
               callback=None) -> tuple[Profile, IterationReport]:
    """Monotone iteration between the ordered bounds, accelerated by Newton.

    direction="down" iterates from the shifted upper solution (default);
    "up" from the lower, exposed for the uniqueness regression.  ``initial``
    overrides the starting iterate (a converged wave is a fixed point).

    Sweeps and Newton steps on the discretized system run through
    ``grid._sweep_newton``, which converges only at a sweep whose sup-diff
    is below ``tol``, raises on a sweep outside the envelope, passes every
    accepted iterate to ``callback(k, U)`` and makes at most ``max_iter``
    sweeps.  A first sweep down from the upper bound that rises anywhere
    warns.
    """
    if direction not in ("down", "up"):
        raise ParameterError(f"direction must be 'down' or 'up', got {direction!r}")
    if c < p.cmin - 1e-12:
        raise ParameterError(
            f"speed {c} below critical {p.cmin}; no monotone front exists"
        )
    require_m_matrix(g, c)
    bg = bounds.upper.grid
    if bg.n != g.n or bg.L != g.L:
        raise ParameterError("bounds were built on a different grid")

    m = int(round(bounds.shift / g.h))
    upper_env = shifted_upper_samples(bounds.upper, m)
    lower_env = bounds.lower.samples()
    # iteration Dirichlet data: upper's tiny left datum, exact limit on the right
    dl = bounds.upper.knots[0]
    dr = np.array([p.kstar, 1.0])

    def as_profile(U):
        return Profile(grid=g, knots=np.vstack((dl, U, dr)), c=float(c))

    def envelope_gap(U):
        return min(float(np.min(upper_env - U)), float(np.min(U - lower_env)))

    if initial is not None:
        U = initial.samples()
    elif direction == "down":
        U = upper_env.copy()
    else:
        U = lower_env.copy()

    beta = _beta_for(p)
    ab = stencil_bands(g, c, -1.0, beta)
    bvec = boundary_vector(g, c, dl, dr)
    check_rise = direction == "down" and initial is None

    def sweep(U):
        nonlocal check_rise
        F = reaction(p, StateVec(U[:, 0], U[:, 1]))
        Un = solve_banded((1, 1), ab, F.T + beta * U + bvec)
        if check_rise and float(np.max(Un - U)) > 1e-12:
            warnings.warn("iterate 1 increased somewhere during the downward "
                          "iteration", RuntimeWarning, stacklevel=4)
        check_rise = False
        return Un

    def newton(U):
        prof = as_profile(U)
        return solve_banded((2, 2), linearization_bands(p, prof),
                            -residual(p, prof).ravel()).reshape(U.shape)

    U, sup_diffs, newton_steps, converged = _sweep_newton(
        sweep, newton, U, envelope_gap, tol, max_iter, callback)

    prof = as_profile(U)
    final_res = float(np.max(np.abs(residual(p, prof))))
    report = IterationReport(iterations=len(sup_diffs), sup_diffs=sup_diffs,
                             final_residual=final_res, beta=beta,
                             converged=converged, newton_steps=newton_steps)
    if not converged:
        raise ConvergenceError(
            f"monotone iteration did not reach tol={tol} in {max_iter} "
            f"iterations (last sup-diff {sup_diffs[-1]:.3e})"
        )
    if final_res > 10.0 * tol:
        raise ConvergenceError(
            f"converged iterate has residual {final_res:.3e} > 10*tol"
        )
    return prof, report


def normalize_phase(prof: Profile) -> Profile:
    """Translate (monotone interpolation, re-sampled) so that v(0) = 1/2.

    Queries beyond the truncated domain are clamped to the boundary data.
    Idempotent to below 1e-12.
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


def fit_decay(prof: Profile, p: ModelParams, side: str,
              critical: bool = False) -> DecayFit:
    """Log-linear tail fit against the analytic front asymptotics.

    side "-inf" fits log u and log v on [-L+5, -L/2]; side "+inf" fits
    log(K*-u) and log(1-v) on [L/2, L-5].  At the critical speed the -inf
    tail carries a linear prefactor, so log y - log|xi| is fitted instead.
    Samples below 1e-14 are excluded; fewer than 20 usable nodes is an error.
    """
    if side not in ("-inf", "+inf"):
        raise ParameterError(f"side must be '-inf' or '+inf', got {side!r}")
    if prof.c is None:
        raise ParameterError("profile has no wave speed set")
    g, c = prof.grid, prof.c
    if side == "-inf":
        win = (-g.L + 5.0, -g.L / 2.0)
        data = (prof.u, prof.v)
        disc = c * c - 4.0 * p.alpha
        predicted = math.sqrt(p.alpha) if critical else (c - math.sqrt(disc)) / 2.0
    else:
        win = (g.L / 2.0, g.L - 5.0)
        data = (p.kstar - prof.u, 1.0 - prof.v)
        predicted = (c - math.sqrt(c * c + 4.0 * p.alpha)) / 2.0

    inwin = (g.nodes >= win[0]) & (g.nodes <= win[1])
    rates, amps, r2s = [], [], []
    for y in data:
        mask = inwin & (y > 1e-14)
        if int(mask.sum()) < 20:
            raise FitWindowError(
                f"only {int(mask.sum())} usable nodes in the {side} fit window"
            )
        logy = np.log(y[mask])
        if critical and side == "-inf":
            logy = logy - np.log(np.abs(g.nodes[mask]))
        slope, intercept, r2 = _loglinear_fit(g.nodes[mask], logy)
        rates.append(slope)
        amps.append(math.exp(intercept))
        r2s.append(r2)
    return DecayFit(side=side, rate_u=rates[0], rate_v=rates[1],
                    amplitude_u=amps[0], amplitude_v=amps[1],
                    predicted_rate=predicted, window=win,
                    rsquared=min(r2s))


@dataclass(frozen=True)
class SpeedVerdict:
    verdict: str              # NoMonotoneWave | CriticalAdmissible | SupercriticalAdmissible
    roots: tuple              # characteristic roots at the -inf state
    discriminant: float

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "roots": [[z.real, z.imag] for z in self.roots],
            "discriminant": self.discriminant,
        }


def subcritical_verdict(p: ModelParams, c: float) -> SpeedVerdict:
    """Classify c by the characteristic roots (c +- sqrt(c^2-4*alpha))/2.

    A negative discriminant gives a complex pair: the tail toward -inf
    oscillates and no monotone front exists.
    """
    if c <= 0:
        raise ParameterError(f"speed must be positive, got {c}")
    disc = c * c - 4.0 * p.alpha
    if disc < 0:
        s = math.sqrt(-disc) / 2.0
        roots = (complex(c / 2.0, -s), complex(c / 2.0, s))
        verdict = "NoMonotoneWave"
    elif disc == 0:
        roots = (complex(c / 2.0, 0.0), complex(c / 2.0, 0.0))
        verdict = "CriticalAdmissible"
    else:
        s = math.sqrt(disc) / 2.0
        roots = (complex(c / 2.0 - s, 0.0), complex(c / 2.0 + s, 0.0))
        verdict = "SupercriticalAdmissible"
    return SpeedVerdict(verdict=verdict, roots=roots, discriminant=disc)


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
    if prof.c is None:
        raise ParameterError("profile has no wave speed set")
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
