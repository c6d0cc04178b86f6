"""Scalar KPP boundary-value solves that seed the vector bounds.

Two nonlinearities are supported: the "upper" one, whose front rises to 1,
and the "lower" family with parameter l in (0, 1-k+k*alpha), whose front
rises to a plateau strictly below 1.  Both share f'(0) = alpha, so both
fronts decay at the same rate toward -inf for a given speed.

On the truncated domain the phase of the front is controlled by the left
Dirichlet datum: with the datum exactly zero the discrete problem's unique
solution collapses into a layer at +L, while a small positive datum pins a
front whose position depends log-linearly on the datum.  ``solve_kpp``
exploits this: it translates the profile's knots (monotone interpolation,
Dirichlet data included) and re-solves until the half-plateau crossing sits
at the origin.  The left knot therefore holds a tiny positive number (of the
order of the natural tail value e^{-mu*L}) rather than exactly zero.  Each
pass runs the sweep-Newton loop of the wave solve, ``grid._sweep_newton``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import ConvergenceError, ParameterError, SubcriticalSpeedError
from .grid import (Grid, _sweep_newton, apply_advection_diffusion,
                   boundary_vector, level_crossing, require_m_matrix,
                   stencil_bands, translate)
from .model import ModelParams

__all__ = [
    "KppNonlinearity",
    "ScalarProfile",
    "upper_nonlinearity",
    "lower_nonlinearity",
    "plateau_of",
    "solve_kpp",
    "scalar_residual",
]

# phase passes allowed, and the crossing's distance from 0 that ends them
PHASE_PASSES = 16
PHASE_TOL = 1e-9
# sweeps allowed per phase pass
SWEEP_MAX_ITER = 200_000


@dataclass(frozen=True)
class KppNonlinearity:
    """Tagged reaction term f for the scalar front equation w'' - c w' + f(w) = 0.

    ``l`` is None for the upper variant (plateau 1); otherwise the lower
    variant with parameter l.
    """

    params: ModelParams
    l: float | None = None

    def __post_init__(self):
        if self.l is not None:
            p = self.params
            lmax = 1.0 - p.k + p.k * p.alpha
            if not (0.0 < self.l < lmax):
                raise ParameterError(
                    f"lower-solution parameter l={self.l} outside (0, {lmax})"
                )

    @property
    def plateau(self) -> float:
        return plateau_of(self)

    def _terms(self):
        """(pref, k K*, l, q) of f = pref w (1 - q w) / (1 + k K* (1 - l w)).

        The upper variant is l = q = 1; the lower has q = 1/plateau.
        """
        p = self.params
        pref = p.alpha / (1.0 - p.k + p.alpha * p.k)
        if self.l is None:
            return pref, p.k * p.kstar, 1.0, 1.0
        return pref, p.k * p.kstar, self.l, 1.0 / self.plateau

    def f(self, w):
        pref, kk, l, q = self._terms()
        w = np.asarray(w, dtype=float)
        return pref / (1.0 + kk * (1.0 - l * w)) * w * (1.0 - q * w)

    def fprime(self, w):
        """Closed-form derivative of f, with D = 1 + k K* (1 - l w):
        f' = pref ((1 - 2 q w) D + k K* l w (1 - q w)) / D^2."""
        pref, kk, l, q = self._terms()
        w = np.asarray(w, dtype=float)
        den = 1.0 + kk * (1.0 - l * w)
        return pref * ((1.0 - 2.0 * q * w) * den
                       + kk * l * w * (1.0 - q * w)) / den**2

    def plateau_slope_report(self) -> dict:
        """f'(plateau) ("numeric") next to the closed constants quoted for each variant.

        For the lower variant the quoted constant disagrees with the
        closed-form f; the derivative of f is authoritative and is the one
        the solvers use.
        """
        p = self.params
        numeric = float(self.fprime(self.plateau))
        if self.l is None:
            printed = -p.alpha / (1.0 - p.k + p.alpha * p.k)
        else:
            printed = -(1.0 - self.l + self.l * p.alpha) / (
                1.0 - self.l + self.l * p.alpha * (1.0 - p.k + p.alpha * p.k)
            )
        return {"numeric": numeric, "printed": printed}


def upper_nonlinearity(p: ModelParams) -> KppNonlinearity:
    return KppNonlinearity(params=p, l=None)


def lower_nonlinearity(p: ModelParams, l: float) -> KppNonlinearity:
    return KppNonlinearity(params=p, l=l)


def plateau_of(nl: KppNonlinearity) -> float:
    """Right limit of the front: 1 for the upper variant, <1 for the lower."""
    if nl.l is None:
        return 1.0
    p = nl.params
    kk = p.k * p.kstar
    return (1.0 + kk - p.kstar) / (1.0 + kk - nl.l * p.kstar)


@dataclass(frozen=True)
class ScalarProfile:
    """Scalar front at the grid's knots, shape (n+2,): ``knots[0]`` is the
    pinned tiny positive left datum, ``knots[-1]`` the plateau."""

    grid: Grid
    knots: np.ndarray
    c: float
    plateau: float

    @property
    def w(self) -> np.ndarray:
        return self.knots[1:-1]


def scalar_residual(nl: KppNonlinearity, prof: ScalarProfile) -> np.ndarray:
    """Nodewise residual w'' - c w' + f(w) with the profile's Dirichlet data."""
    return (apply_advection_diffusion(prof.grid, prof.c, prof.knots)
            + nl.f(prof.w))


def solve_kpp(nl: KppNonlinearity, c: float, g: Grid,
              tol: float = 1e-12) -> ScalarProfile:
    """Solve the scalar front BVP, phase-pinned so w(0) = plateau/2.

    Each phase pass, from a tanh guess and then from the translated previous
    profile, is a monotone iteration in the envelope [0, plateau] (shift beta
    one above the largest -f' there) accelerated by Newton steps on the
    tridiagonal Jacobian, through ``grid._sweep_newton``; it converges at a
    sweep whose sup-diff is below ``tol``, or raises after SWEEP_MAX_ITER.

    The phase loop translates the converged knots (monotone interpolation,
    clamped to [0, plateau] beyond the ends, Dirichlet data included) and
    re-solves until the half-plateau crossing sits at the origin; each pass
    the left datum moves by the factor e^{mu * crossing}, so the loop
    converges in a handful of passes.
    """
    if tol <= 0:
        raise ParameterError("tolerance must be positive")
    a1 = nl.params.alpha
    if c < 2.0 * math.sqrt(a1) - 1e-12:
        raise SubcriticalSpeedError(
            f"speed {c} below critical {2.0 * math.sqrt(a1)} for the scalar front"
        )
    require_m_matrix(g, c)
    b = nl.plateau
    half = b / 2.0
    mu = (c - math.sqrt(max(c * c - 4.0 * a1, 0.0))) / 2.0

    bl, br = b * math.exp(-mu * g.L), b
    w = np.clip(half * (1.0 + np.tanh(g.nodes / 4.0)) + bl, 0.0, b)
    beta = max(0.0, float(-np.min(nl.fprime(np.linspace(0.0, b, 201))))) + 1.0
    ab = stencil_bands(g, c, -1.0, beta)

    def gap(w):
        return min(float(np.min(w)), b - float(np.max(w)))

    x0 = math.inf
    prev = None  # (log bl, crossing) of the previous pass, for the secant step
    for _ in range(PHASE_PASSES):
        # this pass's Dirichlet data in the end knots; the interior follows w
        knots = np.concatenate(([bl], w, [br]))
        bvec = boundary_vector(g, c, bl, br)

        def sweep(w):
            return solve_banded((1, 1), ab, nl.f(w) + beta * w + bvec)

        def newton(w):
            knots[1:-1] = w
            r = apply_advection_diffusion(g, c, knots) + nl.f(w)
            jac = stencil_bands(g, c, 1.0, nl.fprime(w))
            return solve_banded((1, 1), jac, -r)

        w, sup_diffs, _, ok = _sweep_newton(sweep, newton, w, gap, tol,
                                            SWEEP_MAX_ITER)
        if not ok:
            raise ConvergenceError(
                f"scalar sweeps did not reach tol={tol} in {SWEEP_MAX_ITER} "
                f"sweeps (last sup-diff {sup_diffs[-1]:.3e})")
        knots[1:-1] = w
        x0 = level_crossing(g, knots, half)
        if abs(x0) < PHASE_TOL:
            break
        w = np.clip(translate(g, knots, x0)[1:-1], 0.0, b)
        # move the left datum: pure exponential heuristic first, then secant
        # on (log datum, crossing), which also handles the critical-speed
        # polynomial prefactor
        logbl = math.log(bl)
        if prev is not None and abs(x0 - prev[1]) > 1e-15:
            step = -x0 * (logbl - prev[0]) / (x0 - prev[1])
        else:
            step = mu * x0
        prev = (logbl, x0)
        bl = math.exp(logbl + step)
    else:
        raise ConvergenceError(
            f"phase pinning did not settle (last crossing {x0:.3e})"
        )
    return ScalarProfile(grid=g, knots=knots, c=float(c), plateau=b)
