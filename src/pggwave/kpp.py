"""Scalar KPP boundary-value solves that seed the vector bounds.

The nonlinearities are one family in l: l = 1 is the "upper" one, whose
front rises to 1, and l in (0, d), d = ``ModelParams.d``, the "lower" ones,
whose fronts rise to a plateau strictly below 1.  All share f'(0) = alpha,
so all fronts decay toward -inf at one rate, the slow root of the speed
verdict.

On the truncated domain the phase of the front is controlled by the left
Dirichlet datum: with the datum exactly zero the discrete problem's unique
solution collapses into a layer at +L, while a small positive datum pins a
front whose position depends log-linearly on the datum.  ``solve_kpp``
therefore takes s = log(left datum) as one more unknown and closes the
system with a phase row: the PCHIP interpolant at 0, the crossing the
certificate reads, equals plateau/2.  One bordered Newton iteration (Beyn
1990) finds the samples and the datum together, in one pass at every n.
The left knot thus holds a tiny positive number (of the order of the
natural tail value e^{-mu*L}) rather than exactly zero.  The iteration's
steps are damped by ``grid._damped``, the rule the wave's Newton steps
follow.  The monotone sweeps of the wave solve (``grid._shifted_sweep`` in
the loop ``grid._sweep_newton``, with no Newton step) then certify the
front at that datum, and a ``KppReport`` on the returned profile records
what the solve did.

The returned ``ScalarProfile`` carries the problem it solves: its grid, its
speed and its ``KppNonlinearity``.  ``scalar_residual`` and
``bounds.build_bound`` read the problem from the front, so no caller states
it twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .grid import (DAMPING_FLOOR, Grid, _banded_solve as solve_banded,
                   _cubic, _damped, _shifted_sweep, _sweep_newton,
                   apply_advection_diffusion, level_crossing,
                   monotone_interpolant, require_m_matrix, stencil_bands,
                   stencil_coefficients)
from .model import ModelParams, require_monotone_wave

__all__ = [
    "KppNonlinearity",
    "KppReport",
    "ScalarProfile",
    "upper_nonlinearity",
    "lower_nonlinearity",
    "solve_kpp",
    "scalar_residual",
]

# the settled crossing's largest distance from 0
PHASE_TOL = 1e-9
# bordered Newton steps allowed, and the largest |ds| one may take
BORDERED_MAX_STEPS = 40
DATUM_STEP_MAX = 2.0


def _lower_l(p: ModelParams, l: float) -> float:
    """l if it lies in (0, d), the lower fronts' range; else ParameterError."""
    if not (isinstance(l, float) and 0.0 < l < p.d):
        raise ParameterError(
            f"lower-solution parameter l={l} outside (0, {p.d})")
    return l


@dataclass(frozen=True)
class KppNonlinearity:
    """Reaction term f of the scalar front equation w'' - c w' + f(w) = 0,
    one member of the family in l: l = 1 is the upper front (plateau 1),
    l in (0, d) a lower front (plateau below 1)."""

    params: ModelParams
    l: float = 1.0

    def __post_init__(self):
        if self.l != 1.0:
            _lower_l(self.params, self.l)

    @property
    def plateau(self) -> float:
        """Right limit of the front, pref/(pref + (1 - l) K*) with pref =
        alpha/d: exactly 1 at l = 1, below 1 for a lower front."""
        p = self.params
        pref = p.alpha / p.d
        return pref / (pref + (1.0 - self.l) * p.kstar)

    def _terms(self):
        """(pref, k K*, l, q) of f = pref w (1 - q w) / (1 + k K* (1 - l w)),
        with q = 1/plateau (1 for the upper front)."""
        p = self.params
        return p.alpha / p.d, p.k * p.kstar, self.l, 1.0 / self.plateau

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
        if self.l == 1.0:
            printed = -p.alpha / p.d
        else:
            printed = -(1.0 - self.l + self.l * p.alpha) / (
                1.0 - self.l + self.l * p.alpha * p.d)
        return {"numeric": numeric, "printed": printed}


def upper_nonlinearity(p: ModelParams) -> KppNonlinearity:
    return KppNonlinearity(params=p)


def lower_nonlinearity(p: ModelParams, l: float) -> KppNonlinearity:
    """The lower front of parameter l in (0, d); l = 1, the upper front,
    is refused."""
    return KppNonlinearity(params=p, l=_lower_l(p, l))


@dataclass(frozen=True)
class KppReport:
    """What one ``solve_kpp`` call did; no wall-clock time."""

    newton_steps: list[float]       # sup |dw| of each bordered Newton step
    datum_steps: list[float]        # its step in s = log(left datum)
    damped_steps: int               # steps the damping shortened
    sweeps: list[float]             # sup-diffs of the certifying sweeps
    left_datum: float
    crossing: float                 # final half-plateau crossing


@dataclass(frozen=True)
class ScalarProfile:
    """Scalar front at the grid's knots, shape (n+2,): ``knots[0]`` is the
    pinned tiny positive left datum, ``knots[-1]`` the plateau.  It carries
    the problem it solves: the speed ``c`` on ``grid``, with the reaction
    term ``nl``."""

    grid: Grid
    knots: np.ndarray
    c: float
    nl: KppNonlinearity
    report: KppReport

    @property
    def w(self) -> np.ndarray:
        return self.knots[1:-1]

    @property
    def plateau(self) -> float:
        return self.nl.plateau


def scalar_residual(prof: ScalarProfile) -> np.ndarray:
    """Nodewise residual w'' - c w' + f(w) with the profile's Dirichlet data
    and its own reaction term."""
    return (apply_advection_diffusion(prof.grid, prof.c, prof.knots)
            + prof.nl.f(prof.w))


def solve_kpp(nl: KppNonlinearity, c: float, g: Grid,
              tol: float = 1e-12) -> ScalarProfile:
    """Solve the scalar front BVP, phase-pinned so w(0) = plateau/2.

    One bordered Newton iteration (Beyn 1990) solves for the samples w and
    s = log(left datum) together.  The added row's value phi is the PCHIP
    interpolant at 0 less plateau/2, read off the four knots around 0; its
    gradient phi_w reads w linearly at 0, the exact gradient at odd n,
    where a node sits at 0.  A step is one two-column tridiagonal solve,
    J a = -r and J z = lo e^s e_0 (dr/ds lives in row 0 only), then
    ds = (phi + phi_w a)/(phi_w z) and dw = a - ds z.  LAPACK's dgtsv
    (``grid._banded_solve``) solves it on copies: every step reuses the
    right-hand side, whose column 1 must stay zero below row 0.  ``grid._damped``
    halves a step until the iterate stays in [0, plateau] and |ds| stays
    below DATUM_STEP_MAX.  The iteration starts from the front with both
    tail rates: (b/2) e^{mu xi} for xi < 0 and b (1 - e^{nu xi}/2) for
    xi >= 0, b the plateau and nu the negative root of nu^2 - c nu +
    f'(b) = 0.  It settles once a full step moves no unknown knot, the
    left datum e^s included, by ``tol``; past BORDERED_MAX_STEPS steps, or
    damped below ``grid.DAMPING_FLOOR``, it raises ConvergenceError.

    Monotone sweeps alone (``grid._sweep_newton`` with no Newton step,
    envelope [0, plateau], shift beta one above -f'(plateau), the largest
    -f' there since f'' < 0) then certify the front at the final datum: it
    converges only at a sweep whose sup-diff is below ``tol``, and its
    crossing must lie within PHASE_TOL of 0.  A subcritical speed raises.
    The returned front carries ``nl``, ``c`` and ``g`` with its samples.
    """
    if not 0.0 < tol < math.inf:
        raise ParameterError("tolerance must be positive and finite")
    mu = require_monotone_wave(nl.params, c).roots[0].real
    require_m_matrix(g, c)
    b = nl.plateau
    half = b / 2.0
    nu = (c - math.sqrt(c * c - 4.0 * float(nl.fprime(b)))) / 2.0
    lo = stencil_coefficients(g, c)[0]

    logb = math.log(b)
    s = logb - mu * g.L
    knots = np.empty(g.n + 2)
    knots[0], knots[-1] = math.exp(s), b
    j = int(np.searchsorted(g.nodes, 0.0))   # the first node at xi >= 0
    knots[1:j + 1] = half * np.exp(mu * g.nodes[:j])
    knots[j + 1:-1] = b * (1.0 - np.exp(nu * g.nodes[j:]) / 2.0)
    rhs = np.zeros((g.n, 2))

    # the phase row at 0, which lies in the knot segment [xs[1], xs[2]],
    # between nodes i and i + 1: its value is the PCHIP interpolant, which
    # reads only the four knots xs there; its gradient reads w linearly
    i = int(np.searchsorted(g.nodes, 0.0, side="right")) - 1
    xs = g.knots[i:i + 4]
    t = -xs[1] / (xs[2] - xs[1])

    steps: list[float] = []
    datum_steps: list[float] = []
    damped = 0
    settled = False
    while not settled:
        w = knots[1:-1]
        seg = [a[1] for a in monotone_interpolant(xs, knots[i:i + 4])]
        phi = float(_cubic(seg, -xs[1]) - half)
        if len(steps) == BORDERED_MAX_STEPS:
            raise ConvergenceError(
                f"bordered Newton did not settle in {BORDERED_MAX_STEPS} "
                f"steps (last correction {steps[-1]:.3e}, phase offset "
                f"{phi:.3e})")
        rhs[:, 0] = -(apply_advection_diffusion(g, c, knots) + nl.f(w))
        rhs[0, 1] = lo * knots[0]
        a, z = solve_banded((1, 1), stencil_bands(g, c, 1.0, nl.fprime(w)),
                            rhs).T
        dz = float((1.0 - t) * z[i] + t * z[i + 1])
        if not 0.0 < abs(dz) < math.inf:
            raise ConvergenceError(
                f"bordered Newton: the phase row is singular (left "
                f"datum {knots[0]:.3e}, phase offset {phi:.3e})")
        ds = (phi + float((1.0 - t) * a[i] + t * a[i + 1])) / dz
        dw = a - ds * z
        size = float(np.max(np.abs(dw)))
        step = _damped(w, dw, (0.0, b), lambda lam: (
            abs(lam * ds) <= DATUM_STEP_MAX and s + lam * ds <= logb))
        if step is None:
            raise ConvergenceError(
                f"bordered Newton damped below {DAMPING_FLOOR:g} "
                f"(correction {size:.3e}, phase offset {phi:.3e})")
        lam, wn = step
        s += lam * ds
        # settled once a full step moves no unknown knot, the datum
        # included, by tol
        settled = lam == 1.0 and max(size, abs(math.exp(s) - knots[0])) < tol
        knots[0] = math.exp(s)
        knots[1:-1] = wn
        steps.append(lam * size)
        datum_steps.append(lam * ds)
        damped += lam < 1.0

    _, sweep = _shifted_sweep(g, c, nl.f, nl.fprime(np.array([0.0, b])),
                              knots[0], b, solve_banded)
    w, sup_diffs, _ = _sweep_newton(
        sweep, None, knots[1:-1].copy(), (0.0, b), tol)
    knots[1:-1] = w
    x0 = level_crossing(g, knots, half)
    if not abs(x0) < PHASE_TOL:
        raise ConvergenceError(
            f"certified front crosses plateau/2 at {x0:.3e}, not within "
            f"{PHASE_TOL:g} of 0")
    report = KppReport(newton_steps=steps, datum_steps=datum_steps,
                       damped_steps=damped, sweeps=sup_diffs,
                       left_datum=float(knots[0]), crossing=x0)
    return ScalarProfile(grid=g, knots=knots, c=float(c), nl=nl, report=report)
