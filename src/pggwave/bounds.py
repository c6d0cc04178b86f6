"""Vector upper/lower solutions built from scalar fronts, and their ordering.

The upper solution is (K* w, w) with w the upper scalar front; the lower is
(K* l w, w) with w the lower scalar front of parameter l.  Both satisfy the
componentwise differential inequalities of the wave system, which
``verify_bound`` checks nodewise with the same discrete operators the
solvers use, so the margins are at solver-tolerance level rather than at
O(h^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShiftNotFoundError, VerificationError
from .grid import Grid, Profile, residual, write_csv
from .kpp import ScalarProfile, lower_nonlinearity, solve_kpp, upper_nonlinearity
from .model import ModelParams

__all__ = [
    "BoundPair",
    "MarginReport",
    "default_l",
    "build_upper",
    "build_lower",
    "verify_bound",
    "order_shift",
    "make_bounds",
    "shifted_upper_samples",
    "margins_to_csv",
]

L_FRACTION = 0.48  # default_l's share of the admissible range of l


@dataclass(frozen=True)
class BoundPair:
    upper: Profile
    lower: Profile
    shift: float  # r >= 0 applied to the upper, a grid multiple
    l: float


@dataclass(frozen=True)
class MarginReport:
    """Nodewise inequality margins for one bound profile."""

    kind: str                 # "upper" | "lower"
    margins: np.ndarray       # (n, 2)
    worst: float              # max margin for upper, min for lower
    worst_xi: float | None    # None when |worst| is at the roundoff floor
    worst_component: int | None
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol if self.kind == "upper" else self.worst >= -self.tol


def default_l(p: ModelParams) -> float:
    """Lower-solution parameter at ``L_FRACTION`` of its admissible range."""
    return L_FRACTION * (1.0 - p.k + p.k * p.alpha)


def build_upper(p: ModelParams, s: ScalarProfile) -> Profile:
    """Componentwise (K* w, w) at the scalar front's knots: the right end is
    exactly (K*, 1) and the left end is the scalar's tiny pinned datum."""
    return Profile(s.grid, np.column_stack((p.kstar * s.knots, s.knots)), s.c)


def build_lower(p: ModelParams, l: float, s: ScalarProfile) -> Profile:
    """Componentwise (K* l w, w); right end strictly below (K*, 1)."""
    lmax = 1.0 - p.k + p.k * p.alpha
    if not (0.0 < l < lmax):
        raise ParameterError(f"lower-solution parameter l={l} outside (0, {lmax})")
    return Profile(s.grid, np.column_stack((p.kstar * l * s.knots, s.knots)),
                   s.c)


def verify_bound(p: ModelParams, prof: Profile, c: float, kind: str,
                 tol: float = 1e-7) -> MarginReport:
    """Evaluate both differential-inequality left-hand sides nodewise.

    Upper solutions need both components <= tol; lower solutions >= -tol.
    Raises VerificationError (carrying the worst node) on failure.  A worst
    margin at or below the residual's roundoff floor 4 eps max|U| / h^2 has
    no meaningful location: its ``worst_xi`` and ``worst_component`` are None.
    """
    if kind not in ("upper", "lower"):
        raise ParameterError(f"kind must be 'upper' or 'lower', got {kind!r}")
    margins = residual(p, prof.with_speed(c))
    if kind == "upper":
        flat = np.argmax(margins)
        worst = float(margins.flat[flat])
        bad = worst > tol
    else:
        flat = np.argmin(margins)
        worst = float(margins.flat[flat])
        bad = worst < -tol
    node, comp = divmod(int(flat), 2)
    xi = float(prof.grid.nodes[node])
    if bad:
        raise VerificationError(
            f"{kind} solution inequality fails: margin {worst:.3e} at "
            f"xi={xi:.4f}, component {comp}",
            xi=xi, component=comp, margin=worst,
        )
    scale = float(np.max(np.abs(prof.samples())))
    if abs(worst) <= 4.0 * np.finfo(float).eps * scale / prof.grid.h**2:
        xi = comp = None
    return MarginReport(kind=kind, margins=margins, worst=worst, worst_xi=xi,
                        worst_component=comp, tol=tol)


def shifted_upper_samples(upper: Profile, m: int) -> np.ndarray:
    """Upper samples translated left by m grid cells, shape (n, 2).

    Grid-multiple shifts are exact index shifts (any interpolant through the
    nodes agrees with the samples there); past +L the profile is extended by
    its right end knot.
    """
    n = upper.grid.n
    return upper.knots[np.minimum(np.arange(1, n + 1) + m, n + 1)]


def order_shift(upper: Profile, lower: Profile) -> float:
    """Smallest r = m*h >= 0 with upper(. + r) >= lower(.) at every node."""
    if upper.grid.n != lower.grid.n or upper.grid.L != lower.grid.L:
        raise ParameterError("bounds must share one grid")
    n = upper.grid.n
    LO = lower.samples()
    for m in range(n + 2):
        if np.all(shifted_upper_samples(upper, m) >= LO):
            return m * upper.grid.h
    raise ShiftNotFoundError(
        "no ordering shift r <= 2L exists; the grid is too short"
    )


def make_bounds(p: ModelParams, c: float, g: Grid, l: float | None = None,
                tol: float = 1e-12) -> BoundPair:
    """Solve both scalar fronts, build the vector bounds, compute the shift."""
    if l is None:
        l = default_l(p)
    s_up = solve_kpp(upper_nonlinearity(p), c, g, tol=tol)
    s_lo = solve_kpp(lower_nonlinearity(p, l), c, g, tol=tol)
    upper = build_upper(p, s_up)
    lower = build_lower(p, l, s_lo)
    r = order_shift(upper, lower)
    return BoundPair(upper=upper, lower=lower, shift=r, l=l)


def margins_to_csv(report: MarginReport, grid: Grid, path) -> None:
    write_csv(path, "xi,margin_u,margin_v", grid.nodes, report.margins[:, 0],
              report.margins[:, 1])
