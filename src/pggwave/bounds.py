"""Vector upper/lower solutions built from scalar fronts, and their ordering.

The upper solution is (K* w, w) with w the upper scalar front; the lower is
(K* l w, w) with w the lower scalar front of parameter l: one family in l,
the upper its l = 1 member.  ``build_bound`` makes either from the front
alone, reading l from the front's nonlinearity.  Both satisfy the
componentwise differential inequalities of the wave system, which
``verify_bound`` checks nodewise with the same discrete operators the
solvers use, so the margins are at solver-tolerance level rather than at
O(h^2).

The monotone iteration runs between an ordered pair (Sattinger 1972): the
lower bound and the upper bound translated left by the ordering shift r.
``BoundPair.shifted_upper`` is that one translated profile, Dirichlet data
included, and ``order_shift`` finds r by comparing all n+2 knot rows, so
the end rows are ordered with the samples.  ``build_bound`` gives each
bound the model of its scalar front, and the bounds carry the model, the
speed and the grid, so ``wave.solve_wave`` reads its whole problem from the
pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError, ShiftNotFoundError, VerificationError
from .grid import Grid, Profile, residual, write_csv
from .kpp import (KppReport, ScalarProfile, lower_nonlinearity, solve_kpp,
                  upper_nonlinearity)
from .model import ModelParams

__all__ = [
    "BoundPair",
    "MarginReport",
    "default_l",
    "build_bound",
    "verify_bound",
    "order_shift",
    "make_bounds",
    "margins_to_csv",
]

L_FRACTION = 0.48  # default_l's share of the admissible range of l
MARGIN_TOL = 1e-7  # largest wrong-sign inequality margin a bound may show


@dataclass(frozen=True)
class BoundPair:
    """The ordered bounds of one front problem, whose model, speed and grid
    ``upper`` and ``lower`` carry."""

    upper: Profile
    lower: Profile
    shift: float  # r >= 0 applied to the upper, a grid multiple
    l: float
    # each scalar solve's report, by bound; empty for a hand-built pair
    fronts: dict[str, KppReport] = field(default_factory=dict)

    @property
    def params(self) -> ModelParams:
        """The pair's model, the one its upper bound carries."""
        return self.upper.params

    @property
    def shifted_upper(self) -> Profile:
        """The upper bound translated left by ``shift``: its knot rows from
        round(shift/h) on, padded with its right end row, so the Dirichlet
        data move with the samples."""
        m = int(round(self.shift / self.upper.grid.h))
        return replace(self.upper, knots=_shifted_knots(self.upper, m))


@dataclass(frozen=True)
class MarginReport:
    """Nodewise inequality margins for one bound profile."""

    kind: str                 # "upper" | "lower"
    margins: np.ndarray       # (n, 2)
    worst: float              # max margin for upper, min for lower
    worst_xi: float | None    # None when |worst| is at the roundoff floor
    worst_component: int | None

    @property
    def passed(self) -> bool:
        return (self.worst <= MARGIN_TOL if self.kind == "upper"
                else self.worst >= -MARGIN_TOL)


def default_l(p: ModelParams) -> float:
    """Lower-solution parameter at ``L_FRACTION`` of its admissible range."""
    return L_FRACTION * p.d


def build_bound(s: ScalarProfile) -> Profile:
    """Componentwise (K* l w, w) at the scalar front's knots, with l the
    front's parameter: 1 for the upper front.

    The upper bound's right end is exactly (K*, 1), the lower's strictly
    below it; the left end is the scalar's tiny pinned datum.
    """
    return Profile(s.grid, np.column_stack(
        (s.nl.params.kstar * s.nl.l * s.knots, s.knots)), s.c, s.nl.params)


def verify_bound(prof: Profile, kind: str) -> MarginReport:
    """Evaluate both differential-inequality left-hand sides nodewise.

    Upper solutions need both components <= MARGIN_TOL; lower >= -MARGIN_TOL.
    Raises VerificationError (carrying the worst node) on failure; a NaN
    margin fails.  A worst margin at or below the residual's roundoff floor
    4 eps max|U| / h^2 has no meaningful location: its ``worst_xi`` and
    ``worst_component`` are None.
    """
    if kind not in ("upper", "lower"):
        raise ParameterError(f"kind must be 'upper' or 'lower', got {kind!r}")
    margins = residual(prof)
    # a NaN margin is the worst: argmax and argmin both return the first NaN
    flat = int(np.argmax(margins) if kind == "upper" else np.argmin(margins))
    worst = float(margins.flat[flat])
    node, comp = divmod(flat, 2)
    xi = float(prof.grid.nodes[node])
    floor = 4.0 * np.finfo(float).eps * np.max(np.abs(prof.samples()))
    located = not abs(worst) <= floor / prof.grid.h**2
    report = MarginReport(kind=kind, margins=margins, worst=worst,
                          worst_xi=xi if located else None,
                          worst_component=comp if located else None)
    if not report.passed:
        raise VerificationError(
            f"{kind} solution inequality fails: margin {worst:.3e} at "
            f"xi={xi:.4f}, component {comp}",
            xi=xi, component=comp, margin=worst,
        )
    return report


def _shifted_knots(upper: Profile, m: int) -> np.ndarray:
    """Upper knots translated left by m grid cells, shape (n+2, 2).

    Grid-multiple shifts are exact index shifts (any interpolant through the
    knots agrees with them there); past +L the profile is extended by its
    right end row, so at m = n+1 every row is that row.
    """
    n = upper.grid.n
    return upper.knots[np.minimum(np.arange(n + 2) + m, n + 1)]


def order_shift(upper: Profile, lower: Profile) -> float:
    """Smallest r = m*h >= 0 with upper(. + r) >= lower(.) at every knot,
    the Dirichlet rows included."""
    if upper.grid != lower.grid:
        raise ParameterError("bounds must share one grid")
    for m in range(upper.grid.n + 2):
        if np.all(_shifted_knots(upper, m) >= lower.knots):
            return m * upper.grid.h
    # the last shift made every row the upper's right end row
    end = upper.knots[-1]
    i = int(np.argmin(np.all(end >= lower.knots, axis=1)))
    raise ShiftNotFoundError(
        f"no ordering shift exists: the lower bound exceeds the upper "
        f"bound's right end row ({end[0]:.6g}, {end[1]:.6g}) at knot "
        f"xi={upper.grid.knots[i]:.4f}")


def make_bounds(p: ModelParams, c: float, g: Grid, l: float | None = None,
                tol: float = 1e-12) -> BoundPair:
    """Solve both scalar fronts, build the vector bounds, compute the shift.

    The pair's profiles carry ``p``, ``c`` and ``g``: the whole problem
    that ``wave.solve_wave`` then solves.
    """
    if l is None:
        l = default_l(p)
    s_up = solve_kpp(upper_nonlinearity(p), c, g, tol=tol)
    s_lo = solve_kpp(lower_nonlinearity(p, l), c, g, tol=tol)
    upper = build_bound(s_up)
    lower = build_bound(s_lo)
    r = order_shift(upper, lower)
    return BoundPair(upper=upper, lower=lower, shift=r, l=l,
                     fronts={"upper": s_up.report, "lower": s_lo.report})


def margins_to_csv(report: MarginReport, grid: Grid, path) -> None:
    write_csv(path, "xi,margin_u,margin_v", grid.nodes, report.margins[:, 0],
              report.margins[:, 1])
