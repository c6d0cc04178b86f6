"""Uniform truncated grid, second-order difference operators, profile I/O.

A profile is one array of values at the knots [-L, nodes..., L]: its n
interior rows are the samples, its two end rows the Dirichlet data, which
every difference stencil reads as ghost values at distance h and every
interpolant as its end knots.  All operators are plain centered
second-order stencils; the one copy of T = d^2/dxi^2 - c d/dxi is here, as
is the phase translation of profiles.  ``linearization_bands`` is the banded
Jacobian of ``residual``; the wave's Newton steps and the spectrum use it.
``_sweep_newton`` is the one monotone-sweep loop with Newton acceleration
that the scalar and the vector front solves share.

Phase translation is a PCHIP (Fritsch & Butland) interpolant written in
numpy, bit-identical to scipy's; a level crossing is found by bisecting its
bracketing cubic.  The package takes only LAPACK banded solves and ARPACK
from scipy: its interpolation and root-finding subpackages, and the special
functions they load, would cost every run a third of its import time and a
fifth of its memory.  Every CSV artifact goes through ``write_csv``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import EnvelopeViolationError, GridError, LevelNotCrossedError
from .model import ModelParams, StateVec, jacobian, reaction

__all__ = [
    "Grid",
    "Profile",
    "make_grid",
    "require_m_matrix",
    "stencil_coefficients",
    "apply_advection_diffusion",
    "stencil_bands",
    "boundary_vector",
    "residual",
    "linearization_bands",
    "monotone_interpolant",
    "level_crossing",
    "translate",
    "write_csv",
    "save_profile",
    "load_profile",
]

# Newton steps allowed per attempt before the sweeps take over again
NEWTON_MAX_STEPS = 20
# slack of the envelope check on every accepted iterate
ENVELOPE_SLACK = 1e-12


@dataclass(frozen=True)
class Grid:
    L: float
    n: int
    h: float
    nodes: np.ndarray

    @property
    def knots(self) -> np.ndarray:
        """The nodes with the two Dirichlet ends: [-L, nodes..., L]."""
        return np.concatenate(([-self.L], self.nodes, [self.L]))


def make_grid(L: float, n: int) -> Grid:
    """Uniform grid with n interior nodes on [-L, L], spacing h = 2L/(n+1)."""
    if L <= 0:
        raise GridError(f"half-length must be positive, got {L}")
    if n < 3:
        raise GridError(f"need at least 3 interior nodes, got {n}")
    h = 2.0 * L / (n + 1)
    nodes = -L + h * np.arange(1, n + 1)
    return Grid(L=float(L), n=int(n), h=h, nodes=nodes)


@dataclass(frozen=True)
class Profile:
    """Two-component field at the grid's knots: ``knots`` has shape (n+2, 2),
    column 0 = u; rows 0 and -1 are the Dirichlet data at -L and +L."""

    grid: Grid
    knots: np.ndarray
    c: float | None

    def __post_init__(self):
        if np.shape(self.knots) != (self.grid.n + 2, 2):
            raise GridError("knot array must have shape (n+2, 2) for the "
                            "grid's n interior nodes")

    @property
    def u(self) -> np.ndarray:
        return self.knots[1:-1, 0]

    @property
    def v(self) -> np.ndarray:
        return self.knots[1:-1, 1]

    def with_speed(self, c: float) -> "Profile":
        return replace(self, c=c)

    def samples(self) -> np.ndarray:
        """A copy of the interior rows, shape (n, 2), column 0 = u."""
        return self.knots[1:-1].copy()


def require_m_matrix(g: Grid, c: float) -> None:
    """Raise GridError unless c*h/2 < 1: only then is -T an M-matrix, the
    sign structure the monotone iterations and comparison arguments need."""
    if abs(c) * g.h / 2.0 >= 1.0:
        raise GridError(f"c*h/2 = {abs(c) * g.h / 2.0:.3g} >= 1: the stencil "
                        "is not monotone on this grid; refine it")


def stencil_coefficients(g: Grid, c: float) -> tuple[float, float]:
    """Weights (lo, hi) of the left and right neighbour in T."""
    h = g.h
    return 1.0 / h**2 + c / (2.0 * h), 1.0 / h**2 - c / (2.0 * h)


def apply_advection_diffusion(g: Grid, c: float, knots) -> np.ndarray:
    """Centered f'' - c f' at the interior nodes of knot values f, shape
    (n+2,) or (n+2, 2); the end rows are the Dirichlet ghosts."""
    f = np.asarray(knots, dtype=float)
    if len(f) != g.n + 2:
        raise GridError("knot array must have the grid's n+2 rows")
    fl, fr = f[:-2], f[2:]
    return (fl - 2.0 * f[1:-1] + fr) / g.h**2 - c * (fr - fl) / (2.0 * g.h)


def stencil_bands(g: Grid, c: float, scale: float, diag) -> np.ndarray:
    """LAPACK (1, 1) bands of scale*T + diag(d) on the interior samples;
    the Dirichlet data enter through ``boundary_vector``."""
    lo, hi = stencil_coefficients(g, c)
    ab = np.zeros((3, g.n))
    ab[0, 1:] = scale * hi
    ab[1, :] = diag - 2.0 * scale / g.h**2
    ab[2, :-1] = scale * lo
    return ab


def boundary_vector(g: Grid, c: float, left, right) -> np.ndarray:
    """Ghost terms of T: lo*left in row 0, hi*right in row n-1, zero between;
    shape (n,), or (n, 2) for a pair of data per end."""
    lo, hi = stencil_coefficients(g, c)
    left = np.asarray(left, dtype=float)
    out = np.zeros((g.n,) + left.shape)
    out[0] = lo * left
    out[-1] = hi * np.asarray(right, dtype=float)
    return out


def residual(p: ModelParams, prof: Profile) -> np.ndarray:
    """Nodewise residual of the wave system, shape (n, 2).

    Column j is u_j'' - c u_j' + F_j(u, v) evaluated with the profile's own
    Dirichlet data; identically zero exactly when the profile solves the
    discretized system.
    """
    if prof.c is None:
        raise GridError("profile has no wave speed set")
    lin = apply_advection_diffusion(prof.grid, prof.c, prof.knots)
    return lin + reaction(p, StateVec(prof.u, prof.v)).T


def linearization_bands(p: ModelParams, prof: Profile, g1=0.0,
                        g2=0.0) -> np.ndarray:
    """Banded V'' - (2 g1 + c) V' + M(xi) V with Dirichlet ends, shape (5, 2n).

    M(xi) = (2 g1^2 - g2 + c g1) I + dF/dU evaluated along the profile; g1, g2
    are the weight's logarithmic-derivative pair (scalars or per node).  At
    g1 = g2 = 0 this is the Jacobian of ``residual`` with respect to the
    interior samples.  Components are interleaved (u_1, v_1, u_2, v_2, ...),
    keeping the five diagonals at offsets -2..2, stored in LAPACK banded
    order: row d holds offset 2 - d.
    """
    if prof.c is None:
        raise GridError("profile has no wave speed set")
    g, c = prof.grid, prof.c
    h, n = g.h, g.n
    g1 = np.broadcast_to(np.asarray(g1, dtype=float), (n,))
    g2 = np.broadcast_to(np.asarray(g2, dtype=float), (n,))
    shift = 2.0 * g1**2 - g2 + c * g1
    A = jacobian(p, StateVec(prof.u, prof.v))
    adv = 2.0 * g1 + c

    bands = np.zeros((5, 2 * n))
    # offset 0: diagonal = -2/h^2 + shift + A_jj
    bands[2, 0::2] = -2.0 / h**2 + shift + A[0, 0]
    bands[2, 1::2] = -2.0 / h**2 + shift + A[1, 1]
    # offset +1: (u_i -> v_i) coupling A12 on even rows; odd rows are
    # (v_i -> u_{i+1}) and stay zero
    bands[1, 1::2] = A[0, 1]
    # offset -1: A21 on odd rows
    bands[3, 0:-1:2] = A[1, 0]
    # offset +2: right neighbor, same component
    right = 1.0 / h**2 - adv / (2.0 * h)
    bands[0, 2::2] = right[:-1]
    bands[0, 3::2] = right[:-1]
    # offset -2: left neighbor
    left = 1.0 / h**2 + adv / (2.0 * h)
    bands[4, 0:-2:2] = left[1:]
    bands[4, 1:-2:2] = left[1:]
    return bands


def _sweep_newton(sweep, newton, U, gap, tol, max_iter, callback=None):
    """Monotone sweeps ``U -> sweep(U)`` accelerated by Newton corrections
    ``U -> U + newton(U)``; returns (U, sup_diffs, newton_steps, converged).

    A Newton attempt follows sweeps 1, 2, 4, 8, ...  It stops after a
    correction below ``tol``, or drops the first step whose correction does
    not shrink or whose iterate leaves the envelope (``gap(U)`` below
    -ENVELOPE_SLACK), and the sweeps resume.  A sweep that leaves the
    envelope raises EnvelopeViolationError.  Only a sweep whose sup-diff is
    below ``tol`` converges: a fixed point of the monotone map inside the
    envelope is the solution, however the iterate got there.  Every accepted
    iterate goes to ``callback(k, U)``, k counting sweeps and Newton steps
    together; ``max_iter`` bounds the sweeps.
    """
    sup_diffs: list[float] = []
    newton_steps: list[float] = []
    newton_at = 1
    for it in range(1, max_iter + 1):
        Un = sweep(U)
        d = float(np.max(np.abs(Un - U)))
        sup_diffs.append(d)
        env = gap(Un)
        if env < -ENVELOPE_SLACK:
            raise EnvelopeViolationError(
                f"iterate {it} left the envelope by {-env:.3e}")
        U = Un
        if callback is not None:
            callback(len(sup_diffs) + len(newton_steps), U)
        if d < tol:
            return U, sup_diffs, newton_steps, True
        if it == newton_at:
            newton_at *= 2
            prev = math.inf
            for _ in range(NEWTON_MAX_STEPS):
                dU = newton(U)
                size = float(np.max(np.abs(dU)))
                if not size < prev or gap(U + dU) < -ENVELOPE_SLACK:
                    break
                U = U + dU
                prev = size
                newton_steps.append(size)
                if callback is not None:
                    callback(len(sup_diffs) + len(newton_steps), U)
                if size < tol:
                    break
    return U, sup_diffs, newton_steps, False


def monotone_interpolant(g: Grid, ys) -> tuple[np.ndarray, tuple]:
    """PCHIP interpolant over [-L, L] of knot values ys, (n+2,) or (n+2, 2):
    the knots xs = [-L, nodes, L] and coefficients (c0, c1, c2, c3) of the
    cubic c0 s^3 + c1 s^2 + c2 s + c3, s = x - xs[i], on [xs[i], xs[i+1]].

    The slopes are Fritsch & Butland's weighted harmonic means (zero at a
    sign change or flat segment) with shape-preserving one-sided three-point
    end slopes, computed in the order scipy's PCHIP uses, so the
    interpolant is scipy's to the last bit.
    """
    xs = g.knots
    ys = np.asarray(ys, dtype=float)
    hx = (xs[1:] - xs[:-1]).reshape((-1,) + (1,) * (ys.ndim - 1))
    m = (ys[1:] - ys[:-1]) / hx
    h0, h1 = hx[:-1], hx[1:]
    w1, w2 = 2 * h1 + h0, h1 + 2 * h0
    sm, zero = np.sign(m), m == 0
    flat = (sm[1:] != sm[:-1]) | zero[1:] | zero[:-1]
    d = np.empty_like(ys)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0,
                           1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d[0] = _end_slope(hx[0], hx[1], m[0], m[1])
    d[-1] = _end_slope(hx[-1], hx[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / hx
    return xs, (t / hx, (m - d[:-1]) / hx - t, d[:-1], ys[:-1])


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point slope, zeroed against m0's sign and capped at
    3 m0 where the data turn."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    turn = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) != np.sign(m0), 0.0,
                    np.where(turn, 3.0 * m0, d))


def _cubic(c, s):
    """Local cubic at offset s, summed in scipy's ``PPoly`` order: from 0.0
    (so a -0.0 sample reads 0.0), constant term first, s^3 as (s*s)*s."""
    c0, c1, c2, c3 = c
    ss = s * s
    return 0.0 + c3 + c2 * s + c1 * ss + c0 * (ss * s)


def level_crossing(g: Grid, ys, level: float) -> float:
    """Where the interpolant of (n+2,) knot values ys first crosses level,
    upward; level must lie strictly inside the range of the data.  The
    bracketing cubic segment is bisected until the midpoint is an endpoint; a
    level that equals a knot value returns that knot exactly."""
    ys = np.asarray(ys, dtype=float)
    if not (ys.min() < level < ys.max()):
        raise LevelNotCrossedError(f"profile does not cross {level} on the domain")
    i = int(np.nonzero(ys >= level)[0][0])
    if i == 0:
        raise LevelNotCrossedError(f"profile does not cross {level} upward")
    xs, c = monotone_interpolant(g, ys)
    if ys[i] == level:
        return float(xs[i])
    x_lo = lo = float(xs[i - 1])
    hi = float(xs[i])
    seg = [float(a[i - 1]) for a in c]

    def f(x):
        return _cubic(seg, x - x_lo) - level

    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo if -f(lo) < f(hi) else hi


def translate(g: Grid, ys, x0: float) -> np.ndarray:
    """The interpolant of knot values ys at the knots + x0, queries clamped
    to [-L, L]: the translated knot values, new Dirichlet data included."""
    xs, c = monotone_interpolant(g, ys)
    q = np.clip(xs + x0, -g.L, g.L)
    # interval i holds xs[i] <= q < xs[i+1]; the last knot closes the last one
    i = np.minimum(np.searchsorted(xs, q, side="right") - 1, len(xs) - 2)
    s = (q - xs[i]).reshape((-1,) + (1,) * (c[0].ndim - 1))
    return _cubic([np.take(a, i, axis=0) for a in c], s)


def write_csv(path, header: str, *columns) -> None:
    """Write equal-length numeric columns as CSV rows under ``header``; values
    are written with 17 significant digits so a round trip is bit-faithful."""
    row = ",".join(["%.17g"] * len(columns))
    cols = [np.asarray(col, dtype=float).tolist() for col in columns]
    lines = [header, *(row % vals for vals in zip(*cols))]
    Path(path).write_text("\n".join(lines) + "\n")


def save_profile(prof: Profile, csv_path, json_path=None, *, alpha: float,
                 k: float, sigma1: float = 0.0, sigma2: float = 0.0) -> None:
    """Write a profile's knots as CSV ``xi,u,v`` plus a JSON metadata
    sidecar; the first and last rows are the Dirichlet data at -L and +L."""
    csv_path = Path(csv_path)
    g = prof.grid
    write_csv(csv_path, "xi,u,v", g.knots, prof.knots[:, 0], prof.knots[:, 1])

    meta = {
        "alpha": alpha, "k": k,
        "c": prof.c, "L": g.L, "n": g.n,
        "sigma1": sigma1, "sigma2": sigma2,
    }
    if json_path is None:
        json_path = csv_path.with_suffix(".json")
    Path(json_path).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def load_profile(csv_path, json_path=None) -> tuple[Profile, dict]:
    """Inverse of save_profile; returns the profile and its metadata dict."""
    csv_path = Path(csv_path)
    if json_path is None:
        json_path = csv_path.with_suffix(".json")
    meta = json.loads(Path(json_path).read_text())
    g = make_grid(meta["L"], meta["n"])

    rows = csv_path.read_text().strip().splitlines()
    if rows[0].strip() != "xi,u,v":
        raise ValueError(f"unexpected CSV header {rows[0]!r}")
    data = np.array([[float(t) for t in r.split(",")] for r in rows[1:]])
    if len(data) != g.n + 2:
        raise ValueError("CSV row count does not match the sidecar's n")
    return Profile(grid=g, knots=data[:, 1:], c=meta["c"]), meta
