"""Uniform truncated grid, second-order difference operators, profile output.

A profile is one array of values at the knots [-L, nodes..., L]: its n
interior rows are the samples, its two end rows the Dirichlet data, which
every difference stencil reads as ghost values at distance h and every
interpolant as its end knots.  A ``half_line`` grid carries a solution even
in x on x >= 0: its left end is the mirror row, whose ghost repeats a
sample, and ``stencil_bands`` and ``_ghost_rows`` close it.  All
operators are plain centered second-order stencils; the one copy of
T = d^2/dxi^2 - c d/dxi is here.  A profile's phase is an origin, not a
resample: its abscissae are the grid's knots less ``Profile.x0``, and its
values stay the solved front's.
``linearization_bands`` is the banded Jacobian of ``residual``; the spectrum
takes it as a new array, and the wave's Newton steps have it written
straight into their dgbsv workspace, every entry, so that no (5, 2n) copy
is made per step.  ``_banded_solve`` hands the front solves' bands to
LAPACK directly.
The scalar and the vector front solves share three pieces here:
``_shifted_sweep``, their beta-shifted monotone sweep, which adds T's two
Dirichlet ghost rows (``_ghost_rows``, lo*left to row 0 and hi*right to
row n-1, which the time steps of ``dynamics`` add too) and touches no row
between; ``_damped``, the one rule that halves a Newton step back into the
envelope; and ``_sweep_newton``, the monotone-sweep loop with Newton
acceleration, which owns their envelope test and their failure when the
sweep budget is spent.  The stencil is formed in place, one operation at a
time in the order of its formula, so it is the formula's to the last bit
and no full-length temporary is made only to be read once.
The tail fits of ``wave`` and the decay and speed fits of ``dynamics``
share ``least_squares_line``, a line in closed form from centred sums:
numpy's ``lstsq`` or ``polyfit`` would start numpy's own LAPACK beside
scipy's, about 1 MB of peak memory per run.

The phase origin is a level crossing of a PCHIP (Fritsch & Butland)
interpolant written in numpy, bit-identical to scipy's, found by bisecting
its bracketing cubic; the scalar fronts' phase row reads the same cubic.
The package takes only LAPACK banded solves from scipy: its interpolation
and root-finding subpackages, and the special functions they load, would
cost every run a third of its import time and a fifth of its memory.  The
six LAPACK routines, dgtsv and dgbsv of the front solves, dgbtrf and
dgbtrs of the eigensolve (``spectrum.eigen_report``) and dpttrf and dpttrs
of the time steps, come from scipy's compiled module ``_flapack``, which
``_load_lapack`` loads at import from its file in the installed
``scipy/linalg`` directory.
Importing ``scipy.linalg`` instead would run that package's init, whose
array-API layer loads numpy's f2py, testing, ma and random subpackages
among 300 modules: 0.3 s of a 0.48 s import and 24 MB of memory on every
run.  The routines are the objects ``scipy.linalg.lapack`` exports, so the
solves' bits do not depend on the route; the loader does depend on scipy's
installed file layout, and raises ImportError where it differs.  No run
imports ``scipy.linalg`` or ``scipy.sparse``.  Every CSV artifact goes
through ``write_csv``, which formats a block of rows with one ``%``, and
every JSON artifact through ``write_json``, which serialises a report from
its fields.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import math
import sys
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

import numpy as np
import scipy

from .errors import (ConvergenceError, EnvelopeViolationError, GridError,
                     LevelNotCrossedError)
from .model import ModelParams, StateVec, jacobian, reaction

__all__ = [
    "Grid",
    "Profile",
    "make_grid",
    "half_line",
    "require_m_matrix",
    "stencil_coefficients",
    "apply_advection_diffusion",
    "stencil_bands",
    "residual",
    "linearization_bands",
    "monotone_interpolant",
    "level_crossing",
    "least_squares_line",
    "write_csv",
    "write_json",
    "save_profile",
]

# Newton steps allowed per attempt before the sweeps take over again
NEWTON_MAX_STEPS = 20
# slack of the envelope check on every accepted iterate
ENVELOPE_SLACK = 1e-12
# the smallest step fraction a damped Newton step may reach
DAMPING_FLOOR = 2.0**-30
# sweeps allowed per front solve, scalar or vector
SWEEP_MAX_ITER = 20000
# CSV rows formatted and written at a time
_CSV_BLOCK = 1024


def _load_lapack():
    """scipy's compiled LAPACK module ``_flapack``, loaded from the
    installed ``scipy/linalg`` directory without running that package's
    ``__init__``.

    Top-level ``scipy`` is imported first: on wheel installs its
    ``__init__`` sets up the paths of the bundled libraries the extension
    links against.  CPython files a single-phase extension in sys.modules
    under its name as it creates it; the entry there before the load, or
    its absence, is put back, so a later ``import scipy.linalg`` loads as
    it would have.  That load finds the extension's cached module
    definition and holds the same routine objects as this one.
    """
    name = "scipy.linalg._flapack"
    where = Path(scipy.__file__).parent / "linalg"
    spec = importlib.machinery.FileFinder(
        str(where), (importlib.machinery.ExtensionFileLoader,
                     importlib.machinery.EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no LAPACK extension _flapack in {where} "
                          f"(scipy {scipy.__version__})")
    held = sys.modules.get(name)
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        if held is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = held
    return module


_lapack = _load_lapack()
# the banded routines: dgtsv and dgbsv of the front solves, dgbtrf and
# dgbtrs of the eigensolve, dpttrf and dpttrs of the time steps
dgbsv, dgtsv = _lapack.dgbsv, _lapack.dgtsv
dgbtrf, dgbtrs = _lapack.dgbtrf, _lapack.dgbtrs
dpttrf, dpttrs = _lapack.dpttrf, _lapack.dpttrs


@dataclass(frozen=True)
class Grid:
    """n nodes of spacing h between two end knots.  On the full line the
    ends are the Dirichlet knots -L and L; a ``half_line`` grid holds the
    nodes at x >= 0, and its left end is the mirror row.

    Grids compare and hash by (L, n, h, mirror), which fix the nodes; h
    tells apart the half lines of the full grids with n = 2m - 1 and
    n = 2m, which share L, m and the mirror."""

    L: float
    n: int
    h: float
    nodes: np.ndarray = field(compare=False)
    mirror: bool = False

    @property
    def mirror_row(self) -> int | None:
        """On a half line, the row whose value the left ghost repeats: 1
        when node 0 sits at x = 0 (the ghost at -h is u(h)), 0 when it sits
        at h/2 (the ghost at -h/2 is u(h/2) itself); None on the full line."""
        if not self.mirror:
            return None
        return 1 if self.nodes[0] == 0.0 else 0

    @property
    def first_cell(self) -> float:
        """The share of a cell node 0 owns: 1/2 on a half line with a node
        at x = 0, whose row ``stencil_bands`` halves; 1 otherwise."""
        return 0.5 if self.mirror_row == 1 else 1.0

    @property
    def knots(self) -> np.ndarray:
        """The nodes with the two end knots: [-L, nodes..., L]; on a half
        line the left one is the mirror ghost's position."""
        left = (-self.L if self.mirror_row is None
                else -self.nodes[self.mirror_row])
        return np.concatenate(([left], self.nodes, [self.L]))


def make_grid(L: float, n: int) -> Grid:
    """Uniform grid with n interior nodes on [-L, L], spacing h = 2L/(n+1).
    An n that is not a Python or numpy integer, or is below 3, raises
    GridError."""
    if not 0.0 < L < math.inf:
        raise GridError(f"half-length must be positive and finite, got {L}")
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise GridError(f"need an integer count of at least 3 interior "
                        f"nodes, got {n!r}")
    h = 2.0 * L / (n + 1)
    nodes = -L + h * np.arange(1, n + 1)
    return Grid(L=float(L), n=int(n), h=h, nodes=nodes)


def half_line(g: Grid) -> Grid:
    """The nodes of the full grid ``g`` at x >= 0 with a mirror row at
    x = 0, for a solution even in x.

    With odd n a node sits at x = 0 and the nodes are j h; with even n they
    are (j + 1/2) h.  Either way the last one is L - h.  They are built
    exactly: ``make_grid``'s nodes are symmetric only to ~3e-14.
    """
    m = (g.n + 1) // 2
    offset = 0.0 if g.n % 2 else 0.5
    return Grid(L=g.L, n=m, h=g.h, nodes=g.h * (np.arange(m) + offset),
                mirror=True)


@dataclass(frozen=True)
class Profile:
    """Two-component field at the grid's knots: ``knots`` has shape (n+2, 2),
    column 0 = u; rows 0 and -1 are the Dirichlet data at -L and +L.

    A profile carries its whole front problem: the grid, the speed ``c`` and
    the model ``params``.  It is built once, where the problem is first
    stated; a profile derived from it is ``dataclasses.replace(parent,
    knots=...)``, so the three carry over unchanged.

    ``x0`` is the phase origin: the profile's abscissae are
    xi = grid.knots - x0.  ``wave.normalize_phase`` sets it, and its only
    readers in the package are ``wave.fit_decay``, ``save_profile`` and
    ``dynamics.perturb``, which centres its bumps at xi = 0; the solves,
    the spectrum and the time runs work on the grid's own knots, on the
    solved front, whose x0 is 0."""

    grid: Grid
    knots: np.ndarray
    c: float
    params: ModelParams
    x0: float = 0.0

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
    # (fl - 2 f + fr) / h^2 - c (fr - fl) / (2h), operation by operation in
    # that order, in two buffers
    out = np.multiply(2.0, f[1:-1])
    np.subtract(fl, out, out=out)
    out += fr
    out /= g.h**2
    drift = np.subtract(fr, fl)
    np.multiply(c, drift, out=drift)
    drift /= 2.0 * g.h
    out -= drift
    return out


def stencil_bands(g: Grid, c: float, scale: float, diag) -> np.ndarray:
    """LAPACK (1, 1) bands of scale*T + diag(d) on the interior samples;
    the Dirichlet data enter through ``_ghost_rows``.

    On a half line the mirror row closes the left end.  A node at x = 0
    reads its ghost u(-h) = u(h), so row 0's upper entry gains lo, and
    the row is halved, since that node owns half a cell: the bands stay
    symmetric, and a caller scales row 0 of its right-hand side by
    ``g.first_cell``.  A first node at h/2 is its own mirror image, so its
    diagonal gains lo.  Only T at c = 0 keeps a solution even.
    """
    lo, hi = stencil_coefficients(g, c)
    ab = np.zeros((3, g.n))
    ab[0, 1:] = scale * hi
    ab[1, :] = diag - 2.0 * scale / g.h**2
    ab[2, :-1] = scale * lo
    if g.mirror:
        if c != 0:
            raise GridError(f"a half line holds only even solutions, which "
                            f"the frame speed c = {c:g} does not keep")
        if g.mirror_row == 1:
            ab[0, 1] = g.first_cell * (ab[0, 1] + scale * lo)
            ab[1, 0] *= g.first_cell
        else:
            ab[1, 0] += scale * lo
    return ab


def _ghost_rows(g: Grid, c: float, left, right) -> tuple:
    """T's Dirichlet ghost terms, the only right-hand side rows they touch:
    (lo*left, hi*right), for rows 0 and n-1, each of the shape of its end
    row.  On a half line the left ghost lies in ``stencil_bands``, and the
    left term is 0.0.  The front solves' sweep and the time steps add the
    two rows alone: the ghost term of every row between is zero."""
    lo, hi = stencil_coefficients(g, c)
    ghost_left = 0.0 if g.mirror else lo * np.asarray(left, dtype=float)
    return ghost_left, hi * np.asarray(right, dtype=float)


def residual(prof: Profile) -> np.ndarray:
    """Nodewise residual of the wave system, shape (n, 2).

    Column j is u_j'' - c u_j' + F_j(u, v) evaluated with the profile's own
    Dirichlet data; identically zero exactly when the profile solves the
    discretized system.
    """
    lin = apply_advection_diffusion(prof.grid, prof.c, prof.knots)
    lin += reaction(prof.params, StateVec(prof.u, prof.v)).T
    return lin


def linearization_bands(prof: Profile, g1=0.0, g2=0.0,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Banded V'' - (2 g1 + c) V' + M(xi) V with Dirichlet ends, shape (5, 2n).

    M(xi) = (2 g1^2 - g2 + c g1) I + dF/dU evaluated along the profile; g1, g2
    are the weight's logarithmic-derivative pair (scalars or per node).  At
    g1 = g2 = 0 this is the Jacobian of ``residual`` with respect to the
    interior samples.  Components are interleaved (u_1, v_1, u_2, v_2, ...),
    keeping the five diagonals at offsets -2..2, stored in LAPACK banded
    order: row d holds offset 2 - d.

    The bands are written into ``out`` when one is given (any (5, 2n) float
    array, strided views included, such as rows 2.. of a dgbsv workspace)
    and returned.  Every entry is written, the zeros outside the bands too,
    so whatever ``out`` held before, a previous LU factorisation included,
    does not show.
    """
    g, c = prof.grid, prof.c
    h, n = g.h, g.n
    g1 = np.broadcast_to(np.asarray(g1, dtype=float), (n,))
    g2 = np.broadcast_to(np.asarray(g2, dtype=float), (n,))
    shift = 2.0 * g1**2 - g2 + c * g1
    left, right = stencil_coefficients(g, 2.0 * g1 + c)

    bands = np.empty((5, 2 * n)) if out is None else out
    if bands.shape != (5, 2 * n):
        raise GridError(f"band array must have shape (5, {2 * n})")
    # dF/dU is written straight into its entries: A[i, j] at node m sits in
    # row 2 - j + i, column 2m + j, so A is a strided view of the bands
    row, col = bands.strides
    A = np.lib.stride_tricks.as_strided(
        bands[2:], shape=(2, 2, n), strides=(row, col - row, 2 * col))
    jacobian(prof.params, StateVec(prof.u, prof.v), out=A)
    # offset 0: diagonal = -2/h^2 + shift + A_jj
    diag = -2.0 / h**2 + shift
    A[0, 0] += diag
    A[1, 1] += diag
    # offset +1: (u_i -> v_i) coupling A12 on even rows; odd rows are
    # (v_i -> u_{i+1}) and zero
    bands[1, 0::2] = 0.0
    # offset -1: A21 on odd rows; even rows (u_{i+1} -> v_i) are zero
    bands[3, 1::2] = 0.0
    # offset +2: right neighbor, same component; the first two entries lie
    # outside the matrix
    bands[0, :2] = 0.0
    bands[0, 2::2] = right[:-1]
    bands[0, 3::2] = right[:-1]
    # offset -2: left neighbor; the last two entries lie outside the matrix
    bands[4, 0:-2:2] = left[1:]
    bands[4, 1:-2:2] = left[1:]
    bands[4, -2:] = 0.0
    return bands


def _banded_solve(l_and_u, ab, b, overwrite_b=False):
    """The solution of the banded system with bands ``ab`` and right-hand
    side ``b``, (n,) or (n, k), by the LAPACK routine
    ``scipy.linalg.solve_banded`` calls, without its copies and finiteness
    scans: the same routine on the same values, so the same bits.

    (1, 1): ``ab`` holds the three bands, shape (3, n), and dgtsv works on
    a copy of them, so ``ab`` does not change; ``b`` does not either,
    unless ``overwrite_b`` is set and ``b`` is Fortran-contiguous, when
    dgtsv overwrites it with the solution.  (l, u) otherwise: ``ab``
    is a (2l + u + 1, n) workspace, Fortran-ordered so that LAPACK takes it
    as it is, whose rows l.. hold the bands in ``solve_banded``'s order;
    rows 0..l-1 are the LU factors' fill, which dgbsv does not read on
    entry.  dgbsv factors ``ab`` in place and overwrites ``b`` (when it is
    contiguous) with the solution.  A zero pivot raises ConvergenceError,
    and a non-finite value is not checked for: it spreads into the result.
    """
    l, u = l_and_u
    if l == u == 1:
        *_, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b,
                            overwrite_b=overwrite_b)
    else:
        *_, x, info = dgbsv(l, u, ab, b, overwrite_ab=1, overwrite_b=1)
    if info:
        raise ConvergenceError(
            f"banded ({l}, {u}) solve: zero pivot in row {info}")
    return x


def _shifted_sweep(g: Grid, c: float, F, diag, left, right, solve):
    """The monotone sweep U -> (beta - T)^-1 (F(U) + beta U), Dirichlet data
    ``left`` and ``right`` entering as T's two ghost rows; returns
    (beta, sweep).

    The shift beta = 1 + max(0, -min(diag)) is one above the largest
    negative Jacobian diagonal over the caller's box samples ``diag``, so
    F(U) + beta U is monotone in U there.  ``solve`` is the caller's banded
    solver, called as solve((1, 1), bands, rhs, overwrite_b=True): each
    sweep builds its right-hand side in Fortran order, and the solution
    takes its place.  The ghost terms are ``_ghost_rows``, added to rows 0
    and n-1 alone.
    """
    beta = 1.0 + max(0.0, float(-np.min(diag)))
    ab = stencil_bands(g, c, -1.0, beta)
    ghost_left, ghost_right = _ghost_rows(g, c, left, right)

    def sweep(U):
        rhs = np.add(F(U), beta * U, order="F")
        rhs[0] += ghost_left
        rhs[-1] += ghost_right
        return solve((1, 1), ab, rhs, overwrite_b=True)
    return beta, sweep


def _gap(V, envelope) -> float:
    """min(min(upper - V), min(V - lower)): negative when V leaves the
    envelope (lower, upper); NaN when V holds one."""
    lower, upper = envelope
    return min(float(np.min(upper - V)), float(np.min(V - lower)))


def _damped(U, dU, envelope, fits=None):
    """The first step fraction lam = 1, 1/2, 1/4, ... not below
    DAMPING_FLOOR whose iterate U + lam dU stays inside ``envelope`` to
    within ENVELOPE_SLACK and passes ``fits(lam)``: (lam, U + lam dU), or
    None when there is none.  Every test fails on a NaN."""
    lam = 1.0
    while lam >= DAMPING_FLOOR:
        Un = U + lam * dU
        if (_gap(Un, envelope) >= -ENVELOPE_SLACK
                and (fits is None or fits(lam))):
            return lam, Un
        lam /= 2.0
    return None


def _sweep_newton(sweep, newton, U, envelope, tol, callback=None):
    """Monotone sweeps ``U -> sweep(U)`` accelerated by Newton corrections
    ``U -> U + newton(U)``, inside ``envelope = (lower, upper)`` (scalars or
    arrays shaped like U); returns (U, sup_diffs, newton_steps).

    An iterate leaves the envelope when min(upper - U) or min(U - lower) is
    below -ENVELOPE_SLACK.  A Newton attempt follows sweeps 1, 2, 4, 8, ...;
    ``newton=None`` makes none.  Each correction is halved by ``_damped``
    until its iterate stays in the envelope.  An attempt stops after a full
    step below ``tol``, or drops the first correction that does not shrink
    or cannot be damped inside the envelope, and the sweeps resume.  A sweep
    that leaves the envelope raises EnvelopeViolationError, and one whose
    sup-diff is not finite raises ConvergenceError at once.  Only a sweep
    whose sup-diff is below ``tol`` converges: a fixed point of the
    monotone map inside the envelope is the solution, however the iterate
    got there.  Every accepted iterate goes to ``callback(k, U)``, k
    counting sweeps and Newton steps together; ``newton_steps`` holds the
    sup-norm of each accepted (damped) step.  After SWEEP_MAX_ITER sweeps
    without convergence it raises ConvergenceError.
    """
    callback = callback or (lambda k, U: None)
    sup_diffs: list[float] = []
    newton_steps: list[float] = []
    newton_at = 1
    for it in range(1, SWEEP_MAX_ITER + 1):
        Un = sweep(U)
        d = float(np.max(np.abs(Un - U)))
        sup_diffs.append(d)
        if not math.isfinite(d):
            raise ConvergenceError(f"sweep {it} is not finite (sup-diff {d})")
        env = _gap(Un, envelope)
        if env < -ENVELOPE_SLACK:
            raise EnvelopeViolationError(
                f"iterate {it} left the envelope by {-env:.3e}")
        # U alone holds the iterate, so the Newton step that replaces it
        # frees it
        U = Un
        del Un
        callback(len(sup_diffs) + len(newton_steps), U)
        if d < tol:
            return U, sup_diffs, newton_steps
        if newton is not None and it == newton_at:
            newton_at *= 2
            prev = math.inf
            for _ in range(NEWTON_MAX_STEPS):
                dU = newton(U)
                size = float(np.max(np.abs(dU)))
                step = _damped(U, dU, envelope) if size < prev else None
                # the correction is spent: the next one is built without it
                del dU
                if step is None:
                    break
                lam, U = step
                prev = size
                newton_steps.append(lam * size)
                callback(len(sup_diffs) + len(newton_steps), U)
                if lam == 1.0 and size < tol:
                    break
    raise ConvergenceError(
        f"sweeps did not reach tol={tol} in {SWEEP_MAX_ITER} sweeps (last "
        f"sup-diff {sup_diffs[-1]:.3e})")


def monotone_interpolant(xs, ys) -> tuple:
    """PCHIP interpolant of values ys, (m,) or (m, 2), at increasing knots
    xs, (m,), m >= 3: the coefficients (c0, c1, c2, c3) of the cubic
    c0 s^3 + c1 s^2 + c2 s + c3, s = x - xs[i], on [xs[i], xs[i+1]].
    An interior segment reads only the knots i - 1 .. i + 2, so the four
    knots around it give it to the last bit.

    The slopes are Fritsch & Butland's weighted harmonic means (zero at a
    sign change or flat segment) with shape-preserving one-sided three-point
    end slopes, computed in the order scipy's PCHIP uses, so the
    interpolant is scipy's to the last bit.
    """
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
    return t / hx, (m - d[:-1]) / hx - t, d[:-1], ys[:-1]


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
    bracketing cubic segment, built from the (at most) four knots around it
    as ``monotone_interpolant`` allows, is bisected until the midpoint is an
    endpoint; a level that equals a knot value returns that knot exactly.
    Values that are not the grid's n+2 knots, such as the n interior
    samples alone, raise GridError."""
    ys = np.asarray(ys, dtype=float)
    if len(ys) != g.n + 2:
        raise GridError("knot array must have the grid's n+2 rows")
    if not (ys.min() < level < ys.max()):
        raise LevelNotCrossedError(f"profile does not cross {level} on the domain")
    i = int(np.nonzero(ys >= level)[0][0])
    if i == 0:
        raise LevelNotCrossedError(f"profile does not cross {level} upward")
    xs = g.knots
    if ys[i] == level:
        return float(xs[i])
    x_lo = lo = float(xs[i - 1])
    hi = float(xs[i])
    # knots i-2 .. i+1, cut at either end, where the end slope rule is the
    # full interpolant's own
    j = max(i - 2, 0)
    seg = [float(a[i - 1 - j])
           for a in monotone_interpolant(xs[j:i + 2], ys[j:i + 2])]

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


def least_squares_line(x, y, error) -> tuple[float, float, float]:
    """The least-squares line y ~ slope x + intercept through the points
    (x, y), and its r^2: (slope, intercept, r2).

    Centred sums give it in closed form, slope = sum(dx dy) / sum(dx^2)
    and intercept = mean(y) - slope mean(x), where dx = x - mean(x) and
    dy = y - mean(y); r2 = 1 - sum((dy - slope dx)^2) / sum(dy^2), and 1
    where every dy is zero.  Only ufunc reductions run, no BLAS or LAPACK
    call.  Fewer than two distinct x raise ``error``, the caller's
    exception type.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (len(x) and x.max() > x.min()):
        raise error(f"a line needs two distinct abscissae, got "
                    f"{np.unique(x).size} among {len(x)} samples")
    xm, ym = x.mean(), y.mean()
    dx, dy = x - xm, y - ym
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    ss_tot = float(np.sum(dy * dy))
    ss_res = float(np.sum((dy - slope * dx) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, float(ym - slope * xm), r2


def write_csv(path, header: str, *columns) -> None:
    """Write equal-length numeric columns as CSV rows under ``header``,
    creating the parent directory; values are written with 17 significant
    digits so a round trip is bit-faithful.
    The rows are formatted and written _CSV_BLOCK at a time, so the memory
    the writer holds does not grow with the row count.  A block of m rows
    is one ``%`` of the row format repeated m times over the block's
    values, read row by row."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    nrows = min((len(col) for col in columns), default=0)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(header + "\n")
        for start in range(0, nrows, _CSV_BLOCK):
            stop = min(start + _CSV_BLOCK, nrows)
            block = np.column_stack([np.asarray(col[start:stop], dtype=float)
                                     for col in columns])
            f.write(row * (stop - start) % tuple(block.ravel().tolist()))


def _jsonable(obj):
    """JSON form of what ``json`` does not know: a dataclass by its fields,
    an array by its values, a complex number as [re, im]."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return asdict(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot write a {type(obj).__name__} as JSON")


def write_json(path, payload) -> None:
    """Write payload as JSON with sorted keys, creating the parent directory;
    floats keep their shortest round-trip repr, so identical values give
    identical bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               allow_nan=True, default=_jsonable) + "\n")


def save_profile(prof: Profile, csv_path) -> None:
    """Write a profile as CSV ``xi,u,v``, one row per knot, and a JSON
    metadata sidecar (suffix .json) recording its problem and origin, the
    keys alpha, k, c, L, n and x0; no package function reads either back.
    The u and v columns are the knot values as they are, the first and last
    rows the Dirichlet data; xi is the knots less the phase origin,
    grid.knots - x0.  A run's weights are no part of its front: they stay in
    the ``config`` echo of the reports that use them."""
    csv_path = Path(csv_path)
    g = prof.grid
    write_csv(csv_path, "xi,u,v", g.knots - prof.x0, prof.knots[:, 0],
              prof.knots[:, 1])

    write_json(csv_path.with_suffix(".json"), {
        "alpha": prof.params.alpha, "k": prof.params.k, "c": prof.c,
        "L": g.L, "n": g.n, "x0": prof.x0})
