"""Essential-spectrum geometry, weighted-operator assembly, eigensolves.

The weight e^{s1*xi} + e^{-s2*xi} conjugates the linearization about the
front into an operator whose far-field symbols are the shifted matrices

    M+ = [[s1^2+c*s1-alpha, 0], [1-k, s1^2+c*s1-1]]            (xi -> +inf)
    M- = [[s2^2-c*s2-(1-alpha)(1-k+k*alpha), 1-alpha],
          [0, s2^2-c*s2+alpha]]                                 (xi -> -inf)

whose diagonal entries are the four parabola vertices bounding the essential
spectrum.  For weights inside the admissible window all four are negative.

The weight overflows float64 on long domains, so it is evaluated once, as
its log (``log_weight``), under every weighted magnitude; the operator
reads only its log-derivatives W'/W and W''/W, bounded functions of
tanh((s1 + s2) xi / 2) (``weight_functions``).

The eigensolve is a shift-invert band Arnoldi written here on LAPACK's
banded LU (dgbtrf and dgbtrs, from ``grid``), its dense eigensolver
(dgeev, for the small projected matrix) and numpy products: the basis
starts from the two component indicators, and each new vector is the
image of the vector two places back, orthogonalised against all before
it.  No eigensolver package is imported, and no run calls
``numpy.linalg`` or numpy's matrix-matrix product, whose dense code would
be paged into ``eigs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConvergenceError, DegenerateWeightError, EmptyWindowError,
                     ParameterError)
from .grid import (Grid, Profile, dgbtrf, dgbtrs, dgeev, linearization_bands,
                   residual)
from .model import (ModelParams, StateVec, jacobian, reaction,
                    subcritical_verdict)

__all__ = [
    "WeightPair",
    "WeightWindow",
    "OperatorMatrix",
    "SpectrumReport",
    "TranslationModeReport",
    "weight_window",
    "branch_vertices",
    "essential_spectrum_max",
    "spectrum_curves",
    "log_weight",
    "weight_functions",
    "assemble_weighted_operator",
    "check_count",
    "eigen_report",
    "translation_mode_check",
    "make_spectrum_report",
]

OUTER_FRACTION = 0.10   # outer share of the domain in the boundary mass
CURVE_Y_MAX = 2.0       # reported curves span |Im| <= CURVE_Y_MAX ...
CURVE_SAMPLES = 101     # ... in this many samples per branch
# Krylov basis vectors one eigensolve may build
ARNOLDI_MAX_BASIS = 500


@dataclass(frozen=True)
class WeightPair:
    sigma1: float = 0.0
    sigma2: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.sigma1 < math.inf
                and 0.0 <= self.sigma2 < math.inf):
            raise ParameterError(
                "weight exponents must be nonnegative and finite")


@dataclass(frozen=True)
class WeightWindow:
    """Admissible exponent ranges: sigma1 in [0, s1max), sigma2 in (s2min, s2max)."""

    sigma1_max: float
    sigma2_min: float
    sigma2_max: float

    def contains(self, w: WeightPair) -> bool:
        return (0.0 <= w.sigma1 < self.sigma1_max
                and self.sigma2_min < w.sigma2 < self.sigma2_max)


def weight_window(p: ModelParams, c: float) -> WeightWindow:
    """Exponent window in which the weighted essential spectrum is negative."""
    v = subcritical_verdict(p, c)
    if v.verdict != "SupercriticalAdmissible":
        raise EmptyWindowError(f"speed {c} at or below critical {p.cmin}: "
                               "sigma2 interval is empty")
    return WeightWindow(sigma1_max=-v.plus_inf_root,
                        sigma2_min=v.roots[0].real, sigma2_max=v.roots[1].real)


def branch_vertices(p: ModelParams, c: float, w: WeightPair) -> np.ndarray:
    """The four parabola vertices, ordered (+inf pair, -inf pair)."""
    q1 = w.sigma1**2 + c * w.sigma1
    q2 = w.sigma2**2 - c * w.sigma2
    return np.array([
        q1 - p.alpha,
        q1 - 1.0,
        q2 - (1.0 - p.alpha) * p.d,
        q2 + p.alpha,
    ])


def essential_spectrum_max(p: ModelParams, c: float,
                           w: WeightPair) -> tuple[float, np.ndarray]:
    """Max real part of the weighted essential spectrum and the four vertices."""
    v = branch_vertices(p, c, w)
    return float(np.max(v)), v


def spectrum_curves(p: ModelParams, c: float, w: WeightPair, y_max: float,
                    samples: int) -> list[dict]:
    """Sampled spectral parabolas x(y) = -y^2/den + vertex per branch.

    Branches 1, 2 use den = (2*sigma1+c)^2; branches 3, 4 use
    den = (-2*sigma2+c)^2.  At zero weights this reproduces the unweighted
    curves with den = c^2.
    """
    if samples < 2:
        raise ParameterError("need at least 2 curve samples")
    if abs(2.0 * w.sigma2 - c) < 1e-14:
        raise DegenerateWeightError(
            "2*sigma2 equals c: the -inf branches degenerate to a vertical line"
        )
    verts = branch_vertices(p, c, w)
    dens = [(2.0 * w.sigma1 + c) ** 2] * 2 + [(-2.0 * w.sigma2 + c) ** 2] * 2
    y = np.linspace(-y_max, y_max, samples)
    return [
        {"branch": i + 1, "y": y, "x": -(y**2) / dens[i] + verts[i]}
        for i in range(4)
    ]


def log_weight(w: WeightPair, xi: np.ndarray) -> np.ndarray:
    """log of the weight e^{s1*xi} + e^{-s2*xi}, finite for every xi: the
    one evaluation of the weight, which overflows in float64 where its log
    does not."""
    return np.logaddexp(w.sigma1 * xi, -w.sigma2 * xi)


def exp_or_inf(x: float) -> float:
    """e^x for a magnitude formed in logs: inf from x = 709 on, just short
    of float64's largest value e^709.78, so it never overflows; NaN stays
    NaN."""
    return math.inf if x >= 709.0 else math.exp(x)


def weight_functions(w: WeightPair, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logarithmic-derivative pair (g1, g2) = (W'/W, W''/W) of the weight W,
    in closed form.

    The two exponentials of W hold the shares (1 + t)/2 and (1 - t)/2 of
    it, t = tanh((s1 + s2) xi / 2), so g1 = ((s1 - s2) + (s1 + s2) t)/2 and
    g2 = ((s1^2 + s2^2) + (s1^2 - s2^2) t)/2.  tanh cannot overflow, and
    zero weights give g1 = g2 = 0 exactly.
    """
    s1, s2 = w.sigma1, w.sigma2
    t = np.tanh(0.5 * (s1 + s2) * xi)
    return (0.5 * ((s1 - s2) + (s1 + s2) * t),
            0.5 * ((s1**2 + s2**2) + (s1**2 - s2**2) * t))


@dataclass(frozen=True)
class OperatorMatrix:
    """Banded discretization of the weighted linearization, size 2n x 2n.

    Components are interleaved (u_1, v_1, u_2, v_2, ...), keeping the five
    diagonals at offsets -2..2.  ``bands`` stores them in LAPACK banded
    order, row d holding offset 2 - d.
    """

    bands: np.ndarray         # (5, 2n)
    grid: Grid

    @property
    def size(self) -> int:
        return self.bands.shape[1]

    def to_dense(self) -> np.ndarray:
        """The full matrix: band row d holds offset o = 2 - d, indexed by
        column, A[j - o, j] = bands[d, j]."""
        N = self.size
        dense = np.zeros((N, N))
        for d in range(5):
            o = 2 - d
            j = np.arange(max(o, 0), N + min(o, 0))
            dense[j - o, j] = self.bands[d, j]
        return dense


def assemble_weighted_operator(prof: Profile, w: WeightPair) -> OperatorMatrix:
    """Discretize V'' - (2 g1 + c) V' + M(xi) V with Dirichlet ends.

    M(xi) = (2 g1^2 - g2 + c g1) I + dF/dU evaluated along the profile.  At
    zero weights this is exactly the discretized unweighted linearization,
    the Jacobian of the wave solver's Newton steps.
    """
    g1, g2 = weight_functions(w, prof.grid.nodes)
    return OperatorMatrix(linearization_bands(prof, g1, g2), prof.grid)


def _gershgorin_right_edge(m: OperatorMatrix) -> float:
    """Upper bound on real parts: max over rows of diag + off-diagonal radius."""
    edge = m.bands[2].copy()
    for d in (4, 3, 1, 0):
        o = 2 - d                         # A[j - o, j] sits at bands[d, j]
        j = np.arange(max(o, 0), m.size + min(o, 0))
        edge[j - o] += np.abs(m.bands[d, j])
    return float(np.max(edge))


def check_count(count: int, size: int) -> None:
    """Refuse a count outside [1, size - 2], or one that the capped basis
    cannot certify: the convergence test needs a basis larger than
    max(count, 8) vectors, and the basis stops at ARNOLDI_MAX_BASIS.  A
    count below the cap but above half of it is admitted and may still
    raise ConvergenceError: at the base configuration 300 converges at
    n = 400 and fails at n = 1000, where 260 converges."""
    top = min(size - 2, ARNOLDI_MAX_BASIS - 1)
    if not 1 <= count <= top:
        raise ParameterError(f"eigenvalue count {count} outside [1, {top}] "
                             f"for an operator of size {size} and a basis "
                             f"capped at {ARNOLDI_MAX_BASIS} vectors")


def _fresh_direction(basis: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """The unit vector farthest from the span of ``basis`` (orthogonal rows
    of squared norms ``sq``), orthogonalised against it twice and
    normalised: the fixed continuation of a Krylov basis that has become
    invariant."""
    reach = (basis * basis).T @ (1.0 / sq)
    e = np.zeros(basis.shape[1])
    e[np.argmin(reach)] = 1.0
    for _ in range(2):
        e -= ((basis @ e) / sq) @ basis
    return e / math.sqrt(e @ e)


def _eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``numpy.linalg.eig`` of the real square matrix ``a``, through
    LAPACK's dgeev: the eigenvalues and the unit right eigenvectors, one
    per column, both real when every eigenvalue is.  Otherwise both are
    complex, and a conjugate pair sits in adjacent columns, the one of
    positive imaginary part first, its vector vr[:, j] + i vr[:, j+1] in
    column j and the conjugate in column j + 1.  The workspace is the
    optimal one of LAPACK's query, as numpy's: its size picks blocked or
    unblocked steps, so with another the bits would differ from numpy's."""
    # dgeev overwrites its matrix
    wr, wi, vr, info = dgeev(np.array(a, order="F"))
    if info:
        raise ConvergenceError(f"dgeev: the QR algorithm left {info} "
                               f"eigenvalues of {len(wr)} unconverged")
    if not wi.any():
        return wr, vr
    j = np.flatnonzero(wi > 0.0)
    y = vr.astype(complex)
    y[:, j] += 1j * vr[:, j + 1]
    y[:, j + 1] = y[:, j].conj()
    return wr + 1j * wi, y


def _shift_invert_arnoldi(m: OperatorMatrix, sigma: float,
                          k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k eigenvalues theta of largest magnitude of B = (A - sigma I)^-1
    and their Ritz vectors, one per row: (theta, vecs).

    dgbtrf factors A - sigma I once, in the (2, 2) band workspace of the
    Newton steps.  The basis starts from the two component indicators,
    ones on the u rows and ones on the v rows, and grows as a band
    Arnoldi of width two: one dgbtrs, bound once to the image buffer,
    maps v_j through B, and classical Gram-Schmidt against every basis
    vector so far, repeated once when the first pass cancels more than
    rounding, turns the image into v_{j+2}, so that H = V^T B V is
    Hessenberg with two subdiagonals.  A
    coefficient is <v_i, w> / <v_i, v_i>, the diagonal one formed with
    the dot that gave <v_i, v_i>: an image B v_i = theta v_i gives
    theta's own ratio.

    When what is left of an image is within the rounding of its projection
    (N eps of |B v_j|), the basis holds an invariant subspace: H keeps
    only the coefficients above that level, zero below it, and the basis
    goes on from ``_fresh_direction``.  The Ritz values, the eigenvalues
    of H (``_eig``, LAPACK's dgeev), are accepted when each of the k
    largest has residual |B x - theta x| at most eps |theta|, eps the
    float64 machine epsilon (the precision ARPACK was asked for), and at
    once when the basis fills the space, where they are exact.  An
    eigensolve of H costs the cube of the basis size, so the test runs at
    sizes that grow geometrically from max(2k + 2, 20): by half, or by
    less, down to an eighth, where the residuals' decay between the last
    two tests predicts eps sooner.  A basis of ARNOLDI_MAX_BASIS vectors
    that has not converged raises ConvergenceError.

    The storage grows with the test schedule: V, H and the squared norms
    hold the rows of the next test size and two more, and a failed test
    moves them into arrays sized for the test after it, copying only the
    rows and columns written so far.  The Ritz vectors Y^T V are formed
    from Re Y and Im Y against the real basis, one real product when Y is
    real, so the basis is never copied to complex.  These products and the
    residuals' are ``einsum``s, which call no BLAS: numpy's matrix-matrix
    product would page OpenBLAS's level-3 code into the run.
    """
    N = m.size
    work = np.empty((7, N), order="F")
    work[2:] = m.bands
    work[4] -= sigma
    piv, info = dgbtrf(work, 2, 2)
    if info:
        raise ConvergenceError(f"A - sigma I is singular: zero pivot in row "
                               f"{info}")

    eps = np.finfo(float).eps
    M = min(N, ARNOLDI_MAX_BASIS)
    test_at, last = min(M, max(2 * k + 2, 20)), None
    V = np.empty((test_at + 2, N))             # a row is written, then read
    H = np.zeros((test_at + 2, test_at))
    sq = np.ones(test_at + 2)
    V[:2] = 0.0
    V[0, 0::2] = V[1, 1::2] = 1.0 / math.sqrt(N // 2)
    sq[:2] = V[0] @ V[0], V[1] @ V[1]
    tiny = (N * eps) ** 2
    w = np.empty(N)                 # B v_j, solved in place
    substitute = dgbtrs(work, 2, 2, w, piv)
    for j in range(M):
        new = j + 2                            # the row B v_j becomes
        basis = V[:min(new, N)]                # a full space has no row N
        w[...] = V[j]
        substitute()
        noise = tiny * (w @ w)                 # squared
        h = basis @ w
        h[j] = V[j] @ w
        h /= sq[:len(h)]
        w -= h @ basis
        if w @ w > noise:
            again = (basis @ w) / sq[:len(h)]
            w -= again @ basis
            h += again
        beta2 = w @ w
        if beta2 <= noise:
            h[h * h <= noise] = 0.0
        H[:len(h), j] = h
        if new < N:
            if beta2 > noise:
                H[new, j] = beta = math.sqrt(beta2)
                np.divide(w, beta, out=V[new])
            else:
                V[new] = _fresh_direction(V[:new], sq[:new])
            sq[new] = V[new] @ V[new]

        size = j + 1
        if size < test_at:
            continue
        theta, Y = _eig(H[:size, :size])
        want = np.argsort(-np.abs(theta), kind="stable")[:k]
        theta, Y = theta[want], Y[:, want]
        # B V y - theta V y is H y on the two vectors past the basis
        r = np.einsum("ij,jk->ik", H[size:size + 2, :size], Y)
        resid = np.sqrt(np.add.reduce((r.conj() * r).real, axis=0))
        if size > k and np.all(resid <= eps * np.abs(theta)):
            # real products: a complex Y would take a complex copy of V
            vecs = np.einsum("jk,jn->kn", Y.real, V[:size])
            if np.iscomplexobj(Y):
                vecs = vecs + 1j * np.einsum("jk,jn->kn", Y.imag, V[:size])
            return theta, vecs
        # the residuals fall about geometrically in the basis size
        worst = float(np.max(resid / np.abs(theta))) / eps
        grow = size // 2
        if last is not None and worst < last[1]:
            rate = math.log(last[1] / worst) / (size - last[0])
            grow = min(grow, max(size // 8, math.ceil(math.log(worst) / rate)))
        last = (size, worst)
        test_at = min(M, size + grow)
        if size < test_at:
            # room up to the next test; only the rows written so far move
            rows, more = min(size + 2, N), test_at - size
            grown = np.empty((test_at + 2, N))
            grown[:rows] = V[:rows]
            V = grown
            H = np.pad(H, (0, more))
            sq = np.pad(sq, (0, more), constant_values=1.0)
    done = int(np.sum(resid <= eps * np.abs(theta)))
    worst = float(np.max(resid / np.abs(theta)))
    raise ConvergenceError(
        f"shift-invert Arnoldi: {k - done} of {k} Ritz values short of "
        f"relative residual {eps:.1e} with the basis at its cap of {M} "
        f"vectors (largest {worst:.3e})")


def eigen_report(m: OperatorMatrix, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Rightmost eigenvalues, sorted by descending real part and then by
    ascending imaginary part, plus each eigenfunction's boundary mass
    fraction.

    The eigensolve is ``_shift_invert_arnoldi`` with the shift sigma placed
    right of the Gershgorin edge, so the rightmost eigenvalues lambda =
    sigma + 1/theta are the dominant ones; max(count, 8) of them are
    solved for, as many as N - 2.  The start is fixed and nothing is drawn
    at random: the same operator gives bit-identical results however many
    solves ran before it.  ``count`` must pass ``check_count``.

    The Krylov space limits what is found: an eigenvalue that repeats
    within one component more often than the start block reaches can come
    back fewer times than its multiplicity.  An operator on 18 nodes with
    no coupling between nodes, u diagonal cycling -1, -3, -5, v diagonal
    -2, -4, -6 and A12 = 0.5, returns four -1's and two -2's for count 6,
    where the six rightmost eigenvalues are all -1.

    The k Ritz values kept are those of largest |theta|: the eigenvalues
    nearest sigma, which are not always the rightmost.  On the operator
    with bands ``default_rng(0).standard_normal((5, 40))`` on
    ``make_grid(5.0, 20)``, count 7 misses the pair 1.1814 +- 1.3887i and
    returns a nearer one farther left; with ``default_rng(4)`` it returns
    1.4645 - 0.8422i without its conjugate, as the k-th cut by |theta|
    splits the pair.

    The fraction is the share of |V|^2 carried by nodes in the outer
    ``OUTER_FRACTION`` of the domain (|xi| > (1 - OUTER_FRACTION) L); values
    near 1 tag Dirichlet-truncation artifacts.
    """
    N = m.size
    check_count(count, N)
    k = min(max(count, 8), N - 2)
    sigma = _gershgorin_right_edge(m) + 1.0  # strictly right of the spectrum
    theta, vecs = _shift_invert_arnoldi(m, sigma, k)
    vals = sigma + 1.0 / theta.astype(complex)

    order = np.lexsort((vals.imag, -vals.real))[:count]
    vals = vals[order]
    vecs = vecs[order]

    nodes = m.grid.nodes
    outer = np.abs(nodes) > (1.0 - OUTER_FRACTION) * m.grid.L
    mass = np.abs(vecs) ** 2
    node_mass = mass[:, 0::2] + mass[:, 1::2]
    total = node_mass.sum(axis=1)
    frac = node_mass[:, outer].sum(axis=1) / np.where(total > 0, total, 1.0)
    return vals, frac


@dataclass(frozen=True)
class TranslationModeReport:
    residual_sup: float       # unweighted linearization applied to U*'
    weighted_left: float      # weight * |U*'| one node inside -L
    weighted_mid: float       # same at the domain center
    tail_factor: float        # their ratio; inf past float64 (exp_or_inf)


def translation_mode_check(prof: Profile,
                           w: WeightPair) -> TranslationModeReport:
    """Certify the translation mode: annihilated by L, yet outside the space.

    (a) the unweighted linearization applied to the wave's derivative has a
    small residual; (b) the weighted magnitude of the derivative near -L
    dwarfs its mid-domain value, witnessing that the mode fails the weighted
    decay requirement (so zero is not a weighted eigenvalue).  The weighted
    magnitudes are formed in logs: the weight alone overflows where their
    product does not.

    The derivative DU is the centred difference of the knots, at the nodes.
    On the uniform grid D commutes with the constant-coefficient stencil T,
    so T DU = D(T U) = D(r - F(U)), with r = ``grid.residual(prof)``, and
    the residual of (a) is D(r - F(U)) + F'(U) DU: r at the nodes, F at
    every knot and F' at the nodes.  r is taken as zero at the two end
    knots, the closure of continuing the front one cell past each end with
    its own discrete equation.
    """
    K, h = prof.knots, prof.grid.h
    deriv = (K[2:] - K[:-2]) / (2.0 * h)
    # T U at every knot, with r = 0 at the end knots
    tu = np.pad(residual(prof), ((1, 1), (0, 0)))
    tu -= reaction(prof.params, StateVec(K[:, 0], K[:, 1])).T
    A = jacobian(prof.params, StateVec(prof.u, prof.v))
    res = (tu[2:] - tu[:-2]) / (2.0 * h) + np.einsum("ijn,nj->ni", A, deriv)
    nodes = prof.grid.nodes
    at = [0, int(np.argmin(np.abs(nodes)))]
    mag = np.max(np.abs(deriv[at]), axis=1)
    with np.errstate(divide="ignore"):        # log 0 = -inf weighs 0
        log_left, log_mid = np.log(mag) + log_weight(w, nodes[at])
    if mag[1] > 0:
        factor = exp_or_inf(log_left - log_mid)
    else:
        factor = math.inf if mag[0] > 0 else 0.0
    return TranslationModeReport(
        residual_sup=float(np.max(np.abs(res))),
        weighted_left=exp_or_inf(log_left),
        weighted_mid=exp_or_inf(log_mid),
        tail_factor=factor,
    )


@dataclass(frozen=True)
class SpectrumReport:
    """Essential-spectrum geometry and the rightmost eigenvalues, one dict
    per eigenvalue with keys re, im, boundary_mass_fraction, multiplicity."""

    branch_vertices: list
    max_re_essential: float
    curves: list = field(default_factory=list)
    eigenvalues: list = field(default_factory=list)
    rightmost: complex | None = None


def make_spectrum_report(p: ModelParams, c: float, w: WeightPair,
                         eigs: tuple | None = None) -> SpectrumReport:
    """Bundle curve geometry (``CURVE_SAMPLES`` points per branch over
    |Im| <= ``CURVE_Y_MAX``) and, when given, ``eigen_report``'s results."""
    mx, verts = essential_spectrum_max(p, c, w)
    try:
        curves = spectrum_curves(p, c, w, CURVE_Y_MAX, CURVE_SAMPLES)
    except DegenerateWeightError:
        curves = []
    eigenvalues: list = []
    rightmost = None
    if eigs is not None:
        vals, frac = eigs
        mult = [int(np.sum(np.abs(vals - v) < 1e-8)) for v in vals]
        eigenvalues = [{"re": float(v.real), "im": float(v.imag),
                        "boundary_mass_fraction": float(f), "multiplicity": m}
                       for v, f, m in zip(vals, frac, mult)]
        rightmost = complex(vals[0])
    return SpectrumReport(branch_vertices=list(verts), max_re_essential=mx,
                          curves=curves, eigenvalues=eigenvalues,
                          rightmost=rightmost)
