"""Essential-spectrum geometry, weighted-operator assembly, eigensolves.

The weight e^{s1*xi} + e^{-s2*xi} conjugates the linearization about the
front into an operator whose far-field symbols are the shifted matrices

    M+ = [[s1^2+c*s1-alpha, 0], [1-k, s1^2+c*s1-1]]            (xi -> +inf)
    M- = [[s2^2-c*s2-(1-alpha)(1-k+k*alpha), 1-alpha],
          [0, s2^2-c*s2+alpha]]                                 (xi -> -inf)

whose diagonal entries are the four parabola vertices bounding the essential
spectrum.  For weights inside the admissible window all four are negative.

ARPACK (``scipy.sparse.linalg``) and ``scipy.sparse`` are imported inside
``eigen_report`` and ``OperatorMatrix.to_sparse``, so they load only when
an eigensolve runs; every other run is spared their import time and
memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConvergenceError, DegenerateWeightError, EmptyWindowError,
                     ParameterError)
from .grid import Grid, Profile, linearization_bands
from .model import ModelParams, subcritical_verdict
from .wave import derivative_profile, derivative_system_residual

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


@dataclass(frozen=True)
class WeightPair:
    sigma1: float = 0.0
    sigma2: float = 0.0

    def __post_init__(self):
        if self.sigma1 < 0 or self.sigma2 < 0:
            raise ParameterError("weight exponents must be nonnegative")


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
        q2 - (1.0 - p.alpha) * (1.0 - p.k + p.k * p.alpha),
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
    """log of the weight e^{s1*xi} + e^{-s2*xi}, finite for every xi."""
    return np.logaddexp(w.sigma1 * xi, -w.sigma2 * xi)


def exp_or_inf(x: float) -> float:
    """e^x for a magnitude formed in logs: inf from x = 709 on, just short
    of float64's largest value e^709.78, so it never overflows."""
    return math.exp(x) if x < 709.0 else math.inf


def weight_functions(w: WeightPair, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logarithmic-derivative pair (g1, g2) of the weight, overflow-safe.

    For xi >= 0 the factor e^{s1*xi} is pulled out, for xi < 0 the factor
    e^{-s2*xi}, so only decaying exponentials are ever evaluated.
    """
    xi = np.asarray(xi, dtype=float)
    s1, s2 = w.sigma1, w.sigma2
    pos = xi >= 0
    e = np.exp(-(s1 + s2) * np.abs(xi))
    g1 = np.where(pos, (s1 - s2 * e) / (1.0 + e), (s1 * e - s2) / (e + 1.0))
    g2 = np.where(pos, (s1**2 + s2**2 * e) / (1.0 + e),
                  (s1**2 * e + s2**2) / (e + 1.0))
    return g1, g2


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

    def to_sparse(self):
        """CSC matrix; LAPACK's row d, like DIA's, is indexed by column."""
        # Deferred: only the eigensolve needs scipy.sparse, and importing it
        # at module level would load it into every run.
        import scipy.sparse

        N = self.size
        return scipy.sparse.dia_array((self.bands, [2, 1, 0, -1, -2]),
                                      shape=(N, N)).tocsc()

    def to_dense(self) -> np.ndarray:
        return self.to_sparse().toarray()


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
    N = m.size
    edge = m.bands[2].copy()
    i = np.arange(N)
    for d in (-2, -1, 1, 2):
        j = i + d                         # entry A[i, j] sits at bands[2-d, j]
        ok = (j >= 0) & (j < N)
        edge[i[ok]] += np.abs(m.bands[2 - d, j[ok]])
    return float(np.max(edge))


def check_count(count: int, size: int) -> None:
    """Refuse a count outside ARPACK's limit [1, size - 2]."""
    if not 1 <= count <= size - 2:
        raise ParameterError(f"eigenvalue count {count} outside "
                             f"[1, {size - 2}] for an operator of size {size}")


def eigen_report(m: OperatorMatrix, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Rightmost eigenvalues, sorted by descending real part, plus each
    eigenfunction's boundary mass fraction.

    The eigensolve is a shift-inverted Arnoldi (ARPACK) with the shift
    placed right of the Gershgorin edge, so the rightmost eigenvalues are
    the dominant ones.  The start vector is fixed: the same operator gives
    bit-identical results however many solves ran before it.  ``count``
    must pass ``check_count``.

    The fraction is the share of |V|^2 carried by nodes in the outer
    ``OUTER_FRACTION`` of the domain (|xi| > (1 - OUTER_FRACTION) L); values
    near 1 tag Dirichlet-truncation artifacts.
    """
    # Deferred: ARPACK is needed only here, and importing it at module
    # level would load scipy.sparse into every run.
    import scipy.sparse.linalg

    N = m.size
    check_count(count, N)
    k = min(max(count, 8), N - 2)
    sigma = _gershgorin_right_edge(m) + 1.0  # strictly right of the spectrum
    try:
        vals, vecs = scipy.sparse.linalg.eigs(
            m.to_sparse(), k=k, sigma=sigma, which="LM", v0=np.ones(N))
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise ConvergenceError(f"ARPACK did not converge: {exc}") from exc

    order = np.argsort(-vals.real, kind="stable")[:count]
    vals = vals[order]
    vecs = vecs[:, order]

    nodes = m.grid.nodes
    outer = np.abs(nodes) > (1.0 - OUTER_FRACTION) * m.grid.L
    mass = np.abs(vecs) ** 2
    node_mass = mass[0::2, :] + mass[1::2, :]
    total = node_mass.sum(axis=0)
    frac = node_mass[outer, :].sum(axis=0) / np.where(total > 0, total, 1.0)
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
    """
    deriv = derivative_profile(prof)
    res = derivative_system_residual(prof, deriv)
    nodes = prof.grid.nodes
    at = [0, int(np.argmin(np.abs(nodes)))]
    mag = np.maximum(np.abs(deriv.u[at]), np.abs(deriv.v[at]))
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
