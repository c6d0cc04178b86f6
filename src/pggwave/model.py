"""Rescaled two-species public-goods model: constants, reaction terms, Jacobian.

The model is the rescaled (r1 = r2 = k0 = 1) cooperator/defector system in
the monotone variables u = K* - u_hat, v = v_hat, where u_hat is the
cooperator density and v_hat the defector density.  In these variables the
reaction field is cooperative on the box [0, K*] x [0, 1] (nonnegative
Jacobian off-diagonals), which is what every comparison-based solver in this
package relies on.

``subcritical_verdict`` owns the speed rule (a monotone front exists for
c >= cmin, critical within ``SPEED_TOL`` of it) and the tail rates e^{mu xi}:
mu^2 - c mu + alpha = 0 at -inf, mu^2 - c mu - alpha = 0 at +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, SubcriticalSpeedError

__all__ = [
    "ModelParams",
    "StateVec",
    "SpeedVerdict",
    "derive_params",
    "subcritical_verdict",
    "require_monotone_wave",
    "reaction",
    "jacobian",
    "to_original",
]

SPEED_TOL = 1e-12   # |c - cmin| up to this is the critical speed


class StateVec(NamedTuple):
    """Two-component state; fields may be scalars or equal-length arrays."""

    u: float | np.ndarray
    v: float | np.ndarray


@dataclass(frozen=True)
class ModelParams:
    """The model's two parameters and the constants derived from them.

    alpha   altruism penalty rate, in (0, 1)
    k       public-goods coefficient, in (0, 1)
    d       1 - k + alpha*k
    kstar   cooperator-dominated equilibrium level (1-alpha)/d
    cmin    minimal front speed 2*sqrt(alpha)
    """

    alpha: float
    k: float

    @property
    def d(self) -> float:
        return 1.0 - self.k + self.alpha * self.k

    @property
    def kstar(self) -> float:
        return (1.0 - self.alpha) / self.d

    @property
    def cmin(self) -> float:
        return 2.0 * math.sqrt(self.alpha)


def derive_params(alpha: float, k: float) -> ModelParams:
    """Validate hypothesis 0 < alpha, k < 1; the model's constants derive
    from the two."""
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if not (0.0 < k < 1.0):
        raise ParameterError(f"k must lie in (0, 1), got {k}")
    return ModelParams(alpha=alpha, k=k)


@dataclass(frozen=True)
class SpeedVerdict:
    """The far field of a front at one speed."""

    verdict: str              # NoMonotoneWave | CriticalAdmissible | SupercriticalAdmissible
    roots: tuple              # -inf roots, slow one first
    discriminant: float       # c^2 - 4 alpha; 0 at the critical speed
    plus_inf_root: float      # +inf decay rate, the negative root


def subcritical_verdict(p: ModelParams, c: float) -> SpeedVerdict:
    """Classify c against cmin, with the characteristic roots at both ends.

    Within SPEED_TOL of cmin the -inf pair is the double root sqrt(alpha),
    discriminant 0, however c^2 - 4 alpha rounds; below, it is complex."""
    if not 0.0 < c < math.inf:
        raise ParameterError(f"speed must be positive and finite, got {c}")
    disc = c * c - 4.0 * p.alpha
    half = c / 2.0
    if c < p.cmin - SPEED_TOL:
        verdict, s = "NoMonotoneWave", complex(0.0, math.sqrt(-disc) / 2.0)
    elif c <= p.cmin + SPEED_TOL:
        verdict, half, s, disc = "CriticalAdmissible", p.cmin / 2.0, 0.0, 0.0
    else:
        verdict, s = "SupercriticalAdmissible", math.sqrt(disc) / 2.0
    return SpeedVerdict(verdict, (complex(half - s), complex(half + s)), disc,
                        (c - math.sqrt(c * c + 4.0 * p.alpha)) / 2.0)


def require_monotone_wave(p: ModelParams, c: float) -> SpeedVerdict:
    """The verdict at c; SubcriticalSpeedError when no monotone wave exists."""
    v = subcritical_verdict(p, c)
    if v.verdict == "NoMonotoneWave":
        raise SubcriticalSpeedError(
            f"no monotone wave for c = {c} < cmin = {p.cmin}: oscillatory "
            f"tail, characteristic roots {v.roots[0]:g}, {v.roots[1]:g}")
    return v


def reaction(p: ModelParams, s: StateVec, out: np.ndarray | None = None
             ) -> np.ndarray:
    """Reaction field F(u, v) of the transformed system.

    Returns ``[F1, F2]`` as an array of shape (2,) for scalar inputs and
    (2, n) for arrays, written into ``out`` when one is given (any float
    array of that shape that shares no memory with u or v, strided views
    included).  The denominator 1 + k(K* - u) stays positive for
    u < K* + 1/k, so out-of-box states are evaluated as-is.

    With w = K* - u, den = 1 + k w and ratio = (w + v)/den, F1 = -w (1 -
    alpha - ratio) and F2 = v (1 - ratio).  Since K* (1 - k + alpha k) =
    1 - alpha, F1 = w (v - d u)/den with d = 1 - k + alpha k, which is how
    it is formed: without the cancellation of 1 - alpha against ratio, so
    F1 is exact to rounding at the invaded state (0, 0) too.  Both are
    formed in place - w is the one array allocated, the F2 row holds den
    until w, holding w + v, becomes ratio - with the rounding of w (v - d
    u)/den and v (1 - ratio), signed zeros included.
    """
    u, v = np.asarray(s[0], dtype=float), np.asarray(s[1], dtype=float)
    if out is None:
        out = np.empty((2, *np.broadcast_shapes(u.shape, v.shape)))
    # [i, ...] keeps a 0-d view of a row for scalar inputs
    f1, f2 = out[0, ...], out[1, ...]
    w = np.subtract(p.kstar, u, out=np.empty(out.shape[1:]))
    np.multiply(w, p.k, out=f2)
    f2 += 1.0
    np.multiply(u, p.d, out=f1)
    np.subtract(v, f1, out=f1)
    f1 *= w
    f1 /= f2
    w += v
    w /= f2
    np.subtract(1.0, w, out=f2)
    f2 *= v
    return out


def jacobian(p: ModelParams, s: StateVec, out: np.ndarray | None = None
             ) -> np.ndarray:
    """Jacobian dF/d(u,v); shape (2, 2) for scalars, (2, 2, n) for arrays.

    Off-diagonal entries are nonnegative on [0, K*] x [0, 1] (cooperative
    structure).  The result is written into ``out`` when one is given (any
    float array of that shape that shares no memory with u or v, strided
    views included).

    With w = K* - u, den = 1 + k w and q = (w + v)/den, the entries are
    A11 = 1 - q - alpha + w (k v - 1)/den^2, A12 = w/den,
    A21 = -(k v - 1)/den^2 v and A22 = 1 - q - v/den.  They are formed in
    place - w and den are the two arrays allocated, and the entries of
    ``out`` hold the shared pieces until their own values replace them -
    with the rounding of those formulas, signed zeros included.  den^2 is
    den * den, as numpy squares an array, for scalar inputs too.
    """
    u, v = np.asarray(s[0], dtype=float), np.asarray(s[1], dtype=float)
    shape = np.broadcast_shapes(u.shape, v.shape)
    if out is None:
        out = np.empty((2, 2, *shape))
    # [i, j, ...] keeps a 0-d view of an entry for scalar inputs
    a11, a12 = out[0, 0, ...], out[0, 1, ...]
    a21, a22 = out[1, 0, ...], out[1, 1, ...]
    work = np.empty((2, *shape))
    w, den = work[0, ...], work[1, ...]
    np.subtract(p.kstar, u, out=w)
    np.multiply(w, p.k, out=den)
    den += 1.0
    np.divide(w, den, out=a12)
    # a21 holds k v - 1 and a22 den^2 until both are used
    np.multiply(v, p.k, out=a21)
    a21 -= 1.0
    np.multiply(w, a21, out=a11)
    np.multiply(den, den, out=a22)
    a11 /= a22
    np.negative(a21, out=a21)
    a21 /= a22
    a21 *= v
    # a22 holds 1 - q, w becomes 1 - q - alpha, then v/den
    np.divide(np.add(w, v, out=a22), den, out=a22)
    np.subtract(1.0, a22, out=a22)
    np.subtract(a22, p.alpha, out=w)
    a11 += w
    a22 -= np.divide(v, den, out=w)
    return out


def to_original(p: ModelParams, s: StateVec) -> StateVec:
    """Map monotone variables (u, v) to original densities (u_hat, v_hat).

    The map (u, v) -> (K* - u, v) is an involution, so the same function
    maps original densities back.
    """
    return StateVec(p.kstar - np.asarray(s[0], dtype=float), np.asarray(s[1], dtype=float))
