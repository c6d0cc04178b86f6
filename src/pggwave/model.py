"""Rescaled two-species public-goods model: constants, reaction terms, Jacobian.

The model is the rescaled (r1 = r2 = k0 = 1) cooperator/defector system in
the monotone variables u = K* - u_hat, v = v_hat, where u_hat is the
cooperator density and v_hat the defector density.  In these variables the
reaction field is cooperative on the box [0, K*] x [0, 1] (nonnegative
Jacobian off-diagonals), which is what every comparison-based solver in this
package relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError

__all__ = [
    "ModelParams",
    "StateVec",
    "derive_params",
    "reaction",
    "jacobian",
    "to_original",
    "to_transformed",
]


class StateVec(NamedTuple):
    """Two-component state; fields may be scalars or equal-length arrays."""

    u: float | np.ndarray
    v: float | np.ndarray


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless constants of the rescaled system.

    alpha   altruism penalty rate, in (0, 1)
    k       public-goods coefficient, in (0, 1)
    kstar   cooperator-dominated equilibrium level (1-alpha)/(1-k+alpha*k)
    cmin    minimal front speed 2*sqrt(alpha)
    """

    alpha: float
    k: float
    kstar: float
    cmin: float


def derive_params(alpha: float, k: float) -> ModelParams:
    """Validate hypothesis 0 < alpha, k < 1 and compute the derived constants."""
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if not (0.0 < k < 1.0):
        raise ParameterError(f"k must lie in (0, 1), got {k}")
    denom = 1.0 - k + alpha * k
    kstar = (1.0 - alpha) / denom
    p = ModelParams(alpha=alpha, k=k, kstar=kstar, cmin=2.0 * math.sqrt(alpha))
    # identity 1 + k*K* - K* = alpha/(1-k+alpha*k), used by the bound algebra
    if abs((1.0 + k * kstar - kstar) - alpha / denom) >= 1e-13:
        raise ParameterError(
            f"derived constants inconsistent for alpha={alpha}, k={k}"
        )
    return p


def reaction(p: ModelParams, s: StateVec, out: np.ndarray | None = None
             ) -> np.ndarray:
    """Reaction field F(u, v) of the transformed system.

    Returns ``[F1, F2]`` as an array of shape (2,) for scalar inputs and
    (2, n) for arrays, written into ``out`` when one is given (any float
    array of that shape, strided views included).  The denominator
    1 + k(K* - u) stays positive for u < K* + 1/k, so out-of-box states are
    evaluated as-is.
    """
    u, v = np.asarray(s[0], dtype=float), np.asarray(s[1], dtype=float)
    if out is None:
        out = np.empty((2, *np.broadcast_shapes(u.shape, v.shape)))
    w = p.kstar - u
    ratio = (w + v) / (1.0 + p.k * w)
    # each row of out is written once (it may be a strided view); [i, ...]
    # keeps a 0-d view for scalar inputs
    np.multiply(-w, 1.0 - p.alpha - ratio, out=out[0, ...])
    np.multiply(v, 1.0 - ratio, out=out[1, ...])
    return out


def jacobian(p: ModelParams, s: StateVec) -> np.ndarray:
    """Jacobian dF/d(u,v); shape (2, 2) for scalars, (2, 2, n) for arrays.

    Off-diagonal entries are nonnegative on [0, K*] x [0, 1] (cooperative
    structure).
    """
    u, v = np.asarray(s[0], dtype=float), np.asarray(s[1], dtype=float)
    w = p.kstar - u
    den = 1.0 + p.k * w
    a11 = 1.0 - (w + v) / den - p.alpha + w * (p.k * v - 1.0) / den**2
    a12 = w / den
    a21 = -(p.k * v - 1.0) / den**2 * v
    a22 = 1.0 - (w + v) / den - v / den
    return np.array([[a11, a12], [a21, a22]])


def to_original(p: ModelParams, s: StateVec) -> StateVec:
    """Map monotone variables (u, v) to original densities (u_hat, v_hat).

    The map (u, v) -> (K* - u, v) is an involution, so the same function
    maps original densities back; ``to_transformed`` is bound to it.
    """
    return StateVec(p.kstar - np.asarray(s[0], dtype=float), np.asarray(s[1], dtype=float))


to_transformed = to_original
