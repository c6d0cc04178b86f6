import numpy as np
import pytest

from pggwave import StateVec, derive_params, jacobian, reaction, to_original, to_transformed
from pggwave.errors import ParameterError


def test_base_constants(base_params):
    assert base_params.kstar == pytest.approx(1.2, abs=1e-15)
    assert base_params.cmin == pytest.approx(1.0, abs=1e-15)


def test_identity_both_sides(base_params):
    p = base_params
    left = 1.0 + p.k * p.kstar - p.kstar
    right = p.alpha / (1.0 - p.k + p.alpha * p.k)
    assert left == pytest.approx(0.4, abs=1e-14)
    assert right == pytest.approx(0.4, abs=1e-14)
    assert abs(left - right) < 1e-13


def test_extreme_alpha_small_kstar():
    p = derive_params(0.999, 0.5)
    assert 0 < p.kstar < 2e-3
    assert p.kstar == pytest.approx(0.001 / 0.9995, rel=1e-12)


@pytest.mark.parametrize("alpha,k", [(0.0, 0.5), (1.0, 0.5), (-0.1, 0.5),
                                     (0.25, 0.0), (0.25, 1.0), (0.25, 1.5)])
def test_hypothesis_violations_rejected(alpha, k):
    with pytest.raises(ParameterError):
        derive_params(alpha, k)


def test_reaction_vanishes_at_equilibria(base_params):
    p = base_params
    for state in [(0.0, 0.0), (p.kstar, 1.0), (p.kstar, 0.0)]:
        f = reaction(p, StateVec(*state))
        assert np.max(np.abs(f)) < 1e-14, state


def test_reaction_hand_value(base_params):
    f = reaction(base_params, StateVec(0.6, 0.5))
    # independent evaluation: ratio = 1.1/1.3, F1 = 0.6*(1.1/1.3 - 0.75)
    assert f[0] == pytest.approx(3.0 / 52.0, abs=1e-14)
    assert f[1] == pytest.approx(1.0 / 13.0, abs=1e-14)


def test_jacobian_limit_states(base_params):
    p = base_params
    plus = jacobian(p, StateVec(p.kstar, 1.0))
    assert np.allclose(plus, [[-p.alpha, 0.0], [1.0 - p.k, -1.0]], atol=1e-14)
    assert np.allclose(plus, [[-0.25, 0.0], [0.5, -1.0]], atol=1e-14)
    minus = jacobian(p, StateVec(0.0, 0.0))
    expected = [[-(1 - p.alpha) * (1 - p.k + p.alpha * p.k), 1 - p.alpha],
                [0.0, p.alpha]]
    assert np.allclose(minus, expected, atol=1e-14)


def test_cooperative_off_diagonals(base_params):
    p = base_params
    us = np.linspace(0.0, p.kstar, 50)
    vs = np.linspace(0.0, 1.0, 50)
    U, V = np.meshgrid(us, vs)
    A = jacobian(p, StateVec(U.ravel(), V.ravel()))
    assert np.min(A[0, 1]) >= 0.0
    assert np.min(A[1, 0]) >= 0.0


def test_jacobian_matches_finite_differences(base_params):
    p = base_params
    rng = np.random.default_rng(42)
    pts = rng.uniform([0.0, 0.0], [p.kstar, 1.0], size=(100, 2))
    eps = 1e-6
    for u, v in pts:
        A = jacobian(p, StateVec(u, v))
        fd = np.empty((2, 2))
        fd[:, 0] = (reaction(p, StateVec(u + eps, v))
                    - reaction(p, StateVec(u - eps, v))) / (2 * eps)
        fd[:, 1] = (reaction(p, StateVec(u, v + eps))
                    - reaction(p, StateVec(u, v - eps))) / (2 * eps)
        assert np.max(np.abs(A - fd)) < 1e-6


def test_transformations(base_params):
    p = base_params
    assert to_original(p, StateVec(0.0, 0.0)) == (p.kstar, 0.0)
    assert to_original(p, StateVec(p.kstar, 1.0)) == (0.0, 1.0)
    rng = np.random.default_rng(7)
    for u, v in rng.uniform(-1.0, 2.0, size=(20, 2)):
        rt = to_transformed(p, to_original(p, StateVec(u, v)))
        assert abs(rt.u - u) < 1e-15 and abs(rt.v - v) < 1e-15


def test_vectorized_shapes(base_params):
    p = base_params
    u = np.linspace(0, p.kstar, 11)
    v = np.linspace(0, 1, 11)
    f = reaction(p, StateVec(u, v))
    assert f.shape == (2, 11)
    assert jacobian(p, StateVec(u, v)).shape == (2, 2, 11)
    # out=: a (2, n) buffer, and the strided transpose of a C-order (n, 2)
    # buffer whose columns are the inputs, as in the time step
    out = np.full((2, 11), np.nan)
    assert reaction(p, StateVec(u, v), out=out) is out
    state = np.ascontiguousarray(np.stack([u, v], axis=1))
    buf = np.full((11, 2), np.nan)
    reaction(p, StateVec(state[:, 0], state[:, 1]), out=buf.T)
    for got in (out, buf.T):
        assert got.tobytes() == f.tobytes()
