import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from pggwave import StateVec, derive_params, jacobian, reaction, to_original
from pggwave.errors import ParameterError
from pggwave.model import ModelParams

EPS = Fraction(np.finfo(float).eps)


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


def test_model_params_hold_only_the_two_parameters(base_params):
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["alpha", "k"]
    assert base_params == ModelParams(0.25, 0.5)
    assert (base_params.d, base_params.cmin) == (0.625, 1.0)


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
        rt = to_original(p, to_original(p, StateVec(u, v)))
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


def _reaction_formula(p, u, v):
    """F as written in the model, one temporary per operation."""
    w = p.kstar - u
    den = 1.0 + p.k * w
    d = 1.0 - p.k + p.alpha * p.k
    return np.array([w * (v - d * u) / den, v * (1.0 - (w + v) / den)])


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_reaction_bit_identical_to_formula(base_params):
    """The in-place evaluation rounds as the formula does, signed zeros
    included, for scalars, arrays and every output layout the step uses."""
    p = base_params
    rng = np.random.default_rng(16)
    inside = rng.uniform([0.0, 0.0], [p.kstar, 1.0], size=(500, 2))
    outside = rng.uniform([-2.0, -1.0], [3.0, 2.0], size=(500, 2))
    # exact zeros: w = +0 at u = K*, v = 0, both; v - d u = +0 at (0, 0)
    # and at (K* - 0.5, 0.4375), where d u = 0.625 * 0.7 rounds to v; and
    # an out-of-box state with v = d u exactly and w < 0, so F1 =
    # (-0.8)(+0)/0.6 = -0
    exact = [(p.kstar, 0.3), (0.4, 0.0), (p.kstar, 0.0), (p.kstar, -0.2),
             (p.kstar - 0.5, 0.4375), (0.0, 0.0), (p.kstar, 1.0), (2.0, 1.25)]
    assert 1.0 - p.k + p.alpha * p.k == 0.625 and 0.625 * 2.0 == 1.25
    states = np.vstack((inside, outside, exact))
    u, v = states[:, 0], states[:, 1]
    want = _reaction_formula(p, u, v)
    f1 = dict(zip(exact, want[0, len(inside) + len(outside):]))
    assert f1[(2.0, 1.25)] == 0.0 and np.signbit(f1[(2.0, 1.25)])
    assert f1[(0.0, 0.0)] == 0.0 and not np.signbit(f1[(0.0, 0.0)])
    assert np.array_equal(_bits(reaction(p, StateVec(u, v))), _bits(want))
    for u0, v0 in states:
        assert np.array_equal(_bits(reaction(p, StateVec(u0, v0))),
                              _bits(_reaction_formula(p, u0, v0)))
    # the step's layout: F-order (n, 2) state and reaction buffer, written
    # through the buffer's transpose; and a C-order buffer, strided rows
    U = np.asfortranarray(states)
    for order in ("F", "C"):
        F = np.full(U.shape, np.nan, order=order)
        reaction(p, StateVec(U[:, 0], U[:, 1]), out=F.T)
        assert np.array_equal(_bits(F.T), _bits(want))


def _exact_reaction(p, u, v):
    """F in rationals, with K* exact from the float alpha and k."""
    a, k, u, v = (Fraction(x) for x in (p.alpha, p.k, u, v))
    w = (1 - a) / (1 - k + a * k) - u
    ratio = (w + v) / (1 + k * w)
    return -w * (1 - a - ratio), v * (1 - ratio)


def test_reaction_exact_at_the_invaded_state(base_params):
    """F is within a few eps of its exact value relative to |u| + |v|, so
    it vanishes with the state at (0, 0) instead of leaving a rounding
    floor there."""
    p = base_params
    tiny = [(10.0**-j,) * 2 for j in range(1, 301)]
    box = np.random.default_rng(15).uniform([0.0, 0.0], [p.kstar, 1.0],
                                            size=(200, 2))
    for u, v in [*tiny, *box, (0.0, 0.0), (1e-12, 0.0), (0.0, 1e-12)]:
        got = reaction(p, StateVec(u, v))
        bound = 4 * EPS * (abs(Fraction(u)) + abs(Fraction(v)))
        for f, exact in zip(got, _exact_reaction(p, u, v)):
            assert abs(Fraction(float(f)) - exact) <= bound, (u, v)


def _jacobian_formula(p, u, v):
    """dF/d(u,v) of arrays as written in the model, one temporary per
    operation."""
    w = p.kstar - u
    den = 1.0 + p.k * w
    a11 = 1.0 - (w + v) / den - p.alpha + w * (p.k * v - 1.0) / den**2
    a12 = w / den
    a21 = -(p.k * v - 1.0) / den**2 * v
    a22 = 1.0 - (w + v) / den - v / den
    return np.array([[a11, a12], [a21, a22]])


def test_jacobian_bit_identical_to_formula(base_params):
    """The in-place evaluation rounds as the formula does on arrays, signed
    zeros included, into a fresh array and a strided ``out``; a scalar
    state gets its array column."""
    p = base_params
    rng = np.random.default_rng(32)
    inside = rng.uniform([0.0, 0.0], [p.kstar, 1.0], size=(500, 2))
    outside = rng.uniform([-2.0, -1.0], [3.0, 2.0], size=(500, 2))
    # w = +0 at u = K*, so A12 = +0; A21 = +0 at v = 0 and -0 at v = -0
    exact = [(p.kstar, 0.3), (0.4, 0.0), (0.4, -0.0), (p.kstar, 0.0),
             (0.0, 0.0), (p.kstar, 1.0)]
    states = np.vstack((inside, outside, exact))
    u, v = states[:, 0], states[:, 1]
    want = _jacobian_formula(p, u, v)
    assert np.signbit(want[1, 0, -4]) and not np.signbit(want[1, 0, -5])
    assert np.array_equal(_bits(jacobian(p, StateVec(u, v))), _bits(want))
    for i, (u0, v0) in enumerate(states):
        assert np.array_equal(_bits(jacobian(p, StateVec(u0, v0))),
                              _bits(want[:, :, i]))
    buf = np.full((2, 2, 2 * len(u)), np.nan)
    out = buf[:, :, ::2]
    assert jacobian(p, StateVec(u, v), out=out) is out
    assert np.array_equal(_bits(out), _bits(want))
    assert np.isnan(buf[:, :, 1::2]).all()
