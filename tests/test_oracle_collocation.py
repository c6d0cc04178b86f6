"""The pipeline against an independent front at k != 0 (ROADMAP item 22).

``scipy.integrate.solve_bvp`` (fourth-order collocation) solves the front
ODE as a first-order system in y = (u, v, u', v') on [-L, L],

    y' = (u', v', c u' - F1(u, v), c v' - F2(u, v)),

with projective end conditions (Beyn 1990) instead of the package's
Dirichlet rows: at -L the part of y in the stable subspace of the
linearisation at (0, 0) vanishes (one row), at +L the part of
y - (K*, 1, 0, 0) in the unstable subspace at (K*, 1) vanishes (two rows),
and v(-L) is pinned (one row), which fixes the translation.  The subspaces
are read off the left eigenvectors of the two 4x4 first-order matrices.
The oracle shares only ``model.reaction`` and ``model.jacobian`` with the
package, so it checks the grid, the stencil, the end rows, the bounds, the
sweeps, Newton and the phase.  It is warm-started from the package's front,
and both fronts are compared with their origins at v = 1/2: the oracle's
at xi = 0, the package's solved nodes at xi = nodes - x0.  Two columns are
checked, the base speed c = 1.25 on L = 40 and the critical speed c = 1 on
L = 80, where the -inf tail takes the form (A|xi| + B) e^{xi/2}.
"""

import numpy as np
import pytest
from scipy.integrate import solve_bvp
from scipy.optimize import brentq

from pggwave import make_bounds, make_grid, normalize_phase, solve_wave
from pggwave.model import StateVec, jacobian, reaction

CORE = 10.0          # the core is |xi| <= CORE
L = 40.0
NS = (999, 1999, 3999)
# the critical column: c = cmin = 1 on the length critical runs use
CRITICAL_L = 80.0
CRITICAL_NS = (1999, 3999, 7999)


def _first_order(p, c, state):
    """The 4x4 matrix of y' = A y linearised at the rest state (u, v)."""
    J = jacobian(p, StateVec(np.array([state[0]]), np.array([state[1]])))
    A = np.zeros((4, 4))
    A[0, 2] = A[1, 3] = 1.0
    A[2:, :2] = -J[:, :, 0]
    A[2, 2] = A[3, 3] = c
    return A


def _left_rows(A, sign):
    """Left eigenvectors of A whose eigenvalues have real part of ``sign``,
    one per row; at the base point every one of them is real."""
    vals, vecs = np.linalg.eig(A.T)
    pick = np.sign(vals.real) == sign
    assert np.all(vals.imag[pick] == 0.0)
    return vecs[:, pick].real.T


def _oracle(front, tol, nodes):
    """The collocation front at tolerance ``tol`` from ``nodes`` initial
    mesh points, warm-started from the package's ``front`` and pinned at
    its left datum v(-L): a function of xi giving (u, v) at the nodes xi,
    shifted so that v(0) = 1/2."""
    p, c = front.params, front.c
    stable_left = _left_rows(_first_order(p, c, (0.0, 0.0)), -1)
    limit = np.array([p.kstar, 1.0, 0.0, 0.0])
    unstable_right = _left_rows(_first_order(p, c, (p.kstar, 1.0)), 1)
    assert stable_left.shape == (1, 4) and unstable_right.shape == (2, 4)
    v_left = front.knots[0, 1]

    def fun(x, y):
        F = reaction(p, StateVec(y[0], y[1]))
        return np.vstack((y[2], y[3], c * y[2] - F[0], c * y[3] - F[1]))

    def fun_jac(x, y):
        out = np.zeros((4, 4, y.shape[1]))
        out[0, 2] = out[1, 3] = 1.0
        out[2:, :2] = -jacobian(p, StateVec(y[0], y[1]))
        out[2, 2] = out[3, 3] = c
        return out

    def bc(ya, yb):
        return np.concatenate((stable_left @ ya, [ya[1] - v_left],
                               unstable_right @ (yb - limit)))

    xs = front.grid.knots
    guess = [front.knots[:, 0], front.knots[:, 1],
             np.gradient(front.knots[:, 0], xs),
             np.gradient(front.knots[:, 1], xs)]
    x = np.linspace(-front.grid.L, front.grid.L, nodes)
    y = np.array([np.interp(x, xs, row) for row in guess])
    sol = solve_bvp(fun, bc, x, y, fun_jac=fun_jac, tol=tol, max_nodes=10**6)
    assert sol.status == 0, sol.message
    i = int(np.nonzero(sol.y[1] >= 0.5)[0][0])
    x0 = brentq(lambda s: sol.sol(s)[1] - 0.5, sol.x[i - 1], sol.x[i],
                xtol=1e-15)
    return lambda xi: sol.sol(xi + x0)[:2]


def _core_error(front, truth):
    """The largest |(u, v) - truth| over the front's solved nodes in the
    core, each at its abscissa xi = node - x0 from the front's origin."""
    prof = normalize_phase(front)
    xi = prof.grid.nodes - prof.x0
    core = np.abs(xi) <= CORE
    return float(np.max(np.abs(prof.knots[1:-1][core].T - truth(xi[core]))))


@pytest.fixture(scope="module")
def fronts(base_params, base_wave):
    """The base fronts at every n of NS, the shared ``base_wave`` last."""
    base = base_wave[0]
    assert (base.grid.L, base.grid.n) == (L, NS[-1])
    out = {n: solve_wave(make_bounds(base_params, base.c, make_grid(L, n)),
                         tol=1e-10)[0] for n in NS[:-1]}
    out[NS[-1]] = base
    return out


@pytest.fixture(scope="module")
def oracles(fronts):
    """The oracle at tolerances 1e-10 (4001 nodes) and 1e-12 (16001)."""
    return (_oracle(fronts[NS[-1]], 1e-10, 4001),
            _oracle(fronts[NS[-1]], 1e-12, 16001))


@pytest.fixture(scope="module")
def core_errors(fronts, oracles):
    return np.array([_core_error(fronts[n], oracles[1]) for n in NS])


def test_oracle_tolerances_agree_far_below_the_package_error(oracles,
                                                             core_errors):
    # measured 7.8e-14 in the core, against the package's 3.2e-7 at n = 3999
    xi = np.linspace(-CORE, CORE, 2001)
    agree = float(np.max(np.abs(oracles[0](xi) - oracles[1](xi))))
    assert agree <= core_errors.min() / 100.0


def test_core_error_against_the_oracle_is_second_order(fronts, core_errors):
    # measured 5.160e-6, 1.291e-6 and 3.230e-7: 8.063e-4, 8.072e-4 and
    # 8.075e-4 h^2; the constant is gated within 2% of 8.1e-4
    for n, e in zip(NS, core_errors):
        assert abs(e / fronts[n].grid.h**2 / 8.1e-4 - 1.0) <= 0.02
    # h halves from one grid to the next
    order = np.log2(core_errors[:-1] / core_errors[1:])
    assert np.all(np.abs(order - 2.0) <= 0.1)


@pytest.fixture(scope="module")
def critical_fronts(base_params):
    return {n: solve_wave(make_bounds(base_params, 1.0,
                                      make_grid(CRITICAL_L, n), tol=1e-12),
                          tol=1e-10)[0]
            for n in CRITICAL_NS}


@pytest.fixture(scope="module")
def critical_oracles(critical_fronts):
    """The critical oracle at tolerances 1e-10 (8001 nodes) and 1e-12
    (32001)."""
    front = critical_fronts[CRITICAL_NS[-1]]
    return _oracle(front, 1e-10, 8001), _oracle(front, 1e-12, 32001)


@pytest.fixture(scope="module")
def critical_errors(critical_fronts, critical_oracles):
    return np.array([_core_error(critical_fronts[n], critical_oracles[1])
                     for n in CRITICAL_NS])


def test_critical_oracle_tolerances_agree(critical_oracles, critical_errors):
    # measured 6.5e-12, against the package's 5.3e-7 at n = 7999
    xi = np.linspace(-CORE, CORE, 2001)
    agree = float(np.max(np.abs(critical_oracles[0](xi)
                                - critical_oracles[1](xi))))
    assert agree <= critical_errors.min() / 100.0


def test_critical_core_error_against_the_oracle_is_second_order(
        critical_fronts, critical_errors):
    # measured 8.578e-6, 2.142e-6 and 5.350e-7: 1.340e-3, 1.339e-3 and
    # 1.338e-3 h^2; the constant is gated within 2% of 1.34e-3
    for n, e in zip(CRITICAL_NS, critical_errors):
        assert abs(e / critical_fronts[n].grid.h**2 / 1.34e-3 - 1.0) <= 0.02
    order = np.log2(critical_errors[:-1] / critical_errors[1:])
    assert np.all(np.abs(order - 2.0) <= 0.1)
