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
and both fronts are compared after phase normalisation at v = 1/2.
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
    x = np.linspace(-L, L, nodes)
    y = np.array([np.interp(x, xs, row) for row in guess])
    sol = solve_bvp(fun, bc, x, y, fun_jac=fun_jac, tol=tol, max_nodes=10**6)
    assert sol.status == 0, sol.message
    i = int(np.nonzero(sol.y[1] >= 0.5)[0][0])
    x0 = brentq(lambda s: sol.sol(s)[1] - 0.5, sol.x[i - 1], sol.x[i],
                xtol=1e-15)
    return lambda xi: sol.sol(xi + x0)[:2]


def _core_error(front, truth):
    """The largest |(u, v) - truth| over the core nodes of the normalised
    front."""
    prof = normalize_phase(front)
    core = np.abs(prof.grid.nodes) <= CORE
    return float(np.max(np.abs(prof.knots[1:-1][core].T
                               - truth(prof.grid.nodes[core]))))


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
    # measured 5.170e-6, 1.292e-6 and 3.229e-7, each 8.07e-4 h^2 to 0.1%;
    # the constant is gated within 2% of 8.1e-4
    for n, e in zip(NS, core_errors):
        assert abs(e / fronts[n].grid.h**2 / 8.1e-4 - 1.0) <= 0.02
    # h halves from one grid to the next
    order = np.log2(core_errors[:-1] / core_errors[1:])
    assert np.all(np.abs(order - 2.0) <= 0.1)
