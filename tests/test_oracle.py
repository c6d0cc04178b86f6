"""The pipeline against an exact front: at k = 0 the upper bound (K* w, w),
K* = 1 - alpha, solves the vector system exactly, where w solves the
Fisher-KPP equation w'' - c w' + alpha w (1 - w) = 0.  At c = 5 sqrt(alpha/6)
that front is Ablowitz & Zeppetella's

    w(xi) = (1 + (sqrt(2) - 1) e^{-sqrt(alpha/6) xi})^-2,   w(0) = 1/2,

so after ``normalize_phase`` the computed v is compared with w node by node,
each node at its abscissa xi = node - x0 from the front's origin.
k = 0 is the edge of the paper's box, which ``derive_params`` refuses; the
model is built directly.
"""

import math

import numpy as np
import pytest

from pggwave import make_bounds, make_grid, solve_wave
from pggwave.model import ModelParams
from pggwave.wave import normalize_phase

CORE = 10.0          # the core is |xi| <= CORE
NS = (999, 1999, 3999, 7999)


def _error(alpha, L, n):
    """|v - w| at every node and the nodes, for the front solved on
    make_grid(L, n), its origin at v = 1/2."""
    p = ModelParams(alpha, 0.0)
    g = make_grid(L, n)
    prof, rep = solve_wave(make_bounds(p, 5.0 * math.sqrt(alpha / 6.0), g),
                           tol=1e-10)
    # the upper bound is the front: one sweep confirms it
    assert rep.iterations == 1 and rep.newton_steps == []
    prof = normalize_phase(prof)
    exact = (1.0 + (math.sqrt(2.0) - 1.0)
             * np.exp(-math.sqrt(alpha / 6.0) * (g.nodes - prof.x0))) ** -2
    assert np.max(np.abs(prof.u - p.kstar * prof.v)) < 1e-14
    return np.abs(prof.v - exact), g


def _end_prediction(alpha, L):
    """The truth's distance from its Dirichlet value 1 at xi = L, to
    leading order: what pinning v(L) = 1 leaves at the last node."""
    return 2.0 * (math.sqrt(2.0) - 1.0) * math.exp(-math.sqrt(alpha / 6.0) * L)


@pytest.fixture(scope="module")
def errors_l40():
    return [_error(0.25, 40.0, n) for n in NS]


def test_core_error_is_second_order(errors_l40):
    # measured 6.750e-6, 1.687e-6, 4.218e-7, 1.055e-7: 1.055e-3 h^2
    core = [float(np.max(err[np.abs(g.nodes) <= CORE]))
            for err, g in errors_l40]
    for (err, g), e in zip(errors_l40, core):
        assert 1.0e-3 < e / g.h**2 < 1.1e-3
    ratios = np.array(core[:-1]) / np.array(core[1:])
    assert np.all((3.95 <= ratios) & (ratios <= 4.05))


def test_long_domain_error_is_the_core_error():
    # at L = 80 the right end's truncation error is e^{-40 sqrt(alpha/6)}
    # = 2.8e-4 times its value at L = 40, below the core's error
    for n in NS:
        err, g = _error(0.25, 80.0, n)
        assert np.max(err) == np.max(err[np.abs(g.nodes) <= CORE])


def test_end_error_approaches_its_prediction(errors_l40):
    # at xi = L - h the error tends to 2 (sqrt(2) - 1) e^{-sqrt(alpha/6) L}
    # from below as h -> 0: 0.952, 0.976 and 0.988 of it at n = 1999, 3999
    # and 7999
    pred = _end_prediction(0.25, 40.0)
    share = [err[-1] / pred for err, _ in errors_l40[1:]]
    assert share[0] < share[1] < share[2] < 1.0
    assert abs(share[1] - 1.0) <= 0.05
    err, _ = _error(0.09, 40.0, 3999)      # 6.057e-3 against 6.175e-3
    assert abs(err[-1] / _end_prediction(0.09, 40.0) - 1.0) <= 0.05
