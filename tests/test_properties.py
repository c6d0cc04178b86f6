"""Properties over the admissible box (alpha, k, c >= cmin), sampled by
hypothesis with a fixed seed, so every run draws the same points."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from pggwave import (WeightPair, check_monotone, derive_params,
                     essential_spectrum_max, make_bounds, make_grid,
                     solve_wave, weight_window)
from pggwave.grid import ENVELOPE_SLACK


def _box(examples):
    return settings(max_examples=examples, derandomize=True, database=None,
                    deadline=None)


UNIT = st.floats(0.02, 0.98)
GRIDS = st.sampled_from([(20.0, 199), (20.0, 200), (30.0, 399), (40.0, 400)])


@_box(60)
@given(alpha=UNIT, k=UNIT, ratio=st.floats(1.0, 2.5), grid_size=GRIDS)
def test_front_is_increasing_inside_its_bounds(alpha, k, ratio, grid_size):
    p = derive_params(alpha, k)
    bp = make_bounds(p, ratio * p.cmin, make_grid(*grid_size))
    prof, _ = solve_wave(bp)
    du, dv = check_monotone(prof)
    assert du > 0.0 and dv > 0.0
    U = prof.samples()
    assert np.min(bp.shifted_upper.samples() - U) >= -ENVELOPE_SLACK
    assert np.min(U - bp.lower.samples()) >= -ENVELOPE_SLACK


# the window's edges are roots computed in floating point: one ulp inside
# sigma1_max the computed vertex is +5.6e-17, and at c/cmin - 1 < 4e-11 the
# sigma2 range is too narrow for its sign; so the speed and the weight keep
# a relative distance of EDGE from every edge, where the sign is above
# roundoff
EDGE = 1e-6


@_box(200)
@given(alpha=UNIT, k=UNIT, ratio=st.floats(1.0 + EDGE, 3.0),
       at1=st.floats(0.0, 1.0 - EDGE), at2=st.floats(EDGE, 1.0 - EDGE))
def test_window_weights_give_a_negative_essential_spectrum(alpha, k, ratio,
                                                          at1, at2):
    # the weight at the fractions (at1, at2) of the window's two ranges
    p = derive_params(alpha, k)
    c = ratio * p.cmin
    win = weight_window(p, c)
    w = WeightPair(at1 * win.sigma1_max,
                   win.sigma2_min + at2 * (win.sigma2_max - win.sigma2_min))
    assert win.contains(w)
    assert essential_spectrum_max(p, c, w)[0] < 0.0
