import tracemalloc

import numpy as np
import pytest

from pggwave import (WeightPair, derive_params, make_bounds, make_grid,
                     normalize_phase, solve_wave)

BASE_C = 1.25


@pytest.fixture(scope="session")
def base_params():
    return derive_params(0.25, 0.5)


@pytest.fixture(scope="session")
def base_grid():
    return make_grid(40.0, 3999)


@pytest.fixture(scope="session")
def base_bounds(base_params, base_grid):
    return make_bounds(base_params, BASE_C, base_grid)


@pytest.fixture(scope="session")
def base_wave(base_bounds):
    """Converged base-configuration wave and its iteration report."""
    return solve_wave(base_bounds, tol=1e-10)


@pytest.fixture(scope="session")
def base_wave_normalized(base_wave):
    prof, _ = base_wave
    return normalize_phase(prof)


@pytest.fixture(scope="session")
def base_weights():
    return WeightPair(0.05, 0.5)


@pytest.fixture(scope="session")
def dense_eigenvalues():
    """The oracle for ``spectrum.eigen_report``: a full dense eigensolve of
    the operator, the ``count`` eigenvalues of largest real part first, a
    conjugate pair in ascending imaginary part: the order of
    ``eigen_report``."""
    def solve(op, count):
        vals = np.linalg.eigvals(op.to_dense())
        return vals[np.lexsort((vals.imag, -vals.real))][:count]
    return solve


@pytest.fixture(scope="session")
def traced_peak():
    """f(*args, **kwargs) and the peak of tracemalloc's traced memory above
    the start of the call, in bytes."""
    def run(f, *args, **kwargs):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = f(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        return out, peak
    return run
