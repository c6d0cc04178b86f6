import json
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.interpolate import PchipInterpolator
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from pggwave import (Profile, StateVec, WeightPair, apply_advection_diffusion,
                     assemble_weighted_operator, derive_params, dynamics, grid,
                     kpp, make_bounds, make_grid, order_shift, reaction,
                     residual, save_profile, spectrum, wave)
from pggwave.cli import main
from pggwave.grid import (level_crossing, linearization_bands, stencil_bands,
                          write_csv, write_json)
from pggwave.errors import (ConvergenceError, FitWindowError, GridError,
                            LevelNotCrossedError, ParameterError)


def test_make_grid_examples():
    g = make_grid(10.0, 3)
    assert g.h == 5.0
    assert np.allclose(g.nodes, [-5.0, 0.0, 5.0])
    g = make_grid(40.0, 3999)
    assert g.h == pytest.approx(0.02, abs=1e-15)
    assert g.nodes[0] == pytest.approx(-40.0 + g.h)
    assert g.nodes[-1] == pytest.approx(40.0 - g.h)


# a non-integer n: int(3999.7) would build 3999 nodes spaced for 4000.7,
# so the last node would not sit at L - h
@pytest.mark.parametrize("L,n", [(1.0, 2), (0.0, 9), (-3.0, 9), (40.0, 3999.7),
                                 (40.0, 3999.0), (40.0, np.float64(399)),
                                 (40.0, "399")])
def test_make_grid_rejects(L, n):
    with pytest.raises(GridError):
        make_grid(L, n)


@pytest.mark.parametrize("n", [np.int64(399), np.int32(399)])
def test_make_grid_accepts_numpy_integers(n):
    g = make_grid(40.0, n)
    assert type(g.n) is int and g.n == 399
    assert g.nodes[-1] == pytest.approx(40.0 - g.h, abs=1e-12)


def test_operator_exact_on_linears():
    g = make_grid(10.0, 99)
    out = apply_advection_diffusion(g, 0.0, 0.7 * g.knots - 0.2)
    assert np.max(np.abs(out)) < 1e-12


def test_operator_exact_on_quadratics():
    g = make_grid(10.0, 19)
    out = apply_advection_diffusion(g, 0.0, g.knots**2)
    assert np.max(np.abs(out - 2.0)) < 1e-12


def test_operator_second_order_on_sine():
    errs = []
    for n in (199, 399):
        g = make_grid(10.0, n)
        out = apply_advection_diffusion(g, 1.0, np.sin(g.knots))
        exact = -np.sin(g.nodes) - np.cos(g.nodes)
        errs.append(np.max(np.abs(out - exact)))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def _const_profile(g, p, state, c=1.25):
    return Profile(grid=g, knots=np.full((g.n + 2, 2), state), c=c, params=p)


def test_residual_zero_at_equilibria(base_params):
    g = make_grid(20.0, 199)
    p = base_params
    for state in [(0.0, 0.0), (p.kstar, 1.0)]:
        res = residual(_const_profile(g, p, state))
        assert np.max(np.abs(res)) < 1e-14


def test_residual_observed_order(base_params):
    # manufactured smooth profile with closed-form derivatives
    p = base_params
    c = 1.1
    errs = []
    for n in (199, 399):
        g = make_grid(10.0, n)
        xi = g.nodes
        u = 0.3 * (1.0 + np.tanh(g.knots / 3.0))
        v = 0.5 * (1.0 + np.tanh(g.knots / 4.0))
        du = 0.3 / 3.0 / np.cosh(xi / 3.0) ** 2
        dv = 0.5 / 4.0 / np.cosh(xi / 4.0) ** 2
        ddu = -2.0 * 0.3 / 9.0 * np.tanh(xi / 3.0) / np.cosh(xi / 3.0) ** 2
        ddv = -2.0 * 0.5 / 16.0 * np.tanh(xi / 4.0) / np.cosh(xi / 4.0) ** 2
        f = reaction(p, StateVec(u[1:-1], v[1:-1]))
        exact = np.stack([ddu - c * du + f[0], ddv - c * dv + f[1]], axis=1)
        prof = Profile(grid=g, knots=np.column_stack((u, v)), c=c, params=p)
        errs.append(np.max(np.abs(residual(prof) - exact)))
    order = np.log2(errs[0] / errs[1])
    assert 1.9 < order < 2.1


def test_profile_length_validation(base_params):
    g = make_grid(10.0, 9)
    for shape in ((9, 2), (11,), (11, 3), (13, 2), (2, 11)):
        with pytest.raises(GridError):
            Profile(grid=g, knots=np.zeros(shape), c=1.0, params=base_params)
    # a stencil reads its ghosts from the two end rows, so it needs them
    with pytest.raises(GridError, match="n\\+2 rows"):
        apply_advection_diffusion(g, 1.0, np.zeros(g.n))


def test_profile_components_view_knots_and_samples_copy(base_params):
    g = make_grid(10.0, 9)
    knots = np.arange(2.0 * (g.n + 2)).reshape(g.n + 2, 2)
    prof = Profile(grid=g, knots=knots.copy(), c=1.0, params=base_params)
    assert np.array_equal(prof.u, knots[1:-1, 0])
    assert np.array_equal(prof.v, knots[1:-1, 1])
    S = prof.samples()
    assert np.array_equal(S, knots[1:-1])
    S[...] = -1.0
    assert np.array_equal(prof.knots, knots)


def test_serialization_round_trip(tmp_path):
    g = make_grid(7.0, 23)
    rng = np.random.default_rng(3)
    knots = np.vstack(([0.0, 0.0], rng.standard_normal((g.n, 2)), [1.2, 1.0]))
    prof = Profile(grid=g, knots=knots, c=1.25, params=derive_params(0.3, 0.6),
                   x0=0.37)
    csv = tmp_path / "profile.csv"
    save_profile(prof, csv)
    # the rows are the knots as they are, at xi = knots - x0
    rows = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 0], g.knots - 0.37)
    assert np.array_equal(rows[:, 1:], knots)
    # the sidecar records the problem and the origin, and nothing else
    meta = json.loads(csv.with_suffix(".json").read_text())
    assert meta == {"alpha": 0.3, "k": 0.6, "c": 1.25, "L": 7.0, "n": 23,
                    "x0": 0.37}


def test_lapack_routines_are_scipys_own():
    # grid loads scipy's LAPACK extension from its file, beside the package
    # scipy.linalg; both loads hold the same routine objects, so the solves
    # run the routines scipy.linalg.lapack exports, bit for bit
    for used, name in ((grid.dgbsv, "dgbsv"), (grid.dgtsv, "dgtsv"),
                       (spectrum.dgbtrf, "dgbtrf"), (spectrum.dgbtrs, "dgbtrs"),
                       (dynamics.dpttrf, "dpttrf"), (dynamics.dpttrs, "dpttrs")):
        assert used is getattr(scipy.linalg.lapack, name), name


def test_write_csv_matches_per_value_format(tmp_path):
    special = [0.0, -0.0, 5e-324, 1e-300, 1.0 / 3.0, np.inf, -np.inf, np.nan,
               -2.5, 1e17]
    cols = [np.array(special), np.array(special[::-1]), np.arange(10)]
    path = tmp_path / "t.csv"
    write_csv(path, "a,b,c", *cols)
    rows = [",".join(f"{x:.17g}" for x in row) for row in zip(*cols)]
    assert path.read_text() == "\n".join(["a,b,c", *rows]) + "\n"
    write_csv(path, "a,b", [], [])
    assert path.read_text() == "a,b\n"


def _joined_csv(header, *columns):
    """The CSV of ``write_csv`` built in memory at once: every row
    formatted, then one join."""
    row = ",".join(["%.17g"] * len(columns))
    cols = [np.asarray(col, dtype=float).tolist() for col in columns]
    return "\n".join([header, *(row % vals for vals in zip(*cols))]) + "\n"


BLOCK = grid._CSV_BLOCK


@pytest.mark.parametrize("rows", [0, 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_write_csv_streams_the_joined_bytes(tmp_path, rows):
    rng = np.random.default_rng(rows)
    cols = [rng.standard_normal(rows), np.arange(rows),
            1e300 * rng.standard_normal(rows)]
    path = tmp_path / "t.csv"
    write_csv(path, "a,b,c", *cols)
    assert path.read_bytes() == _joined_csv("a,b,c", *cols).encode()


@pytest.mark.parametrize("rows", [8002, 80002])
def test_write_csv_memory_does_not_grow_with_rows(tmp_path, rows):
    # a profile's three columns at n = 7999 and ten times that; holding the
    # whole text, as a joined writer does, takes ~3 MB at the first size
    cols = [np.linspace(-80.0, 80.0, rows), np.linspace(0.0, 1.0, rows) / 3,
            np.linspace(0.0, 1.0, rows) / 7]
    tracemalloc.start()
    try:
        write_csv(tmp_path / "t.csv", "xi,u,v", *cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@dataclass(frozen=True)
class _Inner:
    root: complex


@dataclass(frozen=True)
class _Report:
    window: tuple
    values: np.ndarray
    inner: _Inner
    beta: float


def test_write_json_serialises_dataclass_fields(tmp_path):
    path = tmp_path / "sub" / "report.json"
    write_json(path, _Report(window=(-35.0, -20), values=np.array([0.1, -3.0]),
                             inner=_Inner(root=0.5 - 2j), beta=1.0 / 3.0))
    assert path.read_text() == """{
  "beta": 0.3333333333333333,
  "inner": {
    "root": [
      0.5,
      -2.0
    ]
  },
  "values": [
    0.1,
    -3.0
  ],
  "window": [
    -35.0,
    -20
  ]
}
"""


def test_write_json_refuses_unknown_objects(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(TypeError, match="set"):
        write_json(path, {"points": {1, 2}})
    assert not path.exists()


# --- the PCHIP segments and level crossings: scipy's PCHIP and brentq are
# the oracles ---

PCHIP_GRID = (20.0, 799)


def _pchip_data():
    """Knot arrays: a smooth front, a front pair, and a rounded random walk
    whose flat runs and sign changes zero interior slopes and whose ends are
    set so both end-slope clamps act (left: capped at 3 m0; right: zeroed
    against m0's sign)."""
    g = make_grid(*PCHIP_GRID)
    u = 0.6 * (1.0 + np.tanh(g.nodes / 5.0))
    v = 0.5 * (1.0 + np.tanh(g.nodes / 3.0))
    walk = np.round(np.random.default_rng(5).standard_normal(g.n).cumsum(), 1)
    walk[:2] = (1.0, -4.0)
    walk[-2:] = (0.0, 4.0)
    return g, [np.concatenate(([0.0], v, [1.0])),
               np.vstack(([0.0, 0.0], np.stack([u, v], axis=1), [1.2, 1.0])),
               np.concatenate(([0.0], walk, [5.0])),
               np.vstack(([0.0, -0.0], np.stack([walk, -walk], axis=1),
                          [5.0, -5.0]))]


@pytest.mark.parametrize("x0", [0.0, 1e-9, 0.37, -2.5, 3.7, 25.0, -25.0])
def test_monotone_interpolant_cubic_is_scipy_pchip_bit_for_bit(x0):
    # the segments of ``monotone_interpolant``, each summed by ``_cubic``,
    # at the knots translated by x0 and clamped to [-L, L]: what
    # ``level_crossing`` and the scalar fronts' phase row read
    g, cases = _pchip_data()
    xs = g.knots
    q = np.clip(xs + x0, -g.L, g.L)
    # segment i holds xs[i] <= q < xs[i+1]; the last knot closes the last
    i = np.minimum(np.searchsorted(xs, q, side="right") - 1, len(xs) - 2)
    for ys in cases:
        want = PchipInterpolator(xs, ys)(q)
        seg = [a[i] for a in grid.monotone_interpolant(xs, ys)]
        s = (q - xs[i]).reshape((-1,) + (1,) * (ys.ndim - 1))
        got = grid._cubic(seg, s)
        assert got.shape == ys.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("level", [0.5, 0.1, 0.9, 0.01234, 0.99])
def test_level_crossing_matches_brentq(level):
    g, cases = _pchip_data()
    ys = cases[0]
    xs = np.concatenate(([-g.L], g.nodes, [g.L]))
    interp = PchipInterpolator(xs, ys)
    i = int(np.nonzero(ys >= level)[0][0])
    want = brentq(lambda x: float(interp(x)) - level, xs[i - 1], xs[i],
                  xtol=1e-14)
    got = level_crossing(g, ys, level)
    # brentq's own accuracy, xtol + rtol |x| with its default rtol = 4 eps;
    # bisection to adjacent floats lands at least as close to the level
    assert abs(got - want) <= 1e-14 + 4.0 * np.finfo(float).eps * abs(want)
    assert abs(interp(got) - level) <= abs(interp(want) - level)
    assert xs[i - 1] < got <= xs[i]


def _full_crossing(g, ys, level):
    """The crossing bisected on the segment of the interpolant over all
    knots: what ``level_crossing`` reads off four."""
    xs = g.knots
    i = int(np.nonzero(ys >= level)[0][0])
    x_lo = lo = float(xs[i - 1])
    hi = float(xs[i])
    seg = [float(a[i - 1]) for a in grid.monotone_interpolant(xs, ys)]

    def f(x):
        return grid._cubic(seg, x - x_lo) - level

    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo if -f(lo) < f(hi) else hi


def test_level_crossing_reads_four_knots_bit_for_bit():
    # random nondecreasing data, flat runs included, and a level inside
    # every bracket, the two end segments among them
    rng = np.random.default_rng(28)
    g = make_grid(3.0, 9)
    for _ in range(50):
        steps = rng.exponential(size=g.n + 2) * (rng.uniform(size=g.n + 2)
                                                 > 0.2)
        ys = np.cumsum(steps)
        for i in np.nonzero(ys[1:] > ys[:-1])[0] + 1:
            level = ys[i - 1] + rng.uniform(0.01, 0.99) * (ys[i] - ys[i - 1])
            assert level_crossing(g, ys, level) == _full_crossing(g, ys, level)


def test_level_crossing_returns_node_at_sample_level():
    g, cases = _pchip_data()
    ys = cases[0]
    for j in (0, 123, g.n // 2, g.n - 1):
        assert level_crossing(g, ys, ys[j + 1]) == g.nodes[j]


def test_level_crossing_rejects_levels_not_crossed_upward():
    g, cases = _pchip_data()
    ys = cases[0]
    for level in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(LevelNotCrossedError, match="on the domain"):
            level_crossing(g, ys, level)
    with pytest.raises(LevelNotCrossedError, match="upward"):
        level_crossing(g, ys[::-1], 0.5)
    # the n interior samples alone are no knot values: read as knots they
    # would put the crossing one node off
    with pytest.raises(GridError, match="n\\+2 rows"):
        level_crossing(g, ys[1:-1], 0.5)


def test_linearization_bands_are_residual_jacobian():
    p = derive_params(0.25, 0.5)
    g = make_grid(10.0, 199)
    x = g.nodes
    sig = 1.0 / (1.0 + np.exp(-x))
    knots = np.vstack(([1e-5, 1e-5], np.stack([p.kstar * sig, sig], axis=1),
                       [p.kstar, 1.0]))
    prof = Profile(grid=g, knots=knots, c=1.25, params=p)
    bands = linearization_bands(prof)
    # the spectrum's zero-weight operator is the same matrix, bit for bit
    op = assemble_weighted_operator(prof, WeightPair(0.0, 0.0))
    assert np.array_equal(op.bands, bands)
    # directional derivative of the residual against the banded product
    e = np.sin(0.37 * np.arange(2 * g.n)).reshape(g.n, 2)
    eps = 1e-6
    knots = knots.copy()
    knots[1:-1] += eps * e
    plus = replace(prof, knots=knots)
    fd = ((residual(plus) - residual(prof)) / eps).ravel()
    Je = op.to_dense() @ e.ravel()
    assert np.max(np.abs(fd - Je)) < 1e-4 * np.max(np.abs(Je))


def test_linearization_bands_fill_a_dgbsv_workspace(base_wave, base_bounds):
    # the band rows of a Newton step's (7, 2n) workspace: NaN before the
    # front, the front's LU factors before the shifted upper bound
    profiles = (base_wave[0], base_bounds.shifted_upper)
    work = np.full((7, 2 * profiles[0].grid.n), np.nan, order="F")
    b = np.random.default_rng(7).standard_normal(work.shape[1])
    for prof in profiles:
        out = linearization_bands(prof, out=work[2:])
        assert np.shares_memory(out, work)
        assert not np.isnan(work[2:]).any()
        assert np.array_equal(work[2:], linearization_bands(prof))
        grid._banded_solve((2, 2), work, b.copy())
    # a weighted operator's bands, written over factors, as returned
    g1, g2 = 0.3 * np.tanh(profiles[0].grid.nodes), 0.1
    linearization_bands(profiles[0], g1, g2, out=work[2:])
    assert np.array_equal(work[2:],
                          linearization_bands(profiles[0], g1, g2))


def test_linearization_bands_refuse_a_band_array_of_another_shape(base_wave):
    prof = base_wave[0]
    work = np.zeros((7, 2 * prof.grid.n - 2), order="F")
    with pytest.raises(GridError, match="band array"):
        linearization_bands(prof, out=work[2:])
    assert not work.any()


def _tridiagonal(ab):
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)


def _ghost_vector(g, c, left, right):
    """T's ghost terms as a whole right-hand side: ``grid._ghost_rows`` in
    rows 0 and n-1, zero between."""
    out = np.zeros((g.n,) + np.shape(left))
    out[0], out[-1] = grid._ghost_rows(g, c, left, right)
    return out


@pytest.mark.parametrize("scale,diag", [
    (1.0, np.linspace(-0.3, 0.2, 57)),   # scalar Newton: T + diag(f'(w))
    (-1.0, 1.7),                          # monotone sweeps: beta - T
    (-0.005, 1.0),                        # Crank-Nicolson: I - dt/2 T
])
def test_stencil_bands_match_explicit_stencil(scale, diag):
    # implicit half (bands and ghost terms) and explicit half are one operator
    g = make_grid(10.0, 57)
    c, bl, br = 1.25, 0.3, -0.8
    f = np.cos(0.4 * g.nodes) + 0.1 * g.nodes
    implicit = (_tridiagonal(stencil_bands(g, c, scale, diag)) @ f
                + scale * _ghost_vector(g, c, bl, br))
    explicit = (scale * apply_advection_diffusion(g, c, np.r_[bl, f, br])
                + diag * f)
    assert np.max(np.abs(implicit - explicit)) < 1e-12 / g.h**2


@pytest.mark.parametrize("scale,diag", [(1.0, 0.0), (-0.005, 1.0)],
                         ids=["T", "I - dt/2 T"])
@pytest.mark.parametrize("n", [57, 58], ids=["odd", "even"])
def test_half_line_mirror_row(n, scale, diag):
    # for an even function the half-line bands, row 0 divided by its cell
    # share, give the full-line product at x >= 0; the bands stay symmetric
    g = make_grid(10.0, n)
    half = grid.half_line(g)
    assert half.nodes[0] == (0.0 if n % 2 else half.h / 2)
    assert half.knots[0] == -half.knots[1 + half.mirror_row]
    assert half.nodes[-1] + half.h == pytest.approx(g.L, rel=1e-15)
    f = np.cos(0.4 * g.knots) + 0.01 * g.knots**2
    fh = np.cos(0.4 * half.knots) + 0.01 * half.knots**2
    full = (_tridiagonal(stencil_bands(g, 0.0, scale, diag)) @ f[1:-1]
            + scale * _ghost_vector(g, 0.0, f[0], f[-1]))
    ab = stencil_bands(half, 0.0, scale, diag)
    got = (_tridiagonal(ab) @ fh[1:-1]
           + scale * _ghost_vector(half, 0.0, fh[0], fh[-1]))
    got[0] /= half.first_cell
    want = full[-half.n:]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # the mirror row holds the ghost the full-line stencil reads
    assert np.max(np.abs(apply_advection_diffusion(half, 0.0, fh)
                         - apply_advection_diffusion(g, 0.0, f)[-half.n:])
                  ) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(ab[0, 1:], ab[2, :-1])
    if diag == 1.0:     # the step matrix factors without a scale
        assert dynamics.factor_banded(ab)[1] is None
    with pytest.raises(GridError, match="even"):
        stencil_bands(half, 0.1, scale, diag)


def test_stencil_two_columns_match_per_column():
    g = make_grid(10.0, 57)
    F = np.vstack(([0.1, -1.0],
                   np.stack([np.sin(g.nodes), np.tanh(g.nodes)], axis=1),
                   [0.2, 1.0]))
    both = apply_advection_diffusion(g, 1.25, F)
    ghosts = grid._ghost_rows(g, 1.25, F[0], F[-1])
    for j in range(2):
        assert np.array_equal(both[:, j],
                              apply_advection_diffusion(g, 1.25, F[:, j]))
        one = grid._ghost_rows(g, 1.25, F[0, j], F[-1, j])
        assert [row[j] for row in ghosts] == list(one)


def test_banded_solves_stay_in_their_callers_module(monkeypatch):
    # the benchmark tracer counts banded solves through each layer's own
    # ``solve_banded`` name and books time by public function, so the shared
    # sweep-Newton driver must stay private and leave the solves to the
    # modules whose closures it calls; both front solves bind that name to
    # the one LAPACK helper
    assert "_sweep_newton" not in grid.__all__
    assert kpp.solve_banded is wave.solve_banded is grid._banded_solve
    counts = {}
    for mod in (kpp, wave, dynamics):
        def counted(*args, _name=mod.__name__, _fn=mod.solve_banded,
                    **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, "solve_banded", counted)

    p = derive_params(0.25, 0.5)
    c, g = 1.25, make_grid(20.0, 199)
    bp = make_bounds(p, c, g)
    assert counts["pggwave.kpp"] > 0 and set(counts) == {"pggwave.kpp"}
    counts.clear()
    prof, _ = wave.solve_wave(bp, tol=1e-10)
    assert counts["pggwave.wave"] > 0 and set(counts) == {"pggwave.wave"}
    counts.clear()
    dynamics.run_simulation(prof, dynamics.SimConfig(t_end=0.05))
    assert counts == {"pggwave.dynamics": 5}


def test_banded_solve_is_solve_banded_bit_for_bit(base_wave):
    rng = np.random.default_rng(28)
    n = 300
    ab = np.vstack([rng.uniform(-1.0, 1.0, n), rng.uniform(3.0, 4.0, n),
                    rng.uniform(-1.0, 1.0, n)])
    for b in (rng.standard_normal(n), rng.standard_normal((n, 2))):
        ab_in, b_in = ab.copy(), b.copy()
        x = grid._banded_solve((1, 1), ab, b)
        assert np.array_equal(x, solve_banded((1, 1), ab, b))
        # a (1, 1) solve leaves its bands and right-hand side as they were
        assert np.array_equal(ab, ab_in) and np.array_equal(b, b_in)

    prof, _ = base_wave
    bands = linearization_bands(prof)
    b = rng.standard_normal(bands.shape[1])
    want = solve_banded((2, 2), bands, b)
    work = np.full((7, bands.shape[1]), np.nan, order="F")
    # fill rows of NaN first, then of the last factorisation's fill
    for _ in range(2):
        work[2:] = bands
        assert np.array_equal(grid._banded_solve((2, 2), work, b.copy()),
                              want)


@pytest.mark.parametrize("rows", [3, 7], ids=["(1, 1)", "(2, 2)"])
def test_banded_solve_raises_on_a_zero_pivot(rows):
    # a zero column stays zero through the elimination: pivot 4 is zero
    bands = np.asfortranarray(
        np.random.default_rng(rows).uniform(1.0, 2.0, (rows, 8)))
    bands[:, 3] = 0.0
    lu = (1, 1) if rows == 3 else (2, 2)
    with pytest.raises(ConvergenceError, match="zero pivot in row 4"):
        grid._banded_solve(lu, bands, np.ones(8))


def test_non_finite_sweep_fails_at_once(tmp_path, monkeypatch):
    # with no finiteness scan in the solves, a NaN iterate would otherwise
    # spend the whole sweep budget; the CLI reports it as a convergence
    # failure
    sweeps = []

    def nan_sweep(*args):
        beta, _ = grid._shifted_sweep(*args)

        def sweep(U):
            sweeps.append(1)
            return np.full_like(U, np.nan)
        return beta, sweep

    monkeypatch.setattr(wave, "_shifted_sweep", nan_sweep)
    p, c, g = derive_params(0.25, 0.5), 1.25, make_grid(20.0, 199)
    with pytest.raises(ConvergenceError, match="sweep 1 is not finite"):
        wave.solve_wave(make_bounds(p, c, g))
    assert len(sweeps) == 1
    assert main(["wave", "--L", "20", "--n", "199",
                 "--output-dir", str(tmp_path)]) == 3
    assert len(sweeps) == 2


def test_grids_compare_and_hash_by_value():
    a, b = make_grid(40.0, 3999), make_grid(40.0, 3999)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, grid.half_line(a)}) == 2
    assert a != make_grid(40.0, 4000) and a != make_grid(20.0, 3999)
    assert grid.half_line(a) != a
    # n = 2m - 1 and n = 2m give half lines of one L, m and mirror, whose
    # spacing and nodes differ
    odd, even = grid.half_line(make_grid(10.0, 99)), grid.half_line(
        make_grid(10.0, 100))
    assert (odd.L, odd.n, odd.mirror) == (even.L, even.n, even.mirror)
    assert odd != even and hash(odd) != hash(even)
    assert grid.half_line(a) == grid.half_line(b)


def test_order_shift_refuses_bounds_on_two_grids(base_bounds):
    other = make_grid(20.0, 199)
    lower = replace(base_bounds.lower, grid=other,
                    knots=np.zeros((other.n + 2, 2)))
    with pytest.raises(ParameterError, match="bounds must share one grid"):
        order_shift(base_bounds.upper, lower)


def _parent_sweep(g, c, F, diag, left, right, solve):
    """The sweep as it was before it solved in place: a fresh C-ordered
    right-hand side, which dgtsv copies."""
    beta = 1.0 + max(0.0, float(-np.min(diag)))
    ab = stencil_bands(g, c, -1.0, beta)
    bvec = _ghost_vector(g, c, left, right)
    return beta, lambda U: solve((1, 1), ab, F(U) + beta * U + bvec)


def test_wave_sweep_solves_in_place_with_the_same_bits(monkeypatch):
    bp = make_bounds(derive_params(0.25, 0.5), 1.0, make_grid(80.0, 8000))
    solve = wave.solve_banded
    in_place = []

    def recorded(l_and_u, ab, b, **kwargs):
        x = solve(l_and_u, ab, b, **kwargs)
        if l_and_u == (1, 1):
            in_place.append(b.flags.f_contiguous and np.shares_memory(x, b))
        return x

    monkeypatch.setattr(wave, "solve_banded", recorded)
    front, report = wave.solve_wave(bp)
    assert len(in_place) == report.iterations and all(in_place)

    monkeypatch.setattr(wave, "_shifted_sweep", _parent_sweep)
    parent, _ = wave.solve_wave(bp)
    assert np.array_equal(front.knots, parent.knots)


def test_least_squares_line_matches_polyfit():
    # the workloads' fits: tail rates at x in [-75, -40], the decay
    # constant and the spreading speed at t in [40, 80]
    rng = np.random.default_rng(37)
    for lo, hi in ((-75.0, -40.0), (40.0, 80.0)):
        for _ in range(25):
            x = np.sort(rng.uniform(lo, hi, 400))
            slope = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
            noise = 1e-3 * rng.standard_normal(x.size)
            y = slope * x + rng.uniform(-5.0, 5.0) + noise
            got = grid.least_squares_line(x, y, ValueError)
            (a, b), ss_res, *_ = np.polyfit(x, y, 1, full=True)
            assert got[0] == pytest.approx(a, rel=1e-12, abs=0.0)
            # the intercept is extrapolated to x = 0
            reach = abs(b) + abs(a) * max(-lo, hi)
            assert got[1] == pytest.approx(b, rel=0.0, abs=1e-12 * reach)
            r2 = 1.0 - ss_res[0] / np.sum((y - y.mean()) ** 2)
            assert got[2] == pytest.approx(r2, rel=0.0, abs=1e-12)


def test_least_squares_line_exact_and_degenerate():
    x = np.linspace(-75.0, -40.0, 351)
    slope, intercept, r2 = grid.least_squares_line(x, 0.25 * x - 1.5,
                                                   ValueError)
    assert slope == pytest.approx(0.25, rel=1e-14)
    assert intercept == pytest.approx(-1.5, rel=1e-13)
    assert r2 == 1.0
    assert grid.least_squares_line(x, np.full_like(x, 0.5),
                                   ValueError) == (0.0, 0.5, 1.0)
    slope, intercept, _ = grid.least_squares_line(x, np.full_like(x, 0.7),
                                                  ValueError)
    assert abs(slope) < 1e-16 and intercept == pytest.approx(0.7, rel=1e-14)
    # fewer than two distinct abscissae raise the caller's error type
    for xs in ([], [3.0], [3.0, 3.0, 3.0]):
        with pytest.raises(FitWindowError, match="two distinct abscissae"):
            grid.least_squares_line(xs, np.ones(len(xs)), FitWindowError)
