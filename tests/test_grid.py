import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from pggwave import (Profile, StateVec, WeightPair, apply_advection_diffusion,
                     assemble_weighted_operator, derive_params, dynamics, grid,
                     kpp, load_profile, make_bounds, make_grid, reaction,
                     residual, save_profile, wave)
from pggwave.grid import (boundary_vector, level_crossing, linearization_bands,
                          stencil_bands, translate, write_csv)
from pggwave.errors import GridError, LevelNotCrossedError


def test_make_grid_examples():
    g = make_grid(10.0, 3)
    assert g.h == 5.0
    assert np.allclose(g.nodes, [-5.0, 0.0, 5.0])
    g = make_grid(40.0, 3999)
    assert g.h == pytest.approx(0.02, abs=1e-15)
    assert g.nodes[0] == pytest.approx(-40.0 + g.h)
    assert g.nodes[-1] == pytest.approx(40.0 - g.h)


@pytest.mark.parametrize("L,n", [(1.0, 2), (0.0, 9), (-3.0, 9)])
def test_make_grid_rejects(L, n):
    with pytest.raises(GridError):
        make_grid(L, n)


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


def _const_profile(g, state, c=1.25):
    return Profile(grid=g, knots=np.full((g.n + 2, 2), state), c=c)


def test_residual_zero_at_equilibria(base_params):
    g = make_grid(20.0, 199)
    p = base_params
    for state in [(0.0, 0.0), (p.kstar, 1.0)]:
        res = residual(p, _const_profile(g, state))
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
        prof = Profile(grid=g, knots=np.column_stack((u, v)), c=c)
        errs.append(np.max(np.abs(residual(p, prof) - exact)))
    order = np.log2(errs[0] / errs[1])
    assert 1.9 < order < 2.1


def test_profile_length_validation():
    g = make_grid(10.0, 9)
    for shape in ((9, 2), (11,), (11, 3), (13, 2), (2, 11)):
        with pytest.raises(GridError):
            Profile(grid=g, knots=np.zeros(shape), c=None)


def test_profile_components_view_knots_and_samples_copy():
    g = make_grid(10.0, 9)
    knots = np.arange(2.0 * (g.n + 2)).reshape(g.n + 2, 2)
    prof = Profile(grid=g, knots=knots.copy(), c=1.0)
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
    prof = Profile(grid=g, knots=knots, c=1.25)
    csv = tmp_path / "profile.csv"
    save_profile(prof, csv, alpha=0.25, k=0.5, sigma1=0.05, sigma2=0.5)
    loaded, meta = load_profile(csv)
    assert np.array_equal(loaded.knots, prof.knots)
    assert loaded.c == prof.c
    assert meta == {"alpha": 0.25, "k": 0.5, "c": 1.25, "L": 7.0, "n": 23,
                    "sigma1": 0.05, "sigma2": 0.5}


def test_load_profile_rejects_bad_header_and_row_count(tmp_path):
    g = make_grid(7.0, 23)
    csv = tmp_path / "profile.csv"
    save_profile(Profile(grid=g, knots=np.zeros((g.n + 2, 2)), c=1.25), csv,
                 alpha=0.25, k=0.5)
    rows = csv.read_text().splitlines()
    csv.write_text("\n".join(["xi,v,u", *rows[1:]]) + "\n")
    with pytest.raises(ValueError, match="header"):
        load_profile(csv)
    csv.write_text("\n".join(rows[:-1]) + "\n")
    with pytest.raises(ValueError, match="row count"):
        load_profile(csv)


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


# --- phase translation: scipy's PCHIP and brentq are the oracles ---

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
def test_translate_is_scipy_pchip_bit_for_bit(x0):
    g, cases = _pchip_data()
    xs = np.concatenate(([-g.L], g.nodes, [g.L]))
    for ys in cases:
        want = PchipInterpolator(xs, ys)(np.clip(xs + x0, -g.L, g.L))
        got = translate(g, ys, x0)
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


def test_linearization_bands_are_residual_jacobian():
    p = derive_params(0.25, 0.5)
    g = make_grid(10.0, 199)
    x = g.nodes
    sig = 1.0 / (1.0 + np.exp(-x))
    knots = np.vstack(([1e-5, 1e-5], np.stack([p.kstar * sig, sig], axis=1),
                       [p.kstar, 1.0]))
    prof = Profile(grid=g, knots=knots, c=1.25)
    bands = linearization_bands(p, prof)
    # the spectrum's zero-weight operator is the same matrix, bit for bit
    op = assemble_weighted_operator(p, prof, WeightPair(0.0, 0.0))
    assert np.array_equal(op.bands, bands)
    # directional derivative of the residual against the banded product
    e = np.sin(0.37 * np.arange(2 * g.n)).reshape(g.n, 2)
    eps = 1e-6
    knots = knots.copy()
    knots[1:-1] += eps * e
    plus = Profile(grid=g, knots=knots, c=prof.c)
    fd = ((residual(p, plus) - residual(p, prof)) / eps).ravel()
    Je = op.to_dense() @ e.ravel()
    assert np.max(np.abs(fd - Je)) < 1e-4 * np.max(np.abs(Je))


def _tridiagonal(ab):
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)


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
                + scale * boundary_vector(g, c, bl, br))
    explicit = (scale * apply_advection_diffusion(g, c, np.r_[bl, f, br])
                + diag * f)
    assert np.max(np.abs(implicit - explicit)) < 1e-12 / g.h**2


def test_stencil_two_columns_match_per_column():
    g = make_grid(10.0, 57)
    F = np.vstack(([0.1, -1.0],
                   np.stack([np.sin(g.nodes), np.tanh(g.nodes)], axis=1),
                   [0.2, 1.0]))
    both = apply_advection_diffusion(g, 1.25, F)
    ghosts = boundary_vector(g, 1.25, F[0], F[-1])
    for j in range(2):
        assert np.array_equal(both[:, j],
                              apply_advection_diffusion(g, 1.25, F[:, j]))
        assert np.array_equal(ghosts[:, j],
                              boundary_vector(g, 1.25, F[0, j], F[-1, j]))


def test_banded_solves_stay_in_their_callers_module(monkeypatch):
    # the benchmark tracer counts banded solves through each layer's own
    # ``solve_banded`` name and books time by public function, so the shared
    # sweep-Newton driver must stay private and leave the solves to the
    # modules whose closures it calls
    assert "_sweep_newton" not in grid.__all__
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
    prof, _ = wave.solve_wave(p, c, g, bp, tol=1e-10)
    assert counts["pggwave.wave"] > 0 and set(counts) == {"pggwave.wave"}
    counts.clear()
    dynamics.run_simulation(p, c, prof, dynamics.SimConfig(t_end=0.05))
    assert counts == {"pggwave.dynamics": 5}
