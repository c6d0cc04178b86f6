"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any failure prints FAIL with the measured numbers.
"""

import math

import numpy as np
import pytest

from pggwave import (SimConfig, StateVec, WeightPair, assemble_weighted_operator,
                     derive_params, essential_spectrum_max, fit_decay,
                     instability_experiment, jacobian, make_bounds, make_grid,
                     normalize_phase, reaction, residual, solve_wave,
                     spreading_experiment, stability_experiment,
                     subcritical_verdict, translation_mode_check, weight_window)
from pggwave.bounds import verify_bound
from pggwave.errors import EmptyWindowError
from pggwave.spectrum import branch_vertices
from pggwave.wave import check_monotone

C = 1.25


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def wave60(base_params):
    g = make_grid(60.0, 5999)
    bp = make_bounds(base_params, C, g)
    prof, _ = solve_wave(bp, tol=1e-10)
    return normalize_phase(prof)


@pytest.fixture(scope="module")
def wave_critical(base_params):
    g = make_grid(80.0, 7999)
    bp = make_bounds(base_params, 1.0, g)
    prof, _ = solve_wave(bp, tol=1e-10)
    return normalize_phase(prof)


@pytest.fixture(scope="module")
def coarse_wave_400(base_params):
    g = make_grid(40.0, 400)
    bp = make_bounds(base_params, C, g)
    prof, _ = solve_wave(bp, tol=1e-11)
    return prof


def test_criterion_01_wave_existence(base_params, base_bounds, base_wave):
    prof, rep = base_wave
    res = float(np.max(np.abs(residual(base_params, prof))))
    du, dv = check_monotone(prof)
    upper_env = base_bounds.shifted_upper.samples()
    lower_env = base_bounds.lower.samples()
    slack = min(float(np.min(upper_env - prof.samples())),
                float(np.min(prof.samples() - lower_env)))
    ok = rep.converged and res < 1e-8 and du > 0 and dv > 0 and slack >= -1e-12
    _report(1, ok, f"residual {res:.2e} (<1e-8), min fwd diffs "
                   f"({du:.2e}, {dv:.2e}) > 0, envelope slack {slack:.2e}")


def test_criterion_02_decay_rates(base_params, base_wave_normalized, wave60):
    fits40 = {s: fit_decay(base_wave_normalized, base_params, s)
              for s in ("-inf", "+inf")}
    fits60 = {s: fit_decay(wave60, base_params, s) for s in ("-inf", "+inf")}
    rm, rp = fits40["-inf"], fits40["+inf"]
    ok40_m = (abs(rm.rate_u - 0.25) / 0.25 < 0.02
              and abs(rm.rate_v - 0.25) / 0.25 < 0.02)
    ok40_p = (abs(rp.rate_u - (-0.1753906)) / 0.1753906 < 0.05
              and abs(rp.rate_v - (-0.1753906)) / 0.1753906 < 0.05)
    shrink = True
    for side in ("-inf", "+inf"):
        for comp in ("rate_u", "rate_v"):
            e40 = abs(getattr(fits40[side], comp) - fits40[side].predicted_rate)
            e60 = abs(getattr(fits60[side], comp) - fits60[side].predicted_rate)
            shrink &= e60 < e40
    _report(2, ok40_m and ok40_p and shrink,
            f"-inf rates ({rm.rate_u:.4f}, {rm.rate_v:.4f}) vs 0.25; "
            f"+inf rates ({rp.rate_u:.5f}, {rp.rate_v:.5f}) vs -0.17539; "
            f"errors shrink at L=60: {shrink}")


def test_criterion_03_shared_exponent(base_params, base_wave_normalized):
    agree = []
    for side in ("-inf", "+inf"):
        f = fit_decay(base_wave_normalized, base_params, side)
        agree.append(abs(f.rate_u - f.rate_v) / abs(f.rate_u) < 0.03)
    _report(3, all(agree), f"u/v rate agreement within 3% per side: {agree}")


def test_criterion_04_critical_wave(base_params, wave_critical):
    f = fit_decay(wave_critical, base_params, "+inf")
    target = -0.2071068
    err_u = abs(f.rate_u - target) / abs(target)
    err_v = abs(f.rate_v - target) / abs(target)
    ok = err_u < 0.10 and err_v < 0.10
    _report(4, ok, f"critical +inf rates ({f.rate_u:.5f}, {f.rate_v:.5f}) vs "
                   f"{target}; errors ({err_u:.1%}, {err_v:.1%}) < 10%")


def test_criterion_05_uniqueness_normalization(base_params, base_grid):
    waves = []
    for l in (0.2, 0.4):
        bp = make_bounds(base_params, C, base_grid, l=l)
        prof, _ = solve_wave(bp, tol=1e-10)
        waves.append(normalize_phase(prof))
    gap = float(np.max(np.abs(waves[0].samples() - waves[1].samples())))
    _report(5, gap < 1e-6, f"sup gap between l=0.2 and l=0.4 waves: {gap:.2e}")


def test_criterion_06_minimal_speed_verdicts(base_params):
    v1 = subcritical_verdict(base_params, 0.8)
    r1 = sorted(v1.roots, key=lambda z: z.imag)
    ok1 = (v1.verdict == "NoMonotoneWave"
           and abs(r1[1] - (0.4 + 0.3j)) < 1e-12
           and abs(r1[0] - (0.4 - 0.3j)) < 1e-12)
    v2 = subcritical_verdict(base_params, 1.0)
    ok2 = (v2.verdict == "CriticalAdmissible"
           and abs(v2.roots[0] - 0.5) < 1e-12 and abs(v2.roots[1] - 0.5) < 1e-12)
    v3 = subcritical_verdict(base_params, 1.25)
    ok3 = (v3.verdict == "SupercriticalAdmissible"
           and abs(v3.roots[0] - 0.25) < 1e-12 and abs(v3.roots[1] - 1.0) < 1e-12)
    _report(6, ok1 and ok2 and ok3,
            f"verdicts: {v1.verdict}, {v2.verdict}, {v3.verdict} with exact roots")


def test_criterion_07_bound_lattice():
    g = make_grid(40.0, 3999)
    worst_overall = 0.0
    count = 0
    for alpha in (0.15, 0.25, 0.4):
        for k in (0.3, 0.5, 0.7):
            p = derive_params(alpha, k)
            lmax = 1.0 - k + k * alpha
            for c in (p.cmin, 1.25 * p.cmin):
                for lfrac in (0.2, 0.4):
                    bp = make_bounds(p, c, g, l=lfrac * lmax)
                    rep_u = verify_bound(p, bp.upper, "upper")
                    rep_l = verify_bound(p, bp.lower, "lower")
                    v_res = float(np.max(np.abs(rep_u.margins[:, 1])))
                    assert v_res < 1e-8, (alpha, k, c, lfrac)
                    worst_overall = max(worst_overall, abs(rep_u.worst),
                                        abs(rep_l.worst), v_res)
                    count += 1
    _report(7, count == 36,
            f"{count}/36 lattice points verified at tol 1e-7 "
            f"(worst |margin| {worst_overall:.2e})")


def test_criterion_08_spectral_bound(base_params):
    p = base_params
    mx0, _ = essential_spectrum_max(p, C, WeightPair(0.0, 0.0))
    ok_a = abs(mx0 - p.alpha) < 1e-14
    mx1, _ = essential_spectrum_max(p, C, WeightPair(0.0, 0.5))
    ok_b = mx1 == -0.125
    win = weight_window(p, C)
    negative = 0
    for s1 in np.linspace(0.0, win.sigma1_max, 12)[:-2]:
        for s2 in np.linspace(win.sigma2_min, win.sigma2_max, 12)[1:-1]:
            mx, _ = essential_spectrum_max(p, C, WeightPair(s1, s2))
            if mx < 0:
                negative += 1
    ok_c = negative == 100
    # vertices against the limiting-matrix dispersion sweep
    ok_d = True
    w = WeightPair(0.05, 0.5)
    verts = branch_vertices(p, C, w)
    zetas = np.linspace(-3.0, 3.0, 121)
    Aplus = np.array([[-p.alpha, 0.0], [1.0 - p.k, -1.0]])
    Aminus = jacobian(p, StateVec(0.0, 0.0))
    for sig, sgn, Alim, pair in ((w.sigma1, 1.0, Aplus, verts[:2]),
                                 (w.sigma2, -1.0, Aminus, verts[2:])):
        best = -np.inf
        for z in zetas:
            M = (-z**2 - 1j * (2 * sgn * sig + C) * z
                 + sig**2 + sgn * C * sig) * np.eye(2) + Alim
            best = max(best, float(np.max(np.linalg.eigvals(M).real)))
        ok_d &= abs(float(np.max(pair)) - best) < 1e-8
    _report(8, ok_a and ok_b and ok_c and ok_d,
            f"unweighted max {mx0} = alpha; (0,0.5) max {mx1} = -0.125; "
            f"{negative}/100 window samples negative; vertex sweep match {ok_d}")


def test_criterion_09_weight_window(base_params):
    win = weight_window(base_params, C)
    ok_vals = (abs(win.sigma1_max - 0.1753906) < 1e-7
               and abs(win.sigma2_min - 0.25) < 1e-7
               and abs(win.sigma2_max - 1.0) < 1e-7)
    try:
        weight_window(base_params, base_params.cmin)
        ok_err = False
    except EmptyWindowError:
        ok_err = True
    _report(9, ok_vals and ok_err,
            f"window ({win.sigma1_max:.7f}; {win.sigma2_min:.7f}, "
            f"{win.sigma2_max:.7f}); empty at critical speed: {ok_err}")


def test_criterion_10_point_spectrum(base_params, base_wave, coarse_wave_400,
                                     base_weights, dense_eigenvalues):
    op = assemble_weighted_operator(base_params, coarse_wave_400, base_weights)
    vals = dense_eigenvalues(op, 8)
    rightmost = vals[0]
    ok_eig = rightmost.real < 0 and bool(np.all(vals.real < 0))
    # regression value pinned by the dense-oracle run
    ok_reg = abs(rightmost.real - (-0.15208)) < 5e-4
    prof, _ = base_wave
    tm = translation_mode_check(base_params, prof, base_weights)
    ok_tm = tm.residual_sup < 1e-5 and tm.tail_factor > 1e3
    _report(10, ok_eig and ok_reg and ok_tm,
            f"rightmost {rightmost.real:.6f} < 0 (regression -0.15208); "
            f"translation residual {tm.residual_sup:.2e} < 1e-5, "
            f"tail factor {tm.tail_factor:.2e} > 1e3")


def test_criterion_11_dynamic_stability(base_params, base_wave, base_weights):
    prof, _ = base_wave
    rep1 = stability_experiment(base_params, prof, base_weights,
                                SimConfig(dt=0.01, t_end=50.0))
    rep2 = stability_experiment(base_params, prof, base_weights,
                                SimConfig(dt=0.005, t_end=50.0))
    ok_ratio = rep1["norm_ratio"] < 0.1
    ok_b = rep1["b"] > 0.05
    ok_stable = abs(rep2["b"] - rep1["b"]) <= 0.2 * rep1["b"]
    _report(11, ok_ratio and ok_b and ok_stable,
            f"norm ratio {rep1['norm_ratio']:.2e} < 0.1; b = {rep1['b']:.4f} "
            f"> 0.05; b(dt/2) = {rep2['b']:.4f} within 20%")


def test_criterion_12_dynamic_instability(base_params, base_wave,
                                          base_weights):
    prof, _ = base_wave
    rep = instability_experiment(base_params, prof, base_weights,
                                 SimConfig(dt=0.01, t_end=20.0))
    ok = rep["growth_factor"] >= 5.0
    _report(12, ok, f"sup-norm deviation growth {rep['growth_factor']:.1f}x "
                    f">= 5 by t=20 (weighted start {rep['initial_weighted_norm']:.1f})")


def test_criterion_13_spreading_speed(base_params):
    g = make_grid(150.0, 5999)
    rep = spreading_experiment(base_params, g,
                               SimConfig(dt=0.01, t_end=80.0, record_every=100),
                               t_window=(40.0, 80.0))
    err = abs(rep["speed"] - 1.0)
    _report(13, err < 0.10,
            f"measured speed {rep['speed']:.4f}, error {err:.1%} < 10% of 1.0")


def test_criterion_14_numerics_hygiene(base_params):
    p = base_params
    # (a) observed discretization order on a manufactured profile
    from pggwave import Profile, apply_advection_diffusion
    errs = []
    c = 1.1
    for n in (199, 399):
        g = make_grid(10.0, n)
        xi = g.nodes
        u = 0.3 * (1.0 + np.tanh(g.knots / 3.0))
        du = 0.1 / np.cosh(xi / 3.0) ** 2
        ddu = -0.2 / 3.0 * np.tanh(xi / 3.0) / np.cosh(xi / 3.0) ** 2
        out = apply_advection_diffusion(g, c, u)
        errs.append(np.max(np.abs(out - (ddu - c * du))))
    order = math.log2(errs[0] / errs[1])
    ok_order = 1.9 < order < 2.1
    # (b) Jacobian vs centered finite differences
    rng = np.random.default_rng(1234)
    worst = 0.0
    for u0, v0 in rng.uniform([0, 0], [p.kstar, 1.0], size=(100, 2)):
        A = jacobian(p, StateVec(u0, v0))
        eps = 1e-6
        fd = np.empty((2, 2))
        fd[:, 0] = (reaction(p, StateVec(u0 + eps, v0))
                    - reaction(p, StateVec(u0 - eps, v0))) / (2 * eps)
        fd[:, 1] = (reaction(p, StateVec(u0, v0 + eps))
                    - reaction(p, StateVec(u0, v0 - eps))) / (2 * eps)
        worst = max(worst, float(np.max(np.abs(A - fd))))
    ok_jac = worst < 1e-6
    # (c) equilibrium fixed-point drift
    from pggwave import run_simulation
    g = make_grid(20.0, 399)
    const = Profile(grid=g, knots=np.full((g.n + 2, 2), (p.kstar, 1.0)), c=C)
    tr = run_simulation(p, const, SimConfig(dt=0.01, t_end=10.0),
                        reference=const)
    drift = float(np.max(tr.sup_norms))
    ok_drift = drift < 1e-10
    _report(14, ok_order and ok_jac and ok_drift,
            f"order {order:.3f} in [1.9, 2.1]; jacobian-FD gap {worst:.2e} "
            f"< 1e-6; equilibrium drift {drift:.2e} < 1e-10")
