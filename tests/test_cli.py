import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import pggwave
from pggwave import (default_l, derive_params, dynamics, errors, spectrum,
                     wave, weight_window)
from pggwave.cli import COMMANDS, OPTIONS, build_parser, main
from pggwave.config import RunConfig, load_config_file, resolve_config
from pggwave.errors import ParameterError
from pggwave.grid import make_grid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_output(capsys):
    code, out, _ = run_cli(capsys, "params", "--alpha", "0.25", "--k", "0.5")
    assert code == 0
    assert "K* = 1.2" in out
    assert "cmin = 1" in out


def test_params_rejects_bad_alpha(capsys):
    code, _, err = run_cli(capsys, "params", "--alpha", "1.2", "--k", "0.5")
    assert code == 2
    assert "invalid" in err.lower()


def test_params_at_a_corner_of_the_box(capsys):
    # 1 + k K* - K* cancels here to a relative error of 3.3e-13; the
    # constants are formed without it, and nothing refuses this point
    code, out, err = run_cli(capsys, "params", "--alpha", "0.0001",
                             "--k", "0.9999")
    assert code == 0, err
    assert "K* = 4999.74998749965" in out


def test_bounds_check_refuses_l_1(capsys, tmp_path):
    # l = 1 is the upper front, no lower one
    code, _, err = run_cli(capsys, "bounds-check", "--l", "1",
                           "--output-dir", str(tmp_path))
    assert code == 2
    assert err == ("invalid configuration: lower-solution parameter l=1.0 "
                   "outside (0, 0.625)\n")


def test_wave_at_small_alpha_and_k_near_1(capsys, tmp_path):
    # a start with the -inf tail rate alone failed the upper scalar solve
    # here (exit 3); the +inf tail fit is not asserted, since L = 40 lies
    # inside its Dirichlet boundary layer (ROADMAP item 4)
    code, out, err = run_cli(capsys, "wave", "--alpha", "0.02", "--k",
                             "0.99", "--c", "0.55", "--L", "40", "--n", "3999",
                             "--output-dir", str(tmp_path))
    assert code == 0, err
    # the solved front increases strictly, and profile.csv holds it as it
    # is, one row per knot at xi = knots - x0, x0 = 8.65 its crossing of
    # v = 1/2: no row repeats the right Dirichlet row
    mins = re.search(r"min forward differences (\S+), (\S+)$", out, re.M)
    assert float(mins[1]) > 0.0 and float(mins[2]) > 0.0
    xi, u, v = np.loadtxt(tmp_path / "wave" / "profile.csv", delimiter=",",
                          skiprows=1).T
    assert len(xi) == 3999 + 2
    for column in (xi, u, v):
        assert np.min(np.diff(column)) > 0.0
    assert v[xi < 0.0].max() < 0.5 < v[xi > 0.0].min()


# a float setting, a subcommand that reads it, and its owner's refusal
NONFINITE_CASES = [
    ("alpha", "params", r"alpha must lie in \(0, 1\)"),
    ("k", "params", r"k must lie in \(0, 1\)"),
    ("c", "wave", "speed must be positive and finite"),
    ("c", "spectrum", "speed must be positive and finite"),
    ("l", "bounds-check", "lower-solution parameter l="),
    ("L", "wave", "half-length must be positive and finite"),
    ("sigma1", "eigs", "weight exponents must be nonnegative and finite"),
    ("sigma2", "eigs", "weight exponents must be nonnegative and finite"),
    ("tol", "wave", "tol must be positive and finite"),
    ("dt", "stability", "dt (must be positive|above 0.1)"),
    ("t-end", "spread", "t_end must be positive and finite"),
    ("t0", "spread", r"speed window \[.*\] (is empty|reaches t = 0)"),
    ("t1", "spread", r"speed window \[.*\] (is empty|ends after t_end)"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag,command,message", NONFINITE_CASES,
                         ids=[f"{f}-{c}" for f, c, _ in NONFINITE_CASES])
def test_a_nonfinite_setting_exits_2(capsys, tmp_path, monkeypatch, flag,
                                     command, message, value):
    def refuse(*args, **kwargs):
        raise AssertionError("work began before the setting was refused")

    for module, name in ((pggwave.bounds, "make_bounds"),
                         (dynamics, "run_simulation"),
                         (spectrum, "make_spectrum_report")):
        monkeypatch.setattr(module, name, refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, command, f"--{flag}={value}",
                                 "--output-dir", str(tmp_path))
    assert code == 2
    assert re.match(f"invalid configuration: ({message})", err), err
    assert out == "" and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_wave_subcritical_exit_code(capsys, tmp_path):
    code, _, err = run_cli(capsys, "wave", "--c", "0.8",
                           "--output-dir", str(tmp_path))
    assert code == 2
    assert "0.4" in err and "0.3" in err   # complex pair 0.4 +- 0.3i
    assert "no monotone wave" in err


def test_wave_at_rounded_cmin(capsys, tmp_path):
    # at alpha = 0.3 this c is cmin, and c^2 - 4 alpha rounds to -2.2e-16
    assert derive_params(0.3, 0.5).cmin == 1.0954451150103321
    code, _, err = run_cli(capsys, "wave", "--alpha", "0.3", "--k", "0.5",
                           "--c", "1.0954451150103321",
                           "--output-dir", str(tmp_path))
    assert code == 0, err
    fits = json.loads((tmp_path / "wave" / "decay_fits.json").read_text())
    assert fits["verdict"]["verdict"] == "CriticalAdmissible"


def test_spectrum_unweighted(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "spectrum", "--sigma1", "0", "--sigma2", "0",
                           "--output-dir", str(tmp_path))
    assert code == 0
    assert "max Re essential spectrum = 0.25" in out
    report = json.loads((tmp_path / "spectrum" / "spectrum_report.json").read_text())
    assert report["max_re_essential"] == 0.25
    assert report["config"]["alpha"] == 0.25
    assert report["config"]["l"] == 0.3
    curves = (tmp_path / "spectrum" / "curves.csv").read_text().splitlines()
    assert curves[0] == "branch,y,x"


def test_spectrum_at_critical_speed_reports_empty_window(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "spectrum", "--c", "1.0",
                           "--output-dir", str(tmp_path))
    assert code == 0
    assert "weight window: " in out and "sigma2 interval is empty" in out
    assert (tmp_path / "spectrum" / "spectrum_report.json").exists()


def test_wave_pipeline_and_determinism(capsys, tmp_path):
    args = ("wave", "--L", "20", "--n", "799", "--tol", "1e-10",
            "--output-dir", str(tmp_path))
    rels = ("wave/profile.csv", "wave/profile.json",
            "wave/iteration_report.json", "wave/decay_fits.json")
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    first = {rel: (tmp_path / rel).read_bytes() for rel in rels}
    code, _, _ = run_cli(capsys, *args)   # identical config, same destination
    assert code == 0
    for rel in rels:
        assert (tmp_path / rel).read_bytes() == first[rel], \
            f"{rel} differs between identical runs"
    rep = json.loads((tmp_path / "wave" / "iteration_report.json").read_text())
    assert rep["converged"] is True
    assert rep["final_residual"] < 1e-8
    assert "config" in rep and rep["config"]["n"] == 799


def test_wave_report_records_solver_state(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "wave", "--L", "20", "--n", "799",
                           "--tol", "1e-10", "--output-dir", str(tmp_path))
    assert code == 0
    rep = json.loads((tmp_path / "wave" / "iteration_report.json").read_text())
    assert rep["newton_steps"] and rep["newton_steps"][-1] < 1e-10
    # the default path makes two sweeps
    assert rep["iterations"] == len(rep["sup_diffs"]) < 3
    assert f"{len(rep['newton_steps'])} Newton steps" in out


def test_wave_fit_window_exit_code(capsys, tmp_path):
    # a domain too short for the -inf tail fit is refused before any solve,
    # exit 2, and writes nothing
    code, _, err = run_cli(capsys, "wave", "--L", "12", "--n", "59",
                           "--output-dir", str(tmp_path))
    assert code == 2
    assert "invalid configuration" in err
    assert "the -inf fit window [-7, -6] holds 3 < 20 nodes" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("n", ["30", "20"])
def test_wave_rejects_non_monotone_stencil(capsys, tmp_path, n):
    code, _, err = run_cli(capsys, "wave", "--L", "40", "--n", n,
                           "--output-dir", str(tmp_path))
    assert code == 2
    assert "invalid configuration" in err and "c*h/2" in err


def test_bounds_check(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "bounds-check", "--L", "20", "--n", "799",
                           "--output-dir", str(tmp_path))
    assert code == 0
    assert "worst margin" in out
    rep = json.loads((tmp_path / "bounds-check" / "bounds_report.json").read_text())
    assert rep["reports"]["upper"]["passed"] is True
    assert rep["reports"]["lower"]["passed"] is True
    # the upper margins sit at roundoff, the lower's worst has a location
    assert "upper: worst margin" in out and "at roundoff" in out
    assert rep["reports"]["upper"]["worst_xi"] is None
    assert rep["reports"]["lower"]["worst_xi"] == -19.95
    assert "numeric" in rep["lower_plateau_slope"]
    # each scalar solve's report, with no wall-clock time in it
    for front in rep["fronts"].values():
        assert set(front) == {"newton_steps", "datum_steps", "damped_steps",
                              "sweeps", "left_datum", "crossing"}
        assert front["newton_steps"][-1] < 1e-12 and front["sweeps"][-1] < 1e-12
        assert front["left_datum"] > 0.0 and abs(front["crossing"]) < 1e-9
    assert (tmp_path / "bounds-check" / "margins_upper.csv").exists()


def test_failing_bound_exits_3(capsys, tmp_path, monkeypatch):
    # a margin tolerance no bound can meet: the upper bound fails its check
    monkeypatch.setattr(pggwave.bounds, "MARGIN_TOL", -1.0)
    code, _, err = run_cli(capsys, "bounds-check", "--L", "20", "--n", "199",
                           "--output-dir", str(tmp_path))
    assert code == 3
    assert err.startswith("numerical failure: upper solution inequality "
                          "fails")


def test_every_runtime_failure_is_a_numerical_error():
    # main maps NumericalError to exit 3; a runtime error outside it would
    # escape as a traceback
    runtime = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, RuntimeError)]
    assert errors.VerificationError in runtime
    assert all(issubclass(cls, errors.NumericalError) for cls in runtime)


def test_a_programming_error_still_surfaces(capsys, tmp_path, monkeypatch):
    def unfinished(*args, **kwargs):
        raise NotImplementedError("unfinished")

    monkeypatch.setattr(pggwave.bounds, "verify_bound", unfinished)
    with pytest.raises(NotImplementedError):
        main(["bounds-check", "--L", "20", "--n", "199",
              "--output-dir", str(tmp_path)])


def test_eigs(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "eigs", "--L", "40", "--n", "200",
                           "--count", "4", "--output-dir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "eigs" / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "re,im,boundary_mass_fraction"
    rightmost = float(lines[1].split(",")[0])
    assert rightmost < 0.0
    assert "translation mode residual" in out


def test_eigs_solves_once(capsys, tmp_path, monkeypatch):
    calls = []
    solve = spectrum.eigen_report

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectrum, "eigen_report", counted)
    code, _, _ = run_cli(capsys, "eigs", "--L", "40", "--n", "200",
                         "--count", "4", "--output-dir", str(tmp_path))
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("count", ["0", "-1", "199"])
def test_eigs_rejects_count(capsys, tmp_path, monkeypatch, count):
    def refuse(*args, **kwargs):
        raise AssertionError("the wave was solved before the count check")

    monkeypatch.setattr(wave, "solve_wave", refuse)
    code, _, err = run_cli(capsys, "eigs", "--L", "40", "--n", "100",
                           "--count", count, "--output-dir", str(tmp_path))
    assert code == 2
    assert "eigenvalue count" in err


@pytest.mark.parametrize("sweep", [False, True], ids=["eigs", "sweep"])
def test_eigs_refuses_a_count_at_the_basis_cap(capsys, tmp_path, monkeypatch,
                                               sweep):
    # 600 <= 2n - 2 at n = 400, but no basis of at most ARNOLDI_MAX_BASIS =
    # 500 vectors can certify 600 Ritz values; a sweep point takes the
    # default count, so the sweep runs with 600 as the default
    def refuse(*args, **kwargs):
        raise AssertionError("the wave was solved before the count check")

    monkeypatch.setattr(wave, "solve_wave", refuse)
    monkeypatch.setitem(OPTIONS["eigs"], "count", 600)
    argv = (["sweep", "--run", "eigs", "--vary", "c=1.25,1.5"] if sweep
            else ["eigs", "--count", "600"])
    code, _, err = run_cli(capsys, *argv, "--L", "40", "--n", "400",
                           "--output-dir", str(tmp_path))
    assert code == 2
    assert "eigenvalue count 600 outside [1, 499]" in err
    assert list(tmp_path.iterdir()) == []


def test_stability_smoke(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "stability", "--L", "20", "--n", "399",
                           "--t-end", "8", "--output-dir", str(tmp_path))
    assert code == 0
    rep = json.loads((tmp_path / "stability" / "report.json").read_text())
    assert rep["b"] > 0.0
    assert rep["steps"] == round(rep["t_end"] / rep["dt"])
    assert 0.0 < rep["guard_margin"] < 12.0    # guard 10 max(K*, 1) = 12
    assert (tmp_path / "stability" / "trace.csv").exists()


def test_stability_rejects_window_violation(capsys, tmp_path):
    code, _, err = run_cli(capsys, "stability", "--L", "20", "--n", "399",
                           "--sigma2", "0.1", "--output-dir", str(tmp_path))
    assert code == 2
    assert "window" in err


def _edge_weights(c):
    """sigma1 = (1 - 2^-52) sigma1_max, just inside its window's open end
    at speed c, so ``contains`` admits it; sigma2 mid-window."""
    win = weight_window(derive_params(0.25, 0.5), c)
    return ((1.0 - 2.0**-52) * win.sigma1_max,
            0.5 * (win.sigma2_min + win.sigma2_max))


@pytest.mark.parametrize("sweep", [False, True], ids=["stability", "sweep"])
def test_stability_refuses_a_nonnegative_computed_vertex(capsys, tmp_path,
                                                         monkeypatch, sweep):
    def refuse(*args, **kwargs):
        raise AssertionError("the wave was solved before validation")

    s1, s2 = _edge_weights(2.0)
    p, w = derive_params(0.25, 0.5), spectrum.WeightPair(s1, s2)
    assert weight_window(p, 2.0).contains(w)
    assert spectrum.essential_spectrum_max(p, 2.0, w)[0] >= 0.0
    monkeypatch.setattr(wave, "solve_wave", refuse)
    weights = ["--sigma1", repr(s1), "--sigma2", repr(s2)]
    argv = (["sweep", "--run", "stability", "--vary", "t_end=1,2", *weights]
            if sweep else ["stability", *weights])
    code, _, err = run_cli(capsys, *argv, "--c", "2",
                           "--output-dir", str(tmp_path))
    assert code == 2
    assert "vertex of branch 1" in err and ">= 0" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("dt,t_end,code", [
    ("0.01", "5", 2), ("0.01", "5.01", 0),
    ("0.1", "10", 2), ("0.1", "10.1", 0),
])
def test_stability_checks_its_decay_fit_before_solving(capsys, tmp_path,
                                                       monkeypatch, dt, t_end,
                                                       code):
    # the fit takes the samples recorded from DECAY_FIT_START = 5 on: every
    # 100 steps and the last, so at dt = 0.1 t_end = 10 records only t = 10
    solve = wave.solve_wave

    def refuse_or_solve(*args, **kwargs):
        assert code == 0, "the wave was solved before the decay-fit check"
        return solve(*args, **kwargs)

    monkeypatch.setattr(wave, "solve_wave", refuse_or_solve)
    got, _, err = run_cli(capsys, "stability", "--L", "20", "--n", "199",
                          "--dt", dt, "--t-end", t_end,
                          "--output-dir", str(tmp_path))
    assert got == code, err
    if code:
        assert "the fit needs 2" in err
        assert list(tmp_path.iterdir()) == []


def test_stability_sweep_checks_its_decay_fit_first(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--run", "stability",
                           "--vary", "t_end=6,5", "--L", "20", "--n", "199",
                           "--output-dir", str(tmp_path))
    assert code == 2
    assert "the fit needs 2" in err
    assert list(tmp_path.iterdir()) == []


def test_benchmark_weights_pass_the_stability_check():
    check, _ = COMMANDS["stability"]
    cfg = RunConfig(sigma1=0.05, sigma2=0.5)
    assert check(cfg, None).t_end == cfg.t_end


@pytest.mark.parametrize("argv,message", [
    (("stability", "--dt", "0.03", "--t-end", "0.1"),
     "t_end = 0.1 is not a multiple of dt = 0.03"),
    (("stability", "--sigma2", "0.1"),
     r"weights \(0.05, 0.1\) outside the admissible window"),
    (("instability", "--dt", "0.03"),
     "t_end = 50 is not a multiple of dt = 0.03"),
    # a refused horizon that a rule set names the rule, not a t_end the
    # user did not give
    (("instability", "--dt", "0.03", "--t-end", "30"),
     r"the run's horizon min\(t_end, 20\) = 20 is refused: t_end = 20 is "
     "not a multiple of dt = 0.03"),
    (("spread", "--dt", "0.03", "--t-end", "30", "--t1", "70"),
     r"the run's horizon max\(t_end, t1\) = 70 is refused: t_end = 70 is "
     "not a multiple of dt = 0.03"),
], ids=["stability-dt", "stability-window", "instability-dt",
        "instability-horizon", "spread-horizon"])
def test_dynamics_commands_validate_before_solving(capsys, tmp_path,
                                                   monkeypatch, argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError("work began before validation")

    monkeypatch.setattr(wave, "solve_wave", refuse)
    monkeypatch.setattr(dynamics, "run_simulation", refuse)
    code, _, err = run_cli(capsys, *argv, "--output-dir", str(tmp_path))
    assert code == 2
    assert re.match(f"invalid configuration: {message}", err), err
    assert list(tmp_path.iterdir()) == []


def test_instability_smoke(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "instability", "--L", "20", "--n", "399",
                           "--t-end", "6", "--output-dir", str(tmp_path))
    assert code == 0
    rep = json.loads((tmp_path / "instability" / "report.json").read_text())
    assert rep["growth_factor"] > 1.0
    assert rep["steps"] == round(rep["t_end"] / rep["dt"])
    assert 0.0 < rep["guard_margin"] < 12.0


def test_spread_smoke(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "spread", "--L", "40", "--n", "799",
                           "--dt", "0.05", "--t-end", "18", "--t0", "12",
                           "--t1", "18", "--output-dir", str(tmp_path))
    assert code == 0
    rep = json.loads((tmp_path / "spread" / "report.json").read_text())
    assert 0.5 < rep["speed"] < 1.5
    assert rep["steps"] == 360
    assert 0.0 < rep["guard_margin"] < 12.0


RUN_KEYS = {"dt", "guard_margin", "steps"}


@pytest.mark.parametrize("sub, experiment, argv, keys", [
    ("stability", "stability_experiment",
     ["--L", "20", "--n", "399", "--t-end", "8"],
     {"M", "amplitude", "b", "final_weighted_norm", "initial_weighted_norm",
      "kind", "norm_ratio", "sigma1", "sigma2", "t_end"}),
    ("instability", "instability_experiment",
     ["--L", "20", "--n", "399", "--t-end", "6"],
     {"amplitude", "blew_up", "final_sup_norm", "growth_factor",
      "initial_sup_norm", "initial_weighted_norm", "kind", "t_end"}),
    ("spread", "spreading_experiment",
     ["--L", "40", "--n", "399", "--dt", "0.05", "--t-end", "18", "--t0",
      "12", "--t1", "18"],
     {"kind", "predicted_speed", "speed", "t_window"}),
], ids=["stability", "instability", "spread"])
def test_time_run_artifacts(capsys, tmp_path, monkeypatch, sub, experiment,
                            argv, keys):
    """Each time run's experiment returns ``(report, trace)`` with no trace
    in the report; ``report.json`` is that report plus the run's ``dt``,
    ``steps`` and ``guard_margin`` and the configuration, and ``trace.csv``
    holds the returned trace."""
    runs = []
    run_experiment = getattr(dynamics, experiment)

    def spy(*args, **kwargs):
        runs.append(run_experiment(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(dynamics, experiment, spy)
    code, _, _ = run_cli(capsys, sub, *argv, "--output-dir", str(tmp_path))
    assert code == 0
    [(rep, tr)] = runs
    assert type(rep) is dict and isinstance(tr, dynamics.Trace)
    assert set(rep) == keys
    assert not any(isinstance(v, dynamics.Trace) for v in rep.values())
    written = json.loads((tmp_path / sub / "report.json").read_text())
    assert set(written) == keys | RUN_KEYS | {"config"}
    assert written["dt"] == written["config"]["dt"]
    assert written["steps"] == tr.steps == round(
        tr.times[-1] / written["dt"])
    assert written["guard_margin"] == tr.guard_margin
    assert {k: written[k] for k in keys} == json.loads(json.dumps(rep))
    rows = (tmp_path / sub / "trace.csv").read_text().splitlines()
    assert rows[0] == "t,weighted_norm,sup_norm,front_position"
    table = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    np.testing.assert_array_equal(
        table, np.column_stack((tr.times, tr.weighted_norms, tr.sup_norms,
                                tr.front_positions)))


def test_spread_checks_window_before_running(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the spread ran before the window check")

    monkeypatch.setattr(dynamics, "spreading_experiment", refuse)
    code, _, err = run_cli(capsys, "spread", "--t0", "30", "--t1", "10",
                           "--output-dir", str(tmp_path))
    assert code == 2
    assert "speed window" in err


@pytest.mark.parametrize("t0", ["0", "-5"])
def test_spread_window_must_start_after_the_seed(capsys, tmp_path, monkeypatch,
                                                 t0):
    # the seed lies below the front level, so no front exists at t = 0
    def refuse(*args, **kwargs):
        raise AssertionError("the spread stepped before the window check")

    monkeypatch.setattr(dynamics, "run_simulation", refuse)
    code, _, err = run_cli(capsys, "spread", "--L", "40", "--n", "399",
                           "--dt", "0.05", "--t0", t0, "--t1", "20",
                           "--output-dir", str(tmp_path))
    assert code == 2
    assert "speed window" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "sweep", "--run", "spectrum",
                         "--vary", "sigma2=0.4,0.5",
                         "--output-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "spectrum" / "sigma2=0.4" / "spectrum" /
            "spectrum_report.json").exists()
    assert (tmp_path / "spectrum" / "sigma2=0.5" / "spectrum" /
            "spectrum_report.json").exists()


@pytest.mark.parametrize("vary", ["tol=-1", "dt=5", "foo=1", "l=0.9",
                                  "sigma1=-1", "n=2",
                                  # two points that share one directory
                                  "sigma2=0.4000001,0.40000012",
                                  "c=1.25,1.25"])
def test_sweep_rejects_invalid_point(capsys, tmp_path, vary):
    code, _, err = run_cli(capsys, "sweep", "--run", "spectrum",
                           "--vary", vary, "--output-dir", str(tmp_path))
    assert code == 2
    assert "invalid configuration" in err
    assert not (tmp_path / "spectrum").exists()


def test_sweep_refuses_a_key_varied_twice(capsys, tmp_path):
    # two --vary of one key would fold into one axis and run only the last
    code, _, err = run_cli(capsys, "sweep", "--run", "spectrum",
                           "--vary", "c=1.1", "--vary", "c=1.3",
                           "--output-dir", str(tmp_path))
    assert code == 2
    assert "invalid configuration: 'c' is varied twice" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("run,argv", [
    # the second point's stencil is no M-matrix: c*h/2 = 2.38
    ("wave", ("--vary", "n=399,20", "--L", "40")),
    # the second point's -inf fit window [-7, -6] holds 9 nodes
    ("wave", ("--vary", "L=20,12", "--n", "199")),
    # the second point cannot reach spread's t1 = 80 in steps of 0.03
    ("spread", ("--vary", "dt=0.02,0.03", "--L", "150", "--n", "599",
                "--t-end", "30")),
], ids=["wave-grid", "wave-fit-window", "spread-dt"])
def test_sweep_checks_every_point_before_running_any(capsys, tmp_path, run,
                                                     argv):
    code, _, err = run_cli(capsys, "sweep", "--run", run, *argv,
                           "--output-dir", str(tmp_path))
    assert code == 2
    assert "invalid configuration" in err
    assert not (tmp_path / run).exists()


# a valid value other than the default for every setting
FLAG_VALUES = {"alpha": 0.3, "k": 0.4, "c": 1.5, "l": 0.2, "L": 30.0,
               "n": 299, "sigma1": 0.1, "sigma2": 0.6, "tol": 1e-9,
               "dt": 0.02, "t_end": 40.0, "output_dir": "elsewhere"}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_config_key_is_a_flag(monkeypatch, command):
    assert set(FLAG_VALUES) == {f.name for f in fields(RunConfig)}
    seen = []
    monkeypatch.setitem(COMMANDS, command,
                        (lambda cfg, args: None,
                         lambda cfg, args, _: seen.append(cfg)))
    extra = ("--run", "spectrum") if command == "sweep" else ()
    for name, value in FLAG_VALUES.items():
        argv = [command, *extra, "--" + name.replace("_", "-"), str(value)]
        assert main(argv) == 0
        assert seen.pop() == replace(RunConfig(), **{name: value})


def _subparsers():
    """Each subcommand's parser, by name."""
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


CONFIG_FLAGS = ["--" + f.name.replace("_", "-") for f in fields(RunConfig)]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_subcommand_takes_the_shared_flags(command):
    sp = _subparsers()[command]
    extra = ["--run", "spectrum"] if command == "sweep" else []
    # a flag not given is absent, --config excepted
    given = vars(sp.parse_args(extra))
    assert given["config"] is None
    assert not {f.name for f in fields(RunConfig)} & set(given)
    argv = [*extra, "--config", "x.cfg"]
    for flag in CONFIG_FLAGS:
        argv += [flag, "v" + flag]
    given = vars(sp.parse_args(argv))
    assert given["config"] == "x.cfg"
    assert all(given[f.name] == "v--" + f.name.replace("_", "-")
               for f in fields(RunConfig))


def test_subcommand_options_keep_their_defaults():
    subs = _subparsers()
    assert vars(subs["eigs"].parse_args([]))["count"] == 6
    given = vars(subs["spread"].parse_args([]))
    assert (given["t0"], given["t1"]) == (40.0, 80.0)
    assert "count" not in vars(subs["wave"].parse_args([]))


@pytest.mark.parametrize("argv", [["sweep"], ["sweep", "--vary", "c=1,2"],
                                  ["wave", "--bogus", "1"],
                                  ["eigs", "--t0", "1"]],
                         ids=["sweep-no-run", "sweep-vary-no-run",
                              "unknown-flag", "other-subcommand-option"])
def test_parser_refusals_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_subcommand_help_lists_every_flag_once(command):
    text = _subparsers()[command].format_help()
    listed = [line.split()[0].rstrip(",")
              for line in text.split("options:\n", 1)[1].splitlines()
              if line.startswith("  -")]
    want = ["-h", "--config", *CONFIG_FLAGS,
            *("--" + opt for opt in OPTIONS.get(command, {}))]
    if command == "sweep":
        want += ["--run", "--vary"]
    assert listed == want


def test_flag_l_none_selects_default_l(capsys, tmp_path):
    # at alpha = 0.5 default_l is 0.36, not the base point's 0.3
    code, _, _ = run_cli(capsys, "spectrum", "--alpha", "0.5", "--l", "none",
                         "--output-dir", str(tmp_path))
    assert code == 0
    report = json.loads(
        (tmp_path / "spectrum" / "spectrum_report.json").read_text())
    assert report["config"]["l"] == default_l(derive_params(0.5, 0.5)) != 0.3


def test_default_l_is_admissible_where_0_3_is_not(capsys, tmp_path):
    # 1 - k + k alpha = 0.145 here, so l = 0.3 lies outside (0, 0.145)
    assert RunConfig().l is None
    code, _, err = run_cli(capsys, "wave", "--alpha", "0.05", "--k", "0.9",
                           "--c", "0.5", "--L", "20", "--n", "399",
                           "--output-dir", str(tmp_path))
    assert code == 0, err
    report = json.loads(
        (tmp_path / "wave" / "iteration_report.json").read_text())
    assert report["config"]["l"] == default_l(derive_params(0.05, 0.9))


def test_malformed_flag_names_its_key(capsys):
    code, _, err = run_cli(capsys, "params", "--n", "abc")
    assert code == 2
    assert "n = 'abc' is not int" in err


# the settings' owners in the order they check, each with a value it
# refuses, its error and its message
REFUSED_SETTINGS = [
    ("alpha", 2.0, ParameterError, r"alpha must lie in \(0, 1\)"),
    ("l", 0.9, ParameterError, r"lower-solution parameter l=0.9"),
    ("n", 2, errors.GridError, "need an integer count of at least 3"),
    ("sigma1", -1.0, ParameterError, "weight exponents must be nonnegative"),
    ("dt", 0.5, ParameterError, "dt above 0.1"),
    ("tol", float("nan"), ParameterError, "tol must be positive and finite"),
]


@pytest.mark.parametrize("first", range(len(REFUSED_SETTINGS)),
                         ids=[name for name, *_ in REFUSED_SETTINGS])
def test_a_config_is_checked_when_built(first):
    # alone, and with every later setting out of range too, this one is
    # named
    name, value, error, message = REFUSED_SETTINGS[first]
    with pytest.raises(error, match=message):
        RunConfig(**{name: value})
    bad = {name: value for name, value, *_ in REFUSED_SETTINGS[first:]}
    with pytest.raises(error, match=message):
        RunConfig(**bad)
    with pytest.raises(error, match=message):
        replace(RunConfig(), **bad)


def test_a_config_makes_its_model_grid_and_weights():
    cfg = RunConfig()
    assert cfg.params == derive_params(0.25, 0.5)
    assert cfg.grid == make_grid(40.0, 3999)
    assert cfg.weights == spectrum.WeightPair(0.05, 0.5)


def test_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("alpha = 0.3\nk = 0.4   # comment\nn = 499\n")
    vals = load_config_file(cfgfile)
    assert vals == {"alpha": 0.3, "k": 0.4, "n": 499}
    cfg = resolve_config(cfgfile, {"c": 1.5})
    assert cfg.alpha == 0.3 and cfg.k == 0.4 and cfg.n == 499 and cfg.c == 1.5
    echo = cfg.echo()
    assert set(echo) == {"alpha", "k", "c", "l", "L", "n", "sigma1", "sigma2",
                         "tol", "dt", "t_end", "output_dir"}

    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 3\n")
    with pytest.raises(ParameterError):
        load_config_file(bad)
    bad.write_text("alpha 0.3\n")
    with pytest.raises(ParameterError, match="bad.cfg:1: expected key = value"):
        load_config_file(bad)


def test_config_file_refuses_a_key_set_twice(capsys, tmp_path):
    # within one file a repeat is refused; a flag still overrides the file
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("c = 1.1\n# a note\nalpha = 0.3\nc = 1.3\n")
    with pytest.raises(ParameterError,
                       match="run.cfg:4: 'c' is already set on line 1"):
        load_config_file(cfgfile)
    code, _, err = run_cli(capsys, "params", "--config", str(cfgfile),
                           "--c", "1.5")
    assert code == 2 and "'c' is already set on line 1" in err


def test_config_file_refuses_max_iter(tmp_path):
    # the sweep budget is the wave module's constant, not a setting
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("max_iter = 10\n")
    with pytest.raises(ParameterError, match="unknown key 'max_iter'"):
        resolve_config(cfgfile)


def test_config_file_cli_exit(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha = 2.0\n")
    code, _, err = run_cli(capsys, "params", "--config", str(bad))
    assert code == 2
    # a file value a flag overrides is checked only after the merge
    bad.write_text("n = 2\n")
    code, _, err = run_cli(capsys, "params", "--config", str(bad))
    assert code == 2 and "at least 3 interior nodes, got 2" in err
    code, _, err = run_cli(capsys, "params", "--config", str(bad),
                           "--n", "399")
    assert code == 0, err


def test_only_eigs_calls_numpy_linalg(capsys, tmp_path, monkeypatch):
    # the tail rates, the decay constant and the spreading speed are
    # closed-form lines (grid.least_squares_line): no run but eigs calls
    # numpy's LAPACK, through numpy.linalg or numpy.polyfit
    def refuse(*args, **kwargs):
        raise AssertionError("numpy's LAPACK was called")

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):     # not LinAlgError
            monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np, "polyfit", refuse)
    small = ["--L", "20", "--n", "399", "--output-dir", str(tmp_path)]
    for argv in (["wave", *small], ["bounds-check", *small],
                 ["stability", *small, "--t-end", "8"],
                 ["instability", *small, "--t-end", "6"],
                 ["spread", "--L", "40", "--n", "799", "--dt", "0.05",
                  "--t-end", "18", "--t0", "12", "--t1", "18",
                  "--output-dir", str(tmp_path)]):
        assert run_cli(capsys, *argv)[0] == 0, argv
    with pytest.raises(AssertionError, match="numpy's LAPACK"):
        main(["eigs", "--L", "40", "--n", "200", "--count", "4",
              "--output-dir", str(tmp_path)])


_IMPORT_GRAPH_SCRIPT = """
import json, sys

def loaded(*prefixes):
    return sorted(m for m in sys.modules
                  if any(m == p or m.startswith(p + ".") for p in prefixes))

def loaded_late():
    return loaded("scipy.sparse", "scipy.linalg", "numpy.f2py", "numpy.testing")

import pggwave, pggwave.cli
deferred = [loaded_late()]
codes = []
for argv in json.loads(sys.argv[1]):
    codes.append(pggwave.cli.main(argv))
    deferred.append(loaded_late())
print(json.dumps({"codes": codes, "deferred": deferred, "loaded": loaded(
    "scipy.interpolate", "scipy.optimize", "scipy.special",
    "scipy.integrate")}))
"""


def test_cli_never_loads_scipy_interpolate_optimize_special(tmp_path):
    # scipy serves only the LAPACK banded solves, and scipy.integrate, which
    # the collocation oracle of the tests uses, stays out of every run;
    # checking after real runs catches an import deferred into a function
    # as well.  LAPACK comes
    # from its extension file, so neither the package scipy.linalg, whose
    # init loads numpy.f2py and numpy.testing, nor scipy.sparse loads in
    # any run, the eigensolve of eigs included
    small = ["--L", "20", "--n", "399", "--output-dir", "out"]
    runs = [["params"], ["wave", *small], ["bounds-check", *small],
            ["spectrum", "--output-dir", "out"],
            ["stability", *small, "--t-end", "8"],
            ["instability", *small, "--t-end", "6"],
            ["spread", "--L", "40", "--n", "799", "--dt", "0.05",
             "--t-end", "18", "--t0", "12", "--t1", "18",
             "--output-dir", "out"],
            ["sweep", "--run", "wave", "--vary", "c=1.25,1.5", *small],
            ["eigs", "--L", "40", "--n", "200", "--count", "4",
             "--output-dir", "out"]]
    src = str(Path(pggwave.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH_SCRIPT, json.dumps(runs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(runs)
    assert result["loaded"] == []
    # the import, then every run
    assert result["deferred"] == [[]] * (len(runs) + 1)
