import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pggwave
from pggwave import spectrum, wave
from pggwave.cli import main
from pggwave.config import load_config_file, resolve_config
from pggwave.errors import ParameterError


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


def test_wave_subcritical_exit_code(capsys, tmp_path):
    code, _, err = run_cli(capsys, "wave", "--c", "0.8",
                           "--output-dir", str(tmp_path))
    assert code == 2
    assert "0.4" in err and "0.3" in err   # complex pair 0.4 +- 0.3i
    assert "no monotone wave" in err


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
    assert (tmp_path / "bounds-check" / "margins_upper.csv").exists()


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
def test_eigs_rejects_count(capsys, tmp_path, count):
    code, _, err = run_cli(capsys, "eigs", "--L", "40", "--n", "100",
                           "--count", count, "--output-dir", str(tmp_path))
    assert code == 2
    assert "eigenvalue count" in err


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


@pytest.mark.parametrize("argv", [
    ("stability", "--dt", "0.03", "--t-end", "0.1"),
    ("stability", "--sigma2", "0.1"),
    ("instability", "--dt", "0.03"),
], ids=["stability-dt", "stability-window", "instability-dt"])
def test_dynamics_commands_validate_before_solving(capsys, tmp_path,
                                                   monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the wave was solved before validation")

    monkeypatch.setattr(wave, "solve_wave", refuse)
    code, _, _ = run_cli(capsys, *argv, "--output-dir", str(tmp_path))
    assert code == 2


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


def test_sweep(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "sweep", "--run", "spectrum",
                         "--vary", "sigma2=0.4,0.5",
                         "--output-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "spectrum" / "sigma2=0.4" / "spectrum" /
            "spectrum_report.json").exists()
    assert (tmp_path / "spectrum" / "sigma2=0.5" / "spectrum" /
            "spectrum_report.json").exists()


@pytest.mark.parametrize("vary", ["tol=-1", "dt=5", "foo=1"])
def test_sweep_rejects_invalid_point(capsys, tmp_path, vary):
    code, _, err = run_cli(capsys, "sweep", "--run", "spectrum",
                           "--vary", vary, "--output-dir", str(tmp_path))
    assert code == 2
    assert "invalid configuration" in err
    assert not (tmp_path / "spectrum").exists()


def test_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("alpha = 0.3\nk = 0.4   # comment\nn = 499\n")
    vals = load_config_file(cfgfile)
    assert vals == {"alpha": 0.3, "k": 0.4, "n": 499}
    cfg = resolve_config(cfgfile, {"c": 1.5})
    assert cfg.alpha == 0.3 and cfg.k == 0.4 and cfg.n == 499 and cfg.c == 1.5
    echo = cfg.echo()
    assert set(echo) == {"alpha", "k", "c", "l", "L", "n", "sigma1", "sigma2",
                         "tol", "max_iter", "dt", "t_end", "output_dir"}

    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 3\n")
    with pytest.raises(ParameterError):
        load_config_file(bad)


def test_config_file_cli_exit(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha = 2.0\n")
    code, _, err = run_cli(capsys, "params", "--config", str(bad))
    assert code == 2


_IMPORT_GRAPH_SCRIPT = """
import json, sys
import pggwave, pggwave.cli
codes = [pggwave.cli.main(argv) for argv in json.loads(sys.argv[1])]
prefixes = ("scipy.interpolate", "scipy.optimize", "scipy.special")
loaded = sorted(m for m in sys.modules
                if any(m == p or m.startswith(p + ".") for p in prefixes))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_cli_never_loads_scipy_interpolate_optimize_special(tmp_path):
    # scipy serves only the LAPACK banded solves and ARPACK; checking after
    # real runs catches an import deferred into a function as well
    small = ["--L", "20", "--n", "399", "--output-dir", "out"]
    runs = [["params"], ["wave", *small], ["bounds-check", *small],
            ["spectrum", "--output-dir", "out"],
            ["eigs", "--L", "40", "--n", "200", "--count", "4",
             "--output-dir", "out"],
            ["stability", *small, "--t-end", "8"],
            ["instability", *small, "--t-end", "6"],
            ["spread", "--L", "40", "--n", "799", "--dt", "0.05",
             "--t-end", "18", "--t0", "12", "--t1", "18",
             "--output-dir", "out"],
            ["sweep", "--run", "wave", "--vary", "c=1.25,1.5", *small]]
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
