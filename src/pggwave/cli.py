"""Command-line surface: reproducible experiments with CSV/JSON artifacts.

Exit codes: 0 success, 2 validation error, 3 convergence failure.  Every
JSON report embeds the fully-resolved configuration, and all numeric output
is formatted deterministically, so identical configurations produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import bounds as bounds_mod
from . import dynamics, kpp, spectrum, wave
from .config import RunConfig, _coerce, resolve_config, validate_config
from .errors import (BlowUpError, ConvergenceError, EmptyWindowError,
                     EnvelopeViolationError, FitWindowError,
                     FrontNotFoundError, ParameterError, ShiftNotFoundError)
from .grid import make_grid, save_profile, write_csv
from .model import derive_params

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3

_CONVERGENCE_ERRORS = (ConvergenceError, EnvelopeViolationError,
                       ShiftNotFoundError, BlowUpError, FitWindowError,
                       FrontNotFoundError)


def _write_json(path: Path, payload: dict, cfg: RunConfig) -> None:
    payload = dict(payload)
    payload["config"] = cfg.echo()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               allow_nan=True) + "\n")


def _outdir(cfg: RunConfig, sub: str) -> Path:
    d = Path(cfg.output_dir) / sub
    d.mkdir(parents=True, exist_ok=True)
    return d


def _resolved_l(cfg: RunConfig, p) -> float:
    return cfg.l if cfg.l is not None else bounds_mod.default_l(p)


def cmd_params(cfg: RunConfig) -> int:
    p = derive_params(cfg.alpha, cfg.k)
    identity_gap = abs((1.0 + p.k * p.kstar - p.kstar)
                       - p.alpha / (1.0 - p.k + p.alpha * p.k))
    print(f"alpha = {p.alpha:.17g}")
    print(f"k = {p.k:.17g}")
    print(f"K* = {p.kstar:.17g}")
    print(f"cmin = {p.cmin:.17g}")
    print(f"identity |1 + k K* - K* - alpha/(1-k+alpha k)| = {identity_gap:.3e}")
    return EXIT_OK


def _solve_pipeline(cfg: RunConfig):
    p = derive_params(cfg.alpha, cfg.k)
    g = make_grid(cfg.L, cfg.n)
    bp = bounds_mod.make_bounds(p, cfg.c, g, l=_resolved_l(cfg, p),
                                tol=min(cfg.tol, 1e-12))
    prof, report = wave.solve_wave(p, cfg.c, g, bp, tol=cfg.tol,
                                   max_iter=cfg.max_iter)
    return p, g, bp, prof, report


def cmd_wave(cfg: RunConfig) -> int:
    p = derive_params(cfg.alpha, cfg.k)
    verdict = wave.subcritical_verdict(p, cfg.c)
    if verdict.verdict == "NoMonotoneWave":
        roots = ", ".join(f"{z.real:g}{z.imag:+g}i" for z in verdict.roots)
        print(f"no monotone wave for c = {cfg.c} < {p.cmin}: "
              f"oscillatory tail, characteristic roots {roots}", file=sys.stderr)
        return EXIT_VALIDATION
    _, g, bp, prof, report = _solve_pipeline(cfg)
    normalized = wave.normalize_phase(prof)
    critical = verdict.verdict == "CriticalAdmissible"
    fits = [wave.fit_decay(normalized, p, side, critical=critical)
            for side in ("-inf", "+inf")]
    out = _outdir(cfg, "wave")
    save_profile(normalized, out / "profile.csv", alpha=cfg.alpha, k=cfg.k,
                 sigma1=cfg.sigma1, sigma2=cfg.sigma2)
    _write_json(out / "iteration_report.json", report.to_dict(), cfg)
    _write_json(out / "decay_fits.json",
                {"fits": [f.to_dict() for f in fits],
                 "verdict": verdict.to_dict()}, cfg)
    mins = wave.check_monotone(prof)
    print(f"converged in {report.iterations} iterations and "
          f"{len(report.newton_steps)} Newton steps; "
          f"residual {report.final_residual:.3e}; "
          f"min forward differences {mins[0]:.3e}, {mins[1]:.3e}")
    for f in fits:
        print(f"decay {f.side}: rate_u {f.rate_u:.6f} rate_v {f.rate_v:.6f} "
              f"predicted {f.predicted_rate:.6f}")
    return EXIT_OK


def cmd_bounds_check(cfg: RunConfig) -> int:
    p = derive_params(cfg.alpha, cfg.k)
    g = make_grid(cfg.L, cfg.n)
    l = _resolved_l(cfg, p)
    bp = bounds_mod.make_bounds(p, cfg.c, g, l=l, tol=min(cfg.tol, 1e-12))
    out = _outdir(cfg, "bounds-check")
    reports = {}
    for kind, prof in (("upper", bp.upper), ("lower", bp.lower)):
        rep = bounds_mod.verify_bound(p, prof, cfg.c, kind)
        bounds_mod.margins_to_csv(rep, g, out / f"margins_{kind}.csv")
        reports[kind] = {"worst": rep.worst, "worst_xi": rep.worst_xi,
                         "worst_component": rep.worst_component,
                         "passed": rep.passed}
        where = ("at roundoff" if rep.worst_xi is None
                 else f"at xi = {rep.worst_xi:.4f}")
        print(f"{kind}: worst margin {rep.worst:.3e} {where}")
    nl = kpp.lower_nonlinearity(p, l)
    _write_json(out / "bounds_report.json",
                {"reports": reports, "shift": bp.shift, "l": l,
                 "lower_plateau_slope": nl.plateau_slope_report()}, cfg)
    print(f"ordering shift r = {bp.shift:g}")
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig) -> int:
    p = derive_params(cfg.alpha, cfg.k)
    w = spectrum.WeightPair(cfg.sigma1, cfg.sigma2)
    rep = spectrum.make_spectrum_report(p, cfg.c, w)
    out = _outdir(cfg, "spectrum")
    write_csv(out / "curves.csv", "branch,y,x",
              [cv["branch"] for cv in rep.curves for _ in cv["y"]],
              [y for cv in rep.curves for y in cv["y"]],
              [x for cv in rep.curves for x in cv["x"]])
    _write_json(out / "spectrum_report.json", rep.to_dict(), cfg)
    try:
        win = spectrum.weight_window(p, cfg.c)
        print(f"weight window: sigma1 in [0, {win.sigma1_max:.7f}), "
              f"sigma2 in ({win.sigma2_min:.7f}, {win.sigma2_max:.7f})")
    except EmptyWindowError as exc:  # at critical speed; still report curves
        print(f"weight window: {exc}")
    print(f"max Re essential spectrum = {rep.max_re_essential:.17g}")
    return EXIT_OK


def cmd_eigs(cfg: RunConfig, count: int) -> int:
    p, g, bp, prof, _ = _solve_pipeline(cfg)
    w = spectrum.WeightPair(cfg.sigma1, cfg.sigma2)
    op = spectrum.assemble_weighted_operator(p, prof, w)
    rep = spectrum.make_spectrum_report(p, cfg.c, w, operator=op, count=count)
    out = _outdir(cfg, "eigs")
    ev = rep.eigenvalues
    write_csv(out / "eigenvalues.csv", "re,im,boundary_mass_fraction",
              [e[0] for e in ev], [e[1] for e in ev], [e[2] for e in ev])
    tm = spectrum.translation_mode_check(p, prof, w)
    _write_json(out / "spectrum_report.json",
                {**rep.to_dict(), "translation_mode": tm.to_dict()}, cfg)
    print(f"rightmost eigenvalue: {rep.rightmost.real:.8f} "
          f"{rep.rightmost.imag:+.8f}i")
    print(f"translation mode residual {tm.residual_sup:.3e}, "
          f"weighted tail factor {tm.tail_factor:.3e}")
    return EXIT_OK


def cmd_stability(cfg: RunConfig) -> int:
    # validate the run before the wave solve, which is most of its cost
    simcfg = dynamics.SimConfig(dt=cfg.dt, t_end=cfg.t_end)
    w = spectrum.WeightPair(cfg.sigma1, cfg.sigma2)
    win = spectrum.weight_window(derive_params(cfg.alpha, cfg.k), cfg.c)
    if not win.contains(w):
        print(f"weights ({w.sigma1}, {w.sigma2}) outside the admissible window",
              file=sys.stderr)
        return EXIT_VALIDATION
    p, g, bp, prof, _ = _solve_pipeline(cfg)
    rep = dynamics.stability_experiment(p, cfg.c, prof, w, simcfg)
    out = _outdir(cfg, "stability")
    dynamics.trace_to_csv(rep.pop("trace"), out / "trace.csv")
    _write_json(out / "report.json", rep, cfg)
    print(f"weighted norm {rep['initial_weighted_norm']:.4e} -> "
          f"{rep['final_weighted_norm']:.4e} (ratio {rep['norm_ratio']:.3e}); "
          f"fitted decay b = {rep['b']:.4f}")
    return EXIT_OK


def cmd_instability(cfg: RunConfig) -> int:
    simcfg = dynamics.SimConfig(dt=cfg.dt, t_end=min(cfg.t_end, 20.0))
    p, g, bp, prof, _ = _solve_pipeline(cfg)
    rep = dynamics.instability_experiment(
        p, cfg.c, prof, simcfg, w=spectrum.WeightPair(cfg.sigma1, cfg.sigma2))
    out = _outdir(cfg, "instability")
    dynamics.trace_to_csv(rep.pop("trace"), out / "trace.csv")
    _write_json(out / "report.json", rep, cfg)
    print(f"sup-norm deviation grew {rep['growth_factor']:.1f}x by "
          f"t = {rep['t_end']:g} (weighted size at start "
          f"{rep['initial_weighted_norm']:.3e})")
    return EXIT_OK


def cmd_spread(cfg: RunConfig, t0: float, t1: float) -> int:
    p = derive_params(cfg.alpha, cfg.k)
    g = make_grid(cfg.L, cfg.n)
    simcfg = dynamics.SimConfig(dt=cfg.dt, t_end=max(cfg.t_end, t1),
                                record_every=50)
    rep = dynamics.spreading_experiment(p, g, simcfg, t_window=(t0, t1))
    out = _outdir(cfg, "spread")
    dynamics.trace_to_csv(rep.pop("trace"), out / "trace.csv")
    _write_json(out / "report.json", rep, cfg)
    print(f"measured spreading speed {rep['speed']:.4f} "
          f"(selected speed {rep['predicted_speed']:g})")
    return EXIT_OK


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", type=str, default=None,
                    help="flat key=value configuration file")
    for name, typ in (("alpha", float), ("k", float), ("c", float),
                      ("l", float), ("L", float), ("n", int),
                      ("sigma1", float), ("sigma2", float), ("tol", float),
                      ("max-iter", int), ("dt", float), ("t-end", float)):
        sp.add_argument(f"--{name}", type=typ, default=None,
                        dest=name.replace("-", "_"))
    sp.add_argument("--output-dir", type=str, default=None, dest="output_dir")


def _cfg_from_args(args) -> RunConfig:
    overrides = {k: getattr(args, k) for k in
                 ("alpha", "k", "c", "l", "L", "n", "sigma1", "sigma2",
                  "tol", "max_iter", "dt", "t_end", "output_dir")}
    return resolve_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pggwave",
        description="Traveling fronts of the public-goods reaction-diffusion "
                    "system: existence, spectra, and dynamic stability.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("params", "wave", "bounds-check", "spectrum", "stability",
                 "instability"):
        _add_common(sub.add_parser(name))
    sp = sub.add_parser("eigs")
    _add_common(sp)
    sp.add_argument("--count", type=int, default=6)
    sp = sub.add_parser("spread")
    _add_common(sp)
    sp.add_argument("--t0", type=float, default=40.0)
    sp.add_argument("--t1", type=float, default=80.0)
    sp = sub.add_parser("sweep")
    _add_common(sp)
    sp.add_argument("--run", type=str, required=True,
                    choices=[c for c in COMMANDS if c not in ("params", "sweep")])
    sp.add_argument("--vary", action="append", default=[],
                    metavar="KEY=V1,V2,...",
                    help="repeatable; cartesian product over listed values")
    return ap


def cmd_sweep(cfg: RunConfig, args) -> int:
    """Run ``args.run`` over the grid of points, each validated up front."""
    sweepable = {f.name for f in fields(RunConfig)} - {"output_dir"}
    axes = []
    for item in args.vary:
        key, _, vals = item.partition("=")
        key = key.strip()
        if key not in sweepable:
            raise ParameterError(f"cannot sweep {key!r}: not a sweepable key")
        axes.append((key, [_coerce(key, v) for v in vals.split(",")]))
    base_out = Path(cfg.output_dir)
    points = []
    for combo in itertools.product(*(vals for _, vals in axes)):
        point = dict(zip((k for k, _ in axes), combo))
        sub = base_out / args.run
        for key, val in point.items():
            sub = sub / (f"{key}={val:g}" if isinstance(val, float)
                         else f"{key}={val}")
        point_cfg = replace(cfg, output_dir=str(sub), **point)
        validate_config(point_cfg)
        points.append(point_cfg)
    for point_cfg in points:
        code = COMMANDS[args.run](point_cfg, args)
        if code != EXIT_OK:
            return code
    return EXIT_OK


# subcommand -> runner(cfg, args).  Sweep points run with the sweep's
# arguments, whose parser has no --count, --t0 or --t1: hence the defaults.
COMMANDS = {
    "params": lambda cfg, args: cmd_params(cfg),
    "wave": lambda cfg, args: cmd_wave(cfg),
    "bounds-check": lambda cfg, args: cmd_bounds_check(cfg),
    "spectrum": lambda cfg, args: cmd_spectrum(cfg),
    "eigs": lambda cfg, args: cmd_eigs(cfg, getattr(args, "count", 6)),
    "stability": lambda cfg, args: cmd_stability(cfg),
    "instability": lambda cfg, args: cmd_instability(cfg),
    "spread": lambda cfg, args: cmd_spread(cfg, getattr(args, "t0", 40.0),
                                           getattr(args, "t1", 80.0)),
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](_cfg_from_args(args), args)
    except _CONVERGENCE_ERRORS as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
