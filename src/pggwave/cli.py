"""Command-line surface: reproducible experiments with CSV/JSON artifacts.

The flags are ``RunConfig``'s fields (``--t-end`` sets ``t_end``).  A
subcommand is its checks before solving and its run; ``sweep`` checks every
point first.

Exit codes: 0 success, 2 validation error, 3 convergence failure.  Every
JSON report embeds the fully-resolved configuration, and all numeric output
is formatted deterministically, so identical configurations produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

from . import bounds as bounds_mod
from . import dynamics, kpp, spectrum, wave
from .config import RunConfig, _coerce, resolve_config, validate_config
from .errors import (BlowUpError, ConvergenceError, EmptyWindowError,
                     EnvelopeViolationError, FitWindowError,
                     FrontNotFoundError, ParameterError, ShiftNotFoundError)
from .grid import (make_grid, require_m_matrix, save_profile, write_csv,
                   write_json)
from .model import SpeedVerdict, derive_params, require_monotone_wave

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3

_CONVERGENCE_ERRORS = (ConvergenceError, EnvelopeViolationError,
                       ShiftNotFoundError, BlowUpError, FitWindowError,
                       FrontNotFoundError)


def _write_json(path: Path, report, cfg: RunConfig) -> None:
    """Write a report (a dataclass or a dict) with the run's configuration."""
    payload = asdict(report) if is_dataclass(report) else report
    write_json(path, {**payload, "config": cfg.echo()})


def _outdir(cfg: RunConfig, sub: str) -> Path:
    d = Path(cfg.output_dir) / sub
    d.mkdir(parents=True, exist_ok=True)
    return d


def _bounds(cfg: RunConfig) -> bounds_mod.BoundPair:
    return bounds_mod.make_bounds(derive_params(cfg.alpha, cfg.k), cfg.c,
                                  make_grid(cfg.L, cfg.n), l=cfg.l,
                                  tol=min(cfg.tol, 1e-12))


def _solve_pipeline(cfg: RunConfig):
    bp = _bounds(cfg)
    prof, report = wave.solve_wave(bp, tol=cfg.tol)
    return bp.params, prof, report


def _check_none(cfg: RunConfig, args) -> None:
    """No check beyond the configuration's own."""


def _check_front(cfg: RunConfig, args) -> SpeedVerdict:
    """A front solve's preconditions: a monotone wave exists at speed c, and
    the stencil at c is an M-matrix on the grid."""
    verdict = require_monotone_wave(derive_params(cfg.alpha, cfg.k), cfg.c)
    require_m_matrix(make_grid(cfg.L, cfg.n), cfg.c)
    return verdict


def _check_wave(cfg: RunConfig, args) -> SpeedVerdict:
    """A front solve's preconditions, and tail fit windows that hold enough
    nodes."""
    verdict = _check_front(cfg, args)
    wave.check_fit_windows(make_grid(cfg.L, cfg.n))
    return verdict


def _check_eigs(cfg: RunConfig, args) -> None:
    _check_front(cfg, args)
    spectrum.check_count(args.count, 2 * cfg.n)


def _check_stability(cfg: RunConfig, args) -> dynamics.SimConfig:
    _check_front(cfg, args)
    w = spectrum.WeightPair(cfg.sigma1, cfg.sigma2)
    if not spectrum.weight_window(derive_params(cfg.alpha, cfg.k),
                                  cfg.c).contains(w):
        raise ParameterError(
            f"weights ({w.sigma1}, {w.sigma2}) outside the admissible window")
    return dynamics.SimConfig(dt=cfg.dt, t_end=cfg.t_end)


def _check_instability(cfg: RunConfig, args) -> dynamics.SimConfig:
    _check_front(cfg, args)
    return dynamics.SimConfig(dt=cfg.dt, t_end=min(cfg.t_end, 20.0))


def _check_spread(cfg: RunConfig, args) -> dynamics.SimConfig:
    dynamics.check_speed_window((args.t0, args.t1))
    return dynamics.SimConfig(dt=cfg.dt, t_end=max(cfg.t_end, args.t1),
                              record_every=50)


def cmd_params(cfg: RunConfig, args, _) -> None:
    p = derive_params(cfg.alpha, cfg.k)
    identity_gap = abs((1.0 + p.k * p.kstar - p.kstar)
                       - p.alpha / (1.0 - p.k + p.alpha * p.k))
    print(f"alpha = {p.alpha:.17g}")
    print(f"k = {p.k:.17g}")
    print(f"K* = {p.kstar:.17g}")
    print(f"cmin = {p.cmin:.17g}")
    print(f"identity |1 + k K* - K* - alpha/(1-k+alpha k)| = {identity_gap:.3e}")


def cmd_wave(cfg: RunConfig, args, verdict: SpeedVerdict) -> None:
    p, prof, report = _solve_pipeline(cfg)
    normalized = wave.normalize_phase(prof)
    fits = [wave.fit_decay(normalized, p, side) for side in ("-inf", "+inf")]
    out = _outdir(cfg, "wave")
    save_profile(normalized, out / "profile.csv", alpha=cfg.alpha, k=cfg.k,
                 sigma1=cfg.sigma1, sigma2=cfg.sigma2)
    _write_json(out / "iteration_report.json", report, cfg)
    _write_json(out / "decay_fits.json", {"fits": fits, "verdict": verdict},
                cfg)
    mins = wave.check_monotone(prof)
    print(f"converged in {report.iterations} iterations and "
          f"{len(report.newton_steps)} Newton steps; "
          f"residual {report.final_residual:.3e}; "
          f"min forward differences {mins[0]:.3e}, {mins[1]:.3e}")
    for f in fits:
        print(f"decay {f.side}: rate_u {f.rate_u:.6f} rate_v {f.rate_v:.6f} "
              f"predicted {f.predicted_rate:.6f}")


def cmd_bounds_check(cfg: RunConfig, args, verdict) -> None:
    bp = _bounds(cfg)
    p, g = bp.params, bp.upper.grid
    out = _outdir(cfg, "bounds-check")
    reports = {}
    for kind, prof in (("upper", bp.upper), ("lower", bp.lower)):
        rep = bounds_mod.verify_bound(p, prof, kind)
        bounds_mod.margins_to_csv(rep, g, out / f"margins_{kind}.csv")
        reports[kind] = {"worst": rep.worst, "worst_xi": rep.worst_xi,
                         "worst_component": rep.worst_component,
                         "passed": rep.passed}
        where = ("at roundoff" if rep.worst_xi is None
                 else f"at xi = {rep.worst_xi:.4f}")
        print(f"{kind}: worst margin {rep.worst:.3e} {where}")
    nl = kpp.lower_nonlinearity(p, bp.l)
    _write_json(out / "bounds_report.json",
                {"reports": reports, "fronts": bp.fronts, "shift": bp.shift,
                 "l": bp.l, "lower_plateau_slope": nl.plateau_slope_report()},
                cfg)
    print(f"ordering shift r = {bp.shift:g}")


def cmd_spectrum(cfg: RunConfig, args, _) -> None:
    p = derive_params(cfg.alpha, cfg.k)
    w = spectrum.WeightPair(cfg.sigma1, cfg.sigma2)
    rep = spectrum.make_spectrum_report(p, cfg.c, w)
    out = _outdir(cfg, "spectrum")
    write_csv(out / "curves.csv", "branch,y,x",
              [cv["branch"] for cv in rep.curves for _ in cv["y"]],
              [y for cv in rep.curves for y in cv["y"]],
              [x for cv in rep.curves for x in cv["x"]])
    _write_json(out / "spectrum_report.json", rep, cfg)
    try:
        win = spectrum.weight_window(p, cfg.c)
        print(f"weight window: sigma1 in [0, {win.sigma1_max:.7f}), "
              f"sigma2 in ({win.sigma2_min:.7f}, {win.sigma2_max:.7f})")
    except EmptyWindowError as exc:  # at critical speed; still report curves
        print(f"weight window: {exc}")
    print(f"max Re essential spectrum = {rep.max_re_essential:.17g}")


def cmd_eigs(cfg: RunConfig, args, _) -> None:
    p, prof, _ = _solve_pipeline(cfg)
    w = spectrum.WeightPair(cfg.sigma1, cfg.sigma2)
    op = spectrum.assemble_weighted_operator(p, prof, w)
    rep = spectrum.make_spectrum_report(
        p, cfg.c, w, spectrum.eigen_report(op, args.count))
    out = _outdir(cfg, "eigs")
    cols = ("re", "im", "boundary_mass_fraction")
    write_csv(out / "eigenvalues.csv", ",".join(cols),
              *([ev[key] for ev in rep.eigenvalues] for key in cols))
    tm = spectrum.translation_mode_check(p, prof, w)
    _write_json(out / "spectrum_report.json",
                {**asdict(rep), "translation_mode": tm}, cfg)
    print(f"rightmost eigenvalue: {rep.rightmost.real:.8f} "
          f"{rep.rightmost.imag:+.8f}i")
    print(f"translation mode residual {tm.residual_sup:.3e}, "
          f"weighted tail factor {tm.tail_factor:.3e}")


def cmd_stability(cfg: RunConfig, args, simcfg: dynamics.SimConfig) -> None:
    p, prof, _ = _solve_pipeline(cfg)
    rep = dynamics.stability_experiment(
        p, prof, spectrum.WeightPair(cfg.sigma1, cfg.sigma2), simcfg)
    out = _outdir(cfg, "stability")
    dynamics.trace_to_csv(rep.pop("trace"), out / "trace.csv")
    _write_json(out / "report.json", rep, cfg)
    print(f"weighted norm {rep['initial_weighted_norm']:.4e} -> "
          f"{rep['final_weighted_norm']:.4e} (ratio {rep['norm_ratio']:.3e}); "
          f"fitted decay b = {rep['b']:.4f}")


def cmd_instability(cfg: RunConfig, args, simcfg: dynamics.SimConfig) -> None:
    p, prof, _ = _solve_pipeline(cfg)
    rep = dynamics.instability_experiment(
        p, prof, spectrum.WeightPair(cfg.sigma1, cfg.sigma2), simcfg)
    out = _outdir(cfg, "instability")
    dynamics.trace_to_csv(rep.pop("trace"), out / "trace.csv")
    _write_json(out / "report.json", rep, cfg)
    print(f"sup-norm deviation grew {rep['growth_factor']:.1f}x by "
          f"t = {rep['t_end']:g} (weighted size at start "
          f"{rep['initial_weighted_norm']:.3e})")


def cmd_spread(cfg: RunConfig, args, simcfg: dynamics.SimConfig) -> None:
    rep = dynamics.spreading_experiment(
        derive_params(cfg.alpha, cfg.k), make_grid(cfg.L, cfg.n), simcfg,
        (args.t0, args.t1))
    out = _outdir(cfg, "spread")
    dynamics.trace_to_csv(rep.pop("trace"), out / "trace.csv")
    _write_json(out / "report.json", rep, cfg)
    print(f"measured spreading speed {rep['speed']:.4f} "
          f"(selected speed {rep['predicted_speed']:g})")


def cmd_sweep(cfg: RunConfig, args, _) -> None:
    """Run ``args.run`` over every point, all checked before any runs."""
    check, run = COMMANDS[args.run]
    point_args = argparse.Namespace(**OPTIONS.get(args.run, {}))
    sweepable = {f.name for f in fields(RunConfig)} - {"output_dir"}
    axes = []
    for item in args.vary:
        key, _, vals = item.partition("=")
        key = key.strip()
        if key not in sweepable:
            raise ParameterError(f"cannot sweep {key!r}: not a sweepable key")
        axes.append((key, [_coerce(key, v) for v in vals.split(",")]))
    base_out = Path(cfg.output_dir)
    points = {}
    for combo in itertools.product(*(vals for _, vals in axes)):
        point = dict(zip((k for k, _ in axes), combo))
        sub = base_out / args.run
        for key, val in point.items():
            sub = sub / (f"{key}={val:g}" if isinstance(val, float)
                         else f"{key}={val}")
        if str(sub) in points:
            raise ParameterError(f"two sweep points would write to {sub}")
        point_cfg = replace(cfg, output_dir=str(sub), **point)
        validate_config(point_cfg)
        points[str(sub)] = (point_cfg, check(point_cfg, point_args))
    for point_cfg, checked in points.values():
        run(point_cfg, point_args, checked)


# subcommand -> (its checks before solving, its run)
COMMANDS = {
    "params": (_check_none, cmd_params),
    "wave": (_check_wave, cmd_wave),
    "bounds-check": (_check_front, cmd_bounds_check),
    "spectrum": (_check_none, cmd_spectrum),
    "eigs": (_check_eigs, cmd_eigs),
    "stability": (_check_stability, cmd_stability),
    "instability": (_check_instability, cmd_instability),
    "spread": (_check_spread, cmd_spread),
    "sweep": (_check_none, cmd_sweep),
}
# a subcommand's own options and their defaults; sweep points take these
OPTIONS = {"eigs": {"count": 6}, "spread": {"t0": 40.0, "t1": 80.0}}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand; a configuration flag not given is
    absent from the parsed arguments."""
    ap = argparse.ArgumentParser(
        prog="pggwave",
        description="Traveling fronts of the public-goods reaction-diffusion "
                    "system: existence, spectra, and dynamic stability.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None,
                        help="flat key=value configuration file")
        for f in fields(RunConfig):
            sp.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            default=argparse.SUPPRESS)
        for opt, default in OPTIONS.get(name, {}).items():
            sp.add_argument(f"--{opt}", type=type(default), default=default)
        if name == "sweep":
            sp.add_argument("--run", type=str, required=True,
                            choices=[c for c in COMMANDS
                                     if c not in ("params", "sweep")])
            sp.add_argument("--vary", action="append", default=[],
                            metavar="KEY=V1,V2,...",
                            help="repeatable; cartesian product of the values")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    check, run = COMMANDS[args.command]
    given = vars(args)
    try:
        cfg = resolve_config(args.config, {
            f.name: _coerce(f.name, given[f.name])
            for f in fields(RunConfig) if f.name in given})
        run(cfg, args, check(cfg, args))
    except _CONVERGENCE_ERRORS as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
