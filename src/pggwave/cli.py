"""Command-line surface: reproducible experiments with CSV/JSON artifacts.

The flags are ``RunConfig``'s fields (``--t-end`` sets ``t_end``).  A
subcommand is its checks before solving and its run; ``sweep`` checks every
point first.

Exit codes: 0 success, 2 validation error, 3 numerical failure (an
``errors.NumericalError``, printed after ``numerical failure:``).  Every
JSON report embeds the fully-resolved configuration, and all numeric output
is formatted deterministically, so identical configurations produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

from . import bounds as bounds_mod
from . import dynamics, kpp, spectrum, wave
from .config import RunConfig, _coerce, resolve_config
from .errors import EmptyWindowError, NumericalError, ParameterError
from .grid import require_m_matrix, save_profile, write_csv, write_json
from .model import SpeedVerdict, require_monotone_wave

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _write_json(path: Path, report, cfg: RunConfig) -> None:
    """Write a report (a dataclass or a dict) with the run's configuration."""
    payload = asdict(report) if is_dataclass(report) else report
    write_json(path, {**payload, "config": cfg.echo()})


def _bounds(cfg: RunConfig) -> bounds_mod.BoundPair:
    return bounds_mod.make_bounds(cfg.params, cfg.c, cfg.grid, l=cfg.l,
                                  tol=min(cfg.tol, 1e-12))


def _solve_pipeline(cfg: RunConfig):
    return wave.solve_wave(_bounds(cfg), tol=cfg.tol)


def _check_none(cfg: RunConfig, args) -> None:
    """No check beyond the configuration's own."""


def _check_front(cfg: RunConfig, args) -> SpeedVerdict:
    """A front solve's preconditions: a monotone wave exists at speed c, and
    the stencil at c is an M-matrix on the grid."""
    verdict = require_monotone_wave(cfg.params, cfg.c)
    require_m_matrix(cfg.grid, cfg.c)
    return verdict


def _check_wave(cfg: RunConfig, args) -> SpeedVerdict:
    """A front solve's preconditions, and tail fit windows that hold enough
    nodes."""
    verdict = _check_front(cfg, args)
    wave.check_fit_windows(cfg.grid)
    return verdict


def _check_eigs(cfg: RunConfig, args) -> None:
    _check_front(cfg, args)
    spectrum.check_count(args.count, 2 * cfg.n)


def _check_stability(cfg: RunConfig, args) -> dynamics.SimConfig:
    """A front solve's preconditions, weights inside the admissible window
    whose computed weighted essential spectrum is negative (at the window's
    edge the computed vertex can round to >= 0), and a run that records
    enough samples for its decay fit."""
    _check_front(cfg, args)
    p, w = cfg.params, cfg.weights
    if not spectrum.weight_window(p, cfg.c).contains(w):
        raise ParameterError(
            f"weights ({w.sigma1}, {w.sigma2}) outside the admissible window")
    top, vertices = spectrum.essential_spectrum_max(p, cfg.c, w)
    if top >= 0:
        raise ParameterError(
            f"weights ({w.sigma1}, {w.sigma2}): the vertex of branch "
            f"{int(vertices.argmax()) + 1} of the weighted essential spectrum "
            f"is {top:.3e} >= 0")
    simcfg = dynamics.SimConfig(dt=cfg.dt, t_end=cfg.t_end)
    dynamics.check_decay_window(simcfg)
    return simcfg


def _run_to(cfg: RunConfig, t_end: float, rule: str, **options):
    """A time run to ``t_end``, the horizon ``rule`` sets from the settings;
    a refusal names the horizon and its rule, not a t_end the user did not
    give."""
    try:
        return dynamics.SimConfig(dt=cfg.dt, t_end=t_end, **options)
    except ParameterError as exc:
        raise ParameterError(f"the run's horizon {rule} = {t_end:g} is "
                             f"refused: {exc}") from None


def _check_instability(cfg: RunConfig, args) -> dynamics.SimConfig:
    _check_front(cfg, args)
    return _run_to(cfg, min(cfg.t_end, 20.0), "min(t_end, 20)")


def _check_spread(cfg: RunConfig, args) -> dynamics.SimConfig:
    """A run to the later of t_end and the speed window's end t1, and the
    window inside it; a t1 that is not finite sets no horizon, so the
    window's own check refuses it."""
    simcfg = _run_to(cfg, args.t1 if cfg.t_end < args.t1 < math.inf
                     else cfg.t_end, "max(t_end, t1)", record_every=50)
    dynamics.check_speed_window(simcfg, (args.t0, args.t1))
    return simcfg


def cmd_params(cfg: RunConfig, args, _) -> None:
    p = cfg.params
    identity_gap = abs((1.0 + p.k * p.kstar - p.kstar) - p.alpha / p.d)
    print(f"alpha = {p.alpha:.17g}")
    print(f"k = {p.k:.17g}")
    print(f"K* = {p.kstar:.17g}")
    print(f"cmin = {p.cmin:.17g}")
    print(f"identity |1 + k K* - K* - alpha/(1-k+alpha k)| = {identity_gap:.3e}")


def cmd_wave(cfg: RunConfig, args, verdict: SpeedVerdict) -> None:
    prof, report = _solve_pipeline(cfg)
    normalized = wave.normalize_phase(prof)
    fits = [wave.fit_decay(normalized, side) for side in ("-inf", "+inf")]
    out = Path(cfg.output_dir) / "wave"
    save_profile(normalized, out / "profile.csv")
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
    out = Path(cfg.output_dir) / "bounds-check"
    reports = {}
    for kind, prof in (("upper", bp.upper), ("lower", bp.lower)):
        rep = bounds_mod.verify_bound(prof, kind)
        bounds_mod.margins_to_csv(rep, prof.grid, out / f"margins_{kind}.csv")
        reports[kind] = {"worst": rep.worst, "worst_xi": rep.worst_xi,
                         "worst_component": rep.worst_component,
                         "passed": rep.passed}
        where = ("at roundoff" if rep.worst_xi is None
                 else f"at xi = {rep.worst_xi:.4f}")
        print(f"{kind}: worst margin {rep.worst:.3e} {where}")
    nl = kpp.lower_nonlinearity(bp.params, bp.l)
    _write_json(out / "bounds_report.json",
                {"reports": reports, "fronts": bp.fronts, "shift": bp.shift,
                 "l": bp.l, "lower_plateau_slope": nl.plateau_slope_report()},
                cfg)
    print(f"ordering shift r = {bp.shift:g}")


def cmd_spectrum(cfg: RunConfig, args, _) -> None:
    # the window first: its speed verdict refuses a speed outside (0, inf)
    try:
        win = spectrum.weight_window(cfg.params, cfg.c)
        window = (f"sigma1 in [0, {win.sigma1_max:.7f}), sigma2 in "
                  f"({win.sigma2_min:.7f}, {win.sigma2_max:.7f})")
    except EmptyWindowError as exc:  # at critical speed; still report curves
        window = str(exc)
    rep = spectrum.make_spectrum_report(cfg.params, cfg.c, cfg.weights)
    out = Path(cfg.output_dir) / "spectrum"
    write_csv(out / "curves.csv", "branch,y,x",
              [cv["branch"] for cv in rep.curves for _ in cv["y"]],
              [y for cv in rep.curves for y in cv["y"]],
              [x for cv in rep.curves for x in cv["x"]])
    _write_json(out / "spectrum_report.json", rep, cfg)
    print(f"weight window: {window}")
    print(f"max Re essential spectrum = {rep.max_re_essential:.17g}")


def cmd_eigs(cfg: RunConfig, args, _) -> None:
    prof, _ = _solve_pipeline(cfg)
    op = spectrum.assemble_weighted_operator(prof, cfg.weights)
    rep = spectrum.make_spectrum_report(prof.params, prof.c, cfg.weights,
                                        spectrum.eigen_report(op, args.count))
    out = Path(cfg.output_dir) / "eigs"
    cols = ("re", "im", "boundary_mass_fraction")
    write_csv(out / "eigenvalues.csv", ",".join(cols),
              *([ev[key] for ev in rep.eigenvalues] for key in cols))
    tm = spectrum.translation_mode_check(prof, cfg.weights)
    _write_json(out / "spectrum_report.json",
                {**asdict(rep), "translation_mode": tm}, cfg)
    print(f"rightmost eigenvalue: {rep.rightmost.real:.8f} "
          f"{rep.rightmost.imag:+.8f}i")
    print(f"translation mode residual {tm.residual_sup:.3e}, "
          f"weighted tail factor {tm.tail_factor:.3e}")


def _write_run(cfg: RunConfig, simcfg: dynamics.SimConfig, sub: str,
               run: tuple[dict, dynamics.Trace]) -> dict:
    """Write a time run's ``trace.csv`` and its ``report.json``, the
    experiment's report with the run's ``dt``, ``steps`` and
    ``guard_margin``; returns the experiment's report."""
    rep, tr = run
    out = Path(cfg.output_dir) / sub
    dynamics.trace_to_csv(tr, out / "trace.csv")
    _write_json(out / "report.json", dict(rep, dt=simcfg.dt, steps=tr.steps,
                                          guard_margin=tr.guard_margin), cfg)
    return rep


def cmd_stability(cfg: RunConfig, args, simcfg: dynamics.SimConfig) -> None:
    prof, _ = _solve_pipeline(cfg)
    rep = _write_run(cfg, simcfg, "stability",
                     dynamics.stability_experiment(prof, cfg.weights, simcfg))
    print(f"weighted norm {rep['initial_weighted_norm']:.4e} -> "
          f"{rep['final_weighted_norm']:.4e} (ratio {rep['norm_ratio']:.3e}); "
          f"fitted decay b = {rep['b']:.4f}")


def cmd_instability(cfg: RunConfig, args, simcfg: dynamics.SimConfig) -> None:
    prof, _ = _solve_pipeline(cfg)
    run = dynamics.instability_experiment(prof, cfg.weights, simcfg)
    rep = _write_run(cfg, simcfg, "instability", run)
    print(f"sup-norm deviation grew {rep['growth_factor']:.1f}x by "
          f"t = {rep['t_end']:g} (weighted size at start "
          f"{rep['initial_weighted_norm']:.3e})")


def cmd_spread(cfg: RunConfig, args, simcfg: dynamics.SimConfig) -> None:
    rep = _write_run(cfg, simcfg, "spread", dynamics.spreading_experiment(
        cfg.params, cfg.grid, simcfg, (args.t0, args.t1)))
    print(f"measured spreading speed {rep['speed']:.4f} "
          f"(selected speed {rep['predicted_speed']:g})")


def cmd_sweep(cfg: RunConfig, args, _) -> None:
    """Run ``args.run`` over every point, all checked before any runs."""
    check, run = COMMANDS[args.run]
    point_args = argparse.Namespace(**OPTIONS.get(args.run, {}))
    sweepable = {f.name for f in fields(RunConfig)} - {"output_dir"}
    axes = {}
    for item in args.vary:
        key, _, vals = item.partition("=")
        key = key.strip()
        if key not in sweepable:
            raise ParameterError(f"cannot sweep {key!r}: not a sweepable key")
        if key in axes:
            raise ParameterError(f"{key!r} is varied twice: give its values "
                                 f"in one --vary {key}=a,b,...")
        axes[key] = [_coerce(key, v) for v in vals.split(",")]
    base_out = Path(cfg.output_dir)
    points = {}
    for combo in itertools.product(*axes.values()):
        point = dict(zip(axes, combo))
        sub = base_out / args.run
        for key, val in point.items():
            sub = sub / (f"{key}={val:g}" if isinstance(val, float)
                         else f"{key}={val}")
        if str(sub) in points:
            raise ParameterError(f"two sweep points would write to {sub}")
        point_cfg = replace(cfg, output_dir=str(sub), **point)
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
    absent from the parsed arguments.

    ``--config`` and the ``RunConfig`` flags are built once, in a parent
    parser that every subparser inherits; a subcommand's own options and
    ``sweep``'s ``--run`` and ``--vary`` follow them."""
    ap = argparse.ArgumentParser(
        prog="pggwave",
        description="Traveling fronts of the public-goods reaction-diffusion "
                    "system: existence, spectra, and dynamic stability.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="flat key=value configuration file")
    for f in fields(RunConfig):
        common.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name, parents=[common])
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
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
