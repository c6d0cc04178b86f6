"""The three benchmark workloads and the correctness gates on their artifacts.

Every workload runs at ``alpha=0.25``, ``k=0.5`` and passes every setting that
changes the computed result explicitly, so a change to a CLI default cannot
change what is measured.  The gates use the acceptance criteria's own
tolerances (``tests/test_acceptance.py``), neither tighter nor looser.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

ALPHA, K = 0.25, 0.5
COMMON = ["--alpha", str(ALPHA), "--k", str(K), "--tol", "1e-10",
          "--sigma1", "0.05", "--sigma2", "0.5", "--dt", "0.01"]
BASE_GRID = ["--c", "1.25", "--L", "40", "--n", "3999"]


def _read(out: Path, sub: str, name: str) -> dict:
    return json.loads((out / sub / name).read_text())


def _rel(x: float, target: float) -> float:
    return abs(x - target) / abs(target)


def tail_targets(c: float) -> dict:
    """Analytic tail rates: mu^2 - c mu + alpha = 0 at -inf (slow root) and
    mu^2 - c mu - alpha = 0 at +inf (negative root)."""
    return {"-inf": (c - math.sqrt(max(c * c - 4.0 * ALPHA, 0.0))) / 2.0,
            "+inf": (c - math.sqrt(c * c + 4.0 * ALPHA)) / 2.0}


def _fits(out: Path) -> dict:
    return {f["side"]: f for f in _read(out, "wave", "decay_fits.json")["fits"]}


def _rates_within(fit: dict, target: float, tol: float, label: str) -> list:
    return [f"{label} {comp} {fit[comp]:.6g} not within {tol:.0%} of {target}"
            for comp in ("rate_u", "rate_v") if not _rel(fit[comp], target) < tol]


def gate_base_wave(out: Path) -> list:
    rep = _read(out, "wave", "iteration_report.json")
    fits = _fits(out)
    errs = [] if rep["converged"] else ["monotone iteration did not converge"]
    if not rep["final_residual"] < 1e-8:
        errs.append(f"final residual {rep['final_residual']:.3e} >= 1e-8")
    errs += _rates_within(fits["-inf"], 0.25, 0.02, "-inf")
    errs += _rates_within(fits["+inf"], -0.1753906, 0.05, "+inf")
    return errs


def gate_critical_wave(out: Path) -> list:
    return _rates_within(_fits(out)["+inf"], -0.2071068, 0.10, "+inf")


def gate_eigs(out: Path) -> list:
    rep = _read(out, "eigs", "spectrum_report.json")
    tm = rep["translation_mode"]
    errs = []
    if not abs(rep["rightmost"][0] - (-0.15208)) < 5e-4:
        errs.append(f"rightmost Re {rep['rightmost'][0]:.6f} not within 5e-4 "
                    f"of -0.15208")
    if not all(ev["re"] < 0 for ev in rep["eigenvalues"]):
        errs.append("an eigenvalue has Re >= 0")
    if not tm["residual_sup"] < 1e-5:
        errs.append(f"translation residual {tm['residual_sup']:.3e} >= 1e-5")
    if not tm["tail_factor"] > 1e3:
        errs.append(f"tail factor {tm['tail_factor']:.3e} <= 1e3")
    return errs


def gate_stability(out: Path) -> list:
    rep = _read(out, "stability", "report.json")
    errs = []
    if not rep["norm_ratio"] < 0.1:
        errs.append(f"norm ratio {rep['norm_ratio']:.3e} >= 0.1")
    if not rep["b"] > 0.05:
        errs.append(f"decay constant b {rep['b']:.4f} <= 0.05")
    return errs


def gate_instability(out: Path) -> list:
    g = _read(out, "instability", "report.json")["growth_factor"]
    return [] if g >= 5.0 else [f"growth factor {g:.2f} < 5"]


def gate_spread(out: Path) -> list:
    s = _read(out, "spread", "report.json")["speed"]
    return [] if abs(s - 1.0) < 0.1 else [f"spreading speed {s:.4f} not within 0.1 of 1"]


def tail_rate_err(c: float):
    """Largest relative error of the four fitted tail rates (u, v at both ends)."""
    def err(out: Path) -> float:
        targets = tail_targets(c)
        return max(_rel(f[comp], targets[side])
                   for side, f in _fits(out).items()
                   for comp in ("rate_u", "rate_v"))
    return err


def spread_speed_err(out: Path) -> float:
    selected = 2.0 * math.sqrt(ALPHA)
    return _rel(_read(out, "spread", "report.json")["speed"], selected)


@dataclass(frozen=True)
class Step:
    name: str        # subcommand, also the label of its time
    argv: tuple
    gate: object     # out_dir -> list of failure messages
    accuracy: object = None  # out_dir -> relative error, for analytic_err


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple
    reaches: tuple   # per-layer counters a traced run must see above zero

    def order(self, seed: int) -> list:
        """The steps in the order one closed-loop client runs them.

        Every subcommand re-solves from its own configuration, so the order
        must not change any artifact; the seed permutes it, which the
        determinism check then covers.
        """
        steps = list(self.steps)
        random.Random(seed).shuffle(steps)
        return steps


WORKLOADS = {w.name: w for w in (
    Workload("base", (
        Step("wave", ("wave", *BASE_GRID, *COMMON), gate_base_wave,
             tail_rate_err(1.25)),
        Step("eigs", ("eigs", "--c", "1.25", "--L", "40", "--n", "400",
                      "--count", "6", *COMMON), gate_eigs),
        Step("stability", ("stability", *BASE_GRID, "--t-end", "50", *COMMON),
             gate_stability),
        Step("instability", ("instability", *BASE_GRID, "--t-end", "50",
                             *COMMON), gate_instability),
    ), ("kpp.solve_kpp.calls", "wave.solve_wave.calls", "wave.iterations",
        "spectrum.eigen_report.calls", "spectrum.operator_size",
        "dynamics.steps", "dynamics.banded_solves", "model.reaction.calls")),
    Workload("critical", (
        Step("wave", ("wave", "--c", "1.0", "--L", "80", "--n", "7999",
                      *COMMON), gate_critical_wave, tail_rate_err(1.0)),
    ), ("kpp.solve_kpp.calls", "kpp.banded_solves", "wave.solve_wave.calls",
        "wave.iterations", "wave.banded_solves", "model.reaction.calls")),
    Workload("spread", (
        Step("spread", ("spread", "--L", "150", "--n", "5999", "--t0", "40",
                        "--t1", "80", "--t-end", "80", *COMMON),
             gate_spread, spread_speed_err),
    ), ("dynamics.steps", "dynamics.banded_solves", "model.reaction.calls")),
)}
