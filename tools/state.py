"""Print the measured state of the package, each count with the
configuration that made it.

- the box survey: the front pipeline (``make_bounds`` + ``solve_wave``) on
  ``make_grid(40, 3999)`` at small alpha and k near 1, how many of its
  points raise a ``NumericalError``, and the ordering shift: at how many of
  the points ``make_bounds`` built the ``BoundPair.shift`` is positive, and
  the largest shift;
- the corner survey: how many (alpha, k) near the corners of the open box
  ``derive_params`` refuses;
- ROADMAP item 2's floors: the largest weighted deviation of the unperturbed
  front run through ``run_simulation(reference=front)``;
- ROADMAP item 23's rates: the instability run's sup-norm growth rate on
  each window, against the unweighted essential edge, and its growth
  factor;
- ROADMAP item 28's phase origins: the front's crossing x0 of v = 1/2,
  which ``normalize_phase`` sets as its origin, how many rows of the
  ``profile.csv`` that ``save_profile`` writes are not the solved front's
  knot rows, and the four tail-rate errors of ``fit_decay`` against the
  verdict's rates; then both scalar fronts' certified crossings
  (``KppReport.crossing``) at the base point on the benchmark's base grid
  (n = 3999, odd) and its eigs grid (n = 400, even), where the phase row
  and the certificate read one cubic;
- ROADMAP item 29's import floor: the peak resident memory and the module
  count of ``import pggwave, pggwave.cli`` in a fresh interpreter, how
  many of those modules are scipy's, and the symbols ``grid`` bound its
  LAPACK routines under;
- the code lines, through ``tools/code_lines.py``.

It has no threshold and exits 0 whatever it counts.  Run from anywhere:
``python tools/state.py``.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
sys.path[:0] = [str(TOOLS.parent / "src"), str(TOOLS)]

import code_lines  # noqa: E402
from pggwave import (SimConfig, WeightPair, derive_params,  # noqa: E402
                     essential_spectrum_max, fit_decay,
                     instability_experiment, make_bounds, make_grid,
                     normalize_phase, run_simulation, save_profile,
                     solve_wave)
from pggwave.errors import NumericalError, ParameterError  # noqa: E402
from pggwave.grid import least_squares_line  # noqa: E402

BOX_ALPHAS = (0.01, 0.02, 0.03, 0.05)
BOX_KS = (0.95, 0.97, 0.98, 0.99)
BOX_RATIOS = np.linspace(1.0, 3.0, 11)      # c / cmin
BOX_GRID = (40.0, 3999)
CORNER_DISTANCES = np.geomspace(1e-6, 0.5, 40)   # alpha, and 1 - k
# (c, L, n, weights) at alpha 0.25, k 0.5: base and critical speed
FLOOR_RUNS = ((1.25, 40.0, 3999, (0.05, 0.5)), (1.25, 80.0, 7999, (0.05, 0.5)),
              (1.0, 80.0, 7999, (0.0, 0.5)), (1.0, 80.0, 7999, (0.0, 0.4)))
# (alpha, k, c / cmin, L, n): the base point at two lengths, two points off it
RATE_POINTS = ((0.25, 0.5, 1.25, 40.0, 399), (0.25, 0.5, 1.25, 80.0, 799),
               (0.09, 0.9, 1.2, 40.0, 399), (0.04, 0.5, 1.5, 40.0, 399))
RATE_WINDOWS = ((1.0, 5.0), (5.0, 10.0), (10.0, 15.0), (15.0, 20.0))
# (alpha, k, c, L, n): the benchmark's base and critical fronts, and a front
# far from its grid's centre
PHASE_POINTS = ((0.25, 0.5, 1.25, 40.0, 3999), (0.25, 0.5, 1.0, 80.0, 7999),
                (0.02, 0.99, 0.55, 40.0, 3999))
# (alpha, k, c, L, n): the base point on the base and eigs grids, odd and
# even n
CROSSING_POINTS = ((0.25, 0.5, 1.25, 40.0, 3999), (0.25, 0.5, 1.25, 40.0, 400))


def box_survey() -> None:
    g = make_grid(*BOX_GRID)
    failed, shifts, points = [], [], 0
    start = time.perf_counter()
    for alpha in BOX_ALPHAS:
        for k in BOX_KS:
            p = derive_params(alpha, k)
            for ratio in BOX_RATIOS:
                points += 1
                try:
                    bp = make_bounds(p, float(ratio) * p.cmin, g)
                    shifts.append(bp.shift)
                    solve_wave(bp)
                except NumericalError as exc:
                    failed.append((alpha, k, float(ratio), exc))
    seconds = time.perf_counter() - start
    print(f"box survey: make_bounds + solve_wave on make_grid{BOX_GRID}, "
          f"alpha in {BOX_ALPHAS}, k in {BOX_KS}, c/cmin = linspace(1, 3, "
          f"{len(BOX_RATIOS)}): {len(failed)} of {points} failed "
          f"({seconds:.1f} s)")
    for alpha, k, ratio, exc in failed:
        print(f"  alpha {alpha:g} k {k:g} c/cmin {ratio:g}: "
              f"{type(exc).__name__}: {exc}")
    print(f"ordering shift: BoundPair.shift > 0 at "
          f"{sum(s > 0 for s in shifts)} of the {len(shifts)} points "
          f"make_bounds built, largest {max(shifts, default=0.0):g}")


def corner_survey() -> None:
    refused = sum(1 for alpha in CORNER_DISTANCES for gap in CORNER_DISTANCES
                  if not _admitted(float(alpha), 1.0 - float(gap)))
    print(f"corner survey: derive_params with alpha and 1 - k each in "
          f"geomspace(1e-6, 0.5, {len(CORNER_DISTANCES)}): {refused} of "
          f"{len(CORNER_DISTANCES) ** 2} refused")


def _admitted(alpha: float, k: float) -> bool:
    try:
        derive_params(alpha, k)
    except ParameterError:
        return False
    return True


def _front(alpha: float, k: float, c: float, L: float, n: int):
    prof, _ = solve_wave(make_bounds(derive_params(alpha, k), c,
                                     make_grid(L, n)))
    return prof


def floors() -> None:
    print("item 2 floors: the unperturbed front through "
          "run_simulation(reference=front), dt = 0.01 to t = 50, its largest "
          "weighted deviation; alpha 0.25, k 0.5:")
    for c, L, n, weights in FLOOR_RUNS:
        front = _front(0.25, 0.5, c, L, n)
        tr = run_simulation(front, SimConfig(dt=0.01, t_end=50.0),
                            w=WeightPair(*weights), reference=front)
        print(f"  c {c:g} L {L:g} n {n} weights {weights}: "
              f"{np.max(tr.weighted_norms):.3g}")


def instability_rates() -> None:
    print("item 23 rates: instability_experiment, dt = 0.01, t_end = 20, "
          "record_every = 10; the slope of log sup_norms on each of the "
          f"windows {RATE_WINDOWS}, the unweighted essential edge, and the "
          "growth factor by t = 20:")
    for alpha, k, ratio, L, n in RATE_POINTS:
        p = derive_params(alpha, k)
        c = ratio * p.cmin
        rep, tr = instability_experiment(
            _front(alpha, k, c, L, n), WeightPair(0.05, 0.5),
            SimConfig(dt=0.01, t_end=20.0, record_every=10))
        rates = []
        for lo, hi in RATE_WINDOWS:
            inside = (tr.times >= lo) & (tr.times <= hi)
            rates.append(least_squares_line(
                tr.times[inside], np.log(tr.sup_norms[inside]), ValueError)[0])
        edge = essential_spectrum_max(p, c, WeightPair(0.0, 0.0))[0]
        print(f"  alpha {alpha:g} k {k:g} c/cmin {ratio:g} L {L:g} n {n}: "
              f"rates {', '.join(f'{r:.4f}' for r in rates)}; edge {edge:g}; "
              f"growth {rep['growth_factor']:.4g}")


def phase_origins() -> None:
    print("item 28 phase origins: normalize_phase's x0, the crossing of "
          "v = 1/2; the rows of save_profile's profile.csv that are not the "
          "solved front's knot rows; and the relative errors of fit_decay's "
          "rates (u, v at -inf, then at +inf) against the verdict's:")
    with tempfile.TemporaryDirectory() as where:
        csv = Path(where) / "profile.csv"
        for alpha, k, c, L, n in PHASE_POINTS:
            front = _front(alpha, k, c, L, n)
            prof = normalize_phase(front)
            save_profile(prof, csv)
            rows = np.loadtxt(csv, delimiter=",", skiprows=1)[:, 1:]
            foreign = int(np.sum(np.any(rows != front.knots, axis=1)))
            errors = []
            for side in ("-inf", "+inf"):
                fit = fit_decay(prof, side)
                errors += [abs(rate / fit.predicted_rate - 1.0)
                           for rate in (fit.rate_u, fit.rate_v)]
            print(f"  alpha {alpha:g} k {k:g} c {c:g} L {L:g} n {n}: "
                  f"x0 {prof.x0:.4f}, {foreign} rows not solved knots; "
                  f"errors {', '.join(f'{e:.3e}' for e in errors)}")
    print("  the scalar fronts' certified crossings of plateau/2 "
          "(KppReport.crossing), which the phase row puts at 0:")
    for alpha, k, c, L, n in CROSSING_POINTS:
        bp = make_bounds(derive_params(alpha, k), c, make_grid(L, n))
        print(f"  alpha {alpha:g} k {k:g} c {c:g} L {L:g} n {n}: "
              + ", ".join(f"{side} {rep.crossing:.3e}"
                          for side, rep in bp.fronts.items()))


# the child's own peak is its VmHWM: Linux carries the parent's peak into
# a child's ru_maxrss across exec
_IMPORT_FLOOR = """
import sys
import pggwave, pggwave.cli
modules = list(sys.modules)
import json
with open("/proc/self/status") as status:
    kb = next(int(line.split()[1]) for line in status
              if line.startswith("VmHWM:"))
print(json.dumps({
    "mb": kb / 1024,
    "modules": len(modules),
    "scipy": sum(m == "scipy" or m.startswith("scipy.") for m in modules),
    "symbols": sorted(fn.__name__ for fn in pggwave.grid._LAPACK.values())}))
"""


def import_floor() -> None:
    env = dict(os.environ, PYTHONPATH=str(TOOLS.parent / "src"))
    out = json.loads(subprocess.run(
        [sys.executable, "-c", _IMPORT_FLOOR], env=env, capture_output=True,
        text=True, check=True).stdout)
    print(f"item 29 import floor: import pggwave, pggwave.cli in a fresh "
          f"interpreter peaks at {out['mb']:.2f} MB with {out['modules']} "
          f"modules, {out['scipy']} of them scipy's; LAPACK from numpy "
          f"{np.__version__}'s OpenBLAS as {', '.join(out['symbols'])}")


def main() -> None:
    box_survey()
    corner_survey()
    floors()
    instability_rates()
    phase_origins()
    import_floor()
    print("code lines (tools/code_lines.py):")
    code_lines.main()


if __name__ == "__main__":
    main()
