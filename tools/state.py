"""Print the measured state of the package, each count with the
configuration that made it.

- the box survey: the front pipeline (``make_bounds`` + ``solve_wave``) on
  ``make_grid(40, 3999)`` at small alpha and k near 1, and how many of its
  points raise a ``NumericalError``;
- the corner survey: how many (alpha, k) near the corners of the open box
  ``derive_params`` refuses;
- the code lines, through ``tools/code_lines.py``.

It has no threshold and exits 0 whatever it counts.  Run from anywhere:
``python tools/state.py``.
"""

import sys
import time
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
sys.path[:0] = [str(TOOLS.parent / "src"), str(TOOLS)]

import code_lines  # noqa: E402
from pggwave import derive_params, make_bounds, make_grid, solve_wave  # noqa: E402
from pggwave.errors import NumericalError, ParameterError  # noqa: E402

BOX_ALPHAS = (0.01, 0.02, 0.03, 0.05)
BOX_KS = (0.95, 0.97, 0.98, 0.99)
BOX_RATIOS = np.linspace(1.0, 3.0, 11)      # c / cmin
BOX_GRID = (40.0, 3999)
CORNER_DISTANCES = np.geomspace(1e-6, 0.5, 40)   # alpha, and 1 - k


def box_survey() -> None:
    g = make_grid(*BOX_GRID)
    failed, points = [], 0
    start = time.perf_counter()
    for alpha in BOX_ALPHAS:
        for k in BOX_KS:
            p = derive_params(alpha, k)
            for ratio in BOX_RATIOS:
                points += 1
                try:
                    solve_wave(make_bounds(p, float(ratio) * p.cmin, g))
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


def main() -> None:
    box_survey()
    corner_survey()
    print("code lines (tools/code_lines.py):")
    code_lines.main()


if __name__ == "__main__":
    main()
