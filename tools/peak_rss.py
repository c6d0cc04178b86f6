"""Print the peak resident memory of one run of each CLI subcommand, the
traced peak of each stage of the critical front run, and that of the
eigensolve of the base ``eigs`` run.

Each subcommand runs once on a small grid, in a fresh interpreter and a
temporary working directory, and the line printed for it is that
interpreter's ``ru_maxrss`` in MB: the import of ``pggwave.cli`` and the
run together.  The first line is the import alone, the floor every run
starts from.  A non-zero exit of a run stops the script with its error.

Then the front pipeline of ``wave --c 1.0 --L 80 --n 7999`` at alpha =
0.25, k = 0.5 (``make_bounds``, ``solve_wave``, ``normalize_phase``,
``save_profile``) runs once in a fresh interpreter under tracemalloc, and
each stage's line is the traced peak above that stage's start, in 1e6
bytes: the memory its own work adds, which ``ru_maxrss`` hides under the
import floor.  ``normalize_phase`` sets the front's phase origin and copies
no knot array, so its line is the (n+2,) knot coordinates that
``level_crossing`` reads, 0.07 MB; ``save_profile`` writes the knots at
their abscissae from that origin.

Last, ``eigen_report(op, 6)`` on the weighted operator of ``eigs --c 1.25
--L 40 --n 400`` with weights (0.05, 0.5), the eigensolve of ``base``'s
``eigs`` step, runs once in a fresh interpreter, and its line is the
traced peak above its start, in 1e6 bytes: the Krylov basis grows with the
solve's test schedule, so the peak is the growth to the 94 vectors at which
it converges, the old and the new basis side by side.  Run from anywhere:
``python tools/peak_rss.py``.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SMALL = ["--L", "20", "--n", "399", "--output-dir", "out"]
RUNS = {
    "(import)": None,
    "params": ["params"],
    "wave": ["wave", *SMALL],
    "bounds-check": ["bounds-check", *SMALL],
    "spectrum": ["spectrum", "--output-dir", "out"],
    "eigs": ["eigs", "--L", "40", "--n", "200", "--count", "4",
             "--output-dir", "out"],
    "stability": ["stability", *SMALL, "--t-end", "8"],
    "instability": ["instability", *SMALL, "--t-end", "6"],
    "spread": ["spread", "--L", "40", "--n", "799", "--dt", "0.05",
               "--t-end", "18", "--t0", "12", "--t1", "18",
               "--output-dir", "out"],
    "sweep": ["sweep", "--run", "wave", "--vary", "c=1.25,1.5", *SMALL],
}
# ru_maxrss is in bytes on macOS and in kilobytes elsewhere
SNIPPET = """
import json, resource, sys
import pggwave.cli
argv = json.loads(sys.argv[1])
code = 0 if argv is None else pggwave.cli.main(argv)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak / (2**20 if sys.platform == "darwin" else 2**10))
sys.exit(code)
"""

# the critical front run, stage by stage, at the CLI's tolerances: each
# stage is traced from its own start, and its input is the stage before's
STAGES = """
import json, tracemalloc
from pggwave import (derive_params, make_bounds, make_grid, normalize_phase,
                     save_profile, solve_wave)
p, g = derive_params(0.25, 0.5), make_grid(80.0, 7999)
stages = {
    "make_bounds": lambda _: make_bounds(p, 1.0, g, tol=1e-12),
    "solve_wave": lambda bp: solve_wave(bp, tol=1e-10)[0],
    "normalize_phase": normalize_phase,
    "save_profile": lambda prof: save_profile(prof, "profile.csv"),
}
peaks = {}
x = None
tracemalloc.start()
for name, stage in stages.items():
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    x = stage(x)
    peaks[name] = tracemalloc.get_traced_memory()[1] - start
print(json.dumps(peaks))
"""

# the eigensolve of the base eigs run, at the CLI's tolerance, traced from
# its own start
EIGEN = """
import tracemalloc
from pggwave import (WeightPair, assemble_weighted_operator, derive_params,
                     make_bounds, make_grid, solve_wave)
from pggwave.spectrum import eigen_report
p, g = derive_params(0.25, 0.5), make_grid(40.0, 400)
front, _ = solve_wave(make_bounds(p, 1.25, g), tol=1e-10)
op = assemble_weighted_operator(front, WeightPair(0.05, 0.5))
tracemalloc.start()
start = tracemalloc.get_traced_memory()[0]
eigen_report(op, 6)
print(tracemalloc.get_traced_memory()[1] - start)
"""


def run_snippet(code: str, *args) -> str:
    """The last line ``code`` prints in a fresh interpreter, in a temporary
    working directory, with the package's source on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                              env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{' '.join(args) or 'the stage run'} exited "
                 f"{done.returncode}:\n{done.stderr}")
    return done.stdout.splitlines()[-1]


def main() -> None:
    for name, argv in RUNS.items():
        peak = float(run_snippet(SNIPPET, json.dumps(argv)))
        print(f"{name:16s} {peak:8.2f} MB")
    print("critical front stages, traced peak above each stage's start "
          "(c = 1.0, L = 80, n = 7999):")
    for name, peak in json.loads(run_snippet(STAGES)).items():
        print(f"  {name:16s} {peak / 1e6:6.2f} MB")
    print("eigensolve, traced peak above its start (c = 1.25, L = 40, "
          "n = 400, weights (0.05, 0.5), count 6):")
    print(f"  {'eigen_report':16s} {int(run_snippet(EIGEN)) / 1e6:6.2f} MB")


if __name__ == "__main__":
    main()
