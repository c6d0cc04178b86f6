"""Print the peak resident memory of one run of each CLI subcommand.

Each subcommand runs once on a small grid, in a fresh interpreter and a
temporary working directory, and the line printed for it is that
interpreter's ``ru_maxrss`` in MB: the import of ``pggwave.cli`` and the
run together.  The first line is the import alone, the floor every run
starts from.  A non-zero exit of a run stops the script with its error.
Run from anywhere: ``python tools/peak_rss.py``.
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


def peak_mb(argv) -> float:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(
            [sys.executable, "-c", SNIPPET, json.dumps(argv)], cwd=cwd,
            env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{argv} exited {done.returncode}:\n{done.stderr}")
    return float(done.stdout.splitlines()[-1])


def main() -> None:
    for name, argv in RUNS.items():
        print(f"{name:16s} {peak_mb(argv):8.2f} MB")


if __name__ == "__main__":
    main()
