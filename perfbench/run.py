"""pggwave benchmark: end-to-end CLI workloads with an optional layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload base --seed 1 --seconds 10 --trace 0

One run starts a fresh interpreter (this one), then runs the workload's
subcommands in-process through ``pggwave.cli.main(argv)`` back to back, one
closed-loop client, repeating the whole workload until ``--seconds`` have
passed.  ``setup_s`` is the median import time of ``pggwave`` plus
``pggwave.cli`` in fresh interpreters, sampled before every iteration and
after the last, so the samples see the same host as the iterations.  Each iteration runs in a
fresh working directory with the relative ``--output-dir out``; its artifacts
are checked against the acceptance gates and hashed, and every iteration of
every run of the same sources must give one digest per workload.

With ``--trace 1`` the untraced iterations are followed by one traced
iteration (see ``tracer.py``) and the per-layer metrics are reported instead
of the end-to-end ones.  End-to-end metrics are only ever measured untraced.
Metric names, their order and their units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files (run
directories, results, spans, digests) go to ``.perfbench_work/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = "out"                 # relative, so artifacts do not depend on the cwd
SETUP_PER_GAP = 2          # import samples before each iteration
SETUP_SAMPLES = 8          # the last gap tops the samples up to this many
RUN_BUDGET_S = 150.0        # keeps one run well inside three minutes
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); "
                  "import pggwave, pggwave.cli; "
                  "print(time.perf_counter() - t)")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "pggwave" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'pggwave'}")
    sys.path.insert(0, str(SRC))
    import pggwave
    import pggwave.cli
    if Path(pggwave.__file__).resolve().parent != (SRC / "pggwave").resolve():
        fail(f"imported pggwave from {pggwave.__file__}, not from {SRC}")
    return pggwave.cli


def metric_units() -> tuple[dict, dict]:
    """{name: unit} of the end-to-end and the per-layer metrics, in order."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"no benchmark spec at {spec_path}")
    spec = json.loads(spec_path.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def measure_setup(samples: list, count: int) -> None:
    """Append ``count`` fresh-interpreter import times to ``samples``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        samples.append(float(proc.stdout.split()[-1]))


def tree_digest(root: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), size


def source_digest() -> str:
    """Identity of the code under test: the package and the benchmark."""
    h = hashlib.sha256()
    for base in (SRC / "pggwave", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_iteration(cli, steps, tracer=None) -> dict:
    """Run every step once in a fresh directory; time, gate and hash them."""
    wd = WORK / f"run-{os.getpid()}"
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    prev = os.getcwd()
    times, errors = {}, {}
    os.chdir(wd)
    try:
        for step in steps:
            if tracer is not None:
                tracer.op += 1
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(buf):
                    code = cli.main([*step.argv, "--output-dir", OUT])
            except Exception:  # a crash is a failed operation, not a dead run
                code = None
                buf.write(traceback.format_exc())
            times[step.name] = time.perf_counter() - t0
            if code != 0:
                errors[step.name] = [f"exit code {code}", buf.getvalue()]
                continue
            try:
                errs = step.gate(Path(OUT))
            except (OSError, KeyError, ValueError, TypeError) as exc:
                errs = [f"unreadable artifact: {exc!r}"]
            if errs:
                errors[step.name] = errs
        accuracy = [step.accuracy(Path(OUT)) for step in steps
                    if step.accuracy is not None and step.name not in errors]
        digest, size = tree_digest(Path(OUT))
    finally:
        os.chdir(prev)
        shutil.rmtree(wd, ignore_errors=True)
    return {"times": times, "total": sum(times.values()), "errors": errors,
            "digest": digest, "artifact_bytes": size,
            "accuracy": max(accuracy) if accuracy else None}


def check_digests(workload: str, iterations: list) -> list:
    """One artifact digest per workload across every run of these sources."""
    digests = {it["digest"] for it in iterations}
    if len(digests) > 1:
        return [f"artifact digests differ between iterations: {sorted(digests)}"]
    digest = digests.pop()
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    key = f"{workload}:{source_digest()}"
    if known.setdefault(key, digest) != digest:
        return [f"artifact digest {digest} differs from an earlier run's "
                f"{known[key]}"]
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, store)
    return []


def print_share_table(tracer: Tracer, steps) -> dict:
    """Traced layer self time as a share of each subcommand's traced time."""
    by_op = tracer.layer_self_by_op()
    eig = tracer.fn_self_by_op("spectrum.eigen_report")
    shares = {}
    for op, step in enumerate(steps, start=1):
        layers = by_op.get(op, {})
        total = sum(layers.values())
        if total <= 0:
            continue
        row = {layer: s / total for layer, s in sorted(layers.items())}
        row["spectrum.eigen_report"] = eig.get(op, 0.0) / total
        shares[step.name] = row
        print(f"share of traced {step.name} ({total:.3f} s): " + ", ".join(
            f"{k} {v:.1%}" for k, v in row.items() if v >= 0.0005))
    return shares


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    e2e_units, layer_units = metric_units()
    t_import = time.perf_counter()
    cli = import_package()
    t_import = time.perf_counter() - t_import
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    steps = workload.order(args.seed)
    print(f"workload {workload.name}, seed {args.seed}: "
          + " -> ".join(s.name for s in steps))

    setup = []
    iterations = []
    start = time.perf_counter()
    while True:
        if not args.trace:
            measure_setup(setup, SETUP_PER_GAP)
        iterations.append(run_iteration(cli, steps))
        it = iterations[-1]
        print(f"iteration {len(iterations)}: " + ", ".join(
            f"{k}_s {v:.4f}" for k, v in it["times"].items())
            + f"; total_s {it['total']:.4f}")
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds or elapsed + it["total"] > RUN_BUDGET_S:
            break
    if not args.trace:
        measure_setup(setup, max(SETUP_PER_GAP, SETUP_SAMPLES - len(setup)))
    untraced_total = statistics.median(it["total"] for it in iterations)

    traced, tracer, shares = None, None, {}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_iteration(cli, steps, tracer)
        finally:
            tracer.uninstall()
        iterations_all = iterations + [traced]
    else:
        iterations_all = iterations

    problems = check_digests(workload.name, iterations_all)
    attempted = sum(len(it["times"]) for it in iterations_all)
    failed = sum(len(it["errors"]) for it in iterations_all)
    for it in iterations_all:
        for name, errs in it["errors"].items():
            print(f"FAILED {name}: " + "; ".join(errs), file=sys.stderr)

    if args.trace:
        print("traced iteration: " + ", ".join(
            f"{k}_s {v:.4f}" for k, v in traced["times"].items()))
        metrics = tracer.metrics(traced["total"], untraced_total,
                                 traced["artifact_bytes"])
        shares = print_share_table(tracer, steps)
        layer_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        print(f"sum of layer self times {layer_sum:.4f} s, traced total_s "
              f"{traced['total']:.4f} s")
        # self times partition the root cli.main spans, which sit inside the
        # timed window; a tracer that missed cli.main would fall short
        if not 0.95 * traced["total"] <= layer_sum <= traced["total"]:
            problems.append("layer self times do not add up to the traced "
                            "total")
        problems += [f"{name} is 0 on {workload.name}"
                     for name in workload.reaches if not metrics[name] > 0]
        tracer.write_spans(WORK / f"spans-{workload.name}.jsonl")
        units = layer_units
    else:
        acc = [it["accuracy"] for it in iterations if it["accuracy"] is not None]
        metrics = {
            "setup_s": statistics.median(setup),
            "total_s": untraced_total,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "analytic_err": max(acc) if acc else None,
        }
        units = e2e_units
        for name in iterations[0]["times"]:
            med = statistics.median(it["times"][name] for it in iterations)
            print(f"{name}_s: {med:.4f} s (median of {len(iterations)})")
        print(f"setup samples: {', '.join(f'{s:.4f}' for s in setup)}; "
              f"in-process import {t_import:.4f} s")

    correct = failed == 0 and not problems
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if set(metrics) != set(units):
        fail(f"measured metrics {sorted(metrics)} do not match BENCHMARK.json "
             f"{sorted(units)}")
    metrics = {k: {"value": metrics[k], "unit": unit}
               for k, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(f"operations: {attempted} attempted, {failed} failed; "
          f"artifact digest {iterations_all[0]['digest'][:16]}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "setup_samples": setup, "iterations": iterations,
              "traced": traced, "shares": shares, "problems": problems,
              "result": result}
    (WORK / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
