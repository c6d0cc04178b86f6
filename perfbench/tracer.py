"""Outside-in tracer: spans around the public functions of each pggwave layer.

Nothing in the package is modified on disk.  ``Tracer.install`` replaces every
public function of each layer module with a timing wrapper and rebinds that
wrapper wherever a ``pggwave`` namespace holds the original object, so calls
through names imported with ``from .x import y`` (``bounds`` -> ``solve_kpp``,
``dynamics``/``grid``/``wave`` -> ``reaction``) are seen too.  The
``solve_banded`` name that ``kpp``, ``wave`` and ``dynamics`` each import is
wrapped with a counter only, so banded solves stay inside their caller's self
time.  ``Tracer.uninstall`` puts every original back.

Spans are kept in memory as tuples and written out by ``write_spans`` after
the traced iteration.  A span's self time is its duration minus the time of
the wrapped spans it directly contains.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

# layer -> modules of the package that make it up ("config" folds into "cli")
LAYERS = {
    "model": ("model",),
    "grid": ("grid",),
    "kpp": ("kpp",),
    "bounds": ("bounds",),
    "wave": ("wave",),
    "spectrum": ("spectrum",),
    "dynamics": ("dynamics",),
    "cli": ("cli", "config"),
}
BANDED_LAYERS = ("kpp", "wave", "dynamics")

# post-processing of a solved front (phase normalisation, fits, checks)
WAVE_POST = frozenset({"wave.normalize_phase", "wave.fit_decay",
                       "wave.check_monotone", "wave.derivative_profile"})
# work done at record times inside a time-stepping run
RECORD = frozenset({"dynamics.weighted_norm", "dynamics.front_position"})
# tail length used to estimate the contraction rate of the monotone iteration
CONTRACTION_TAIL = 50


def public_functions(mod):
    """Functions a module defines and exports (``__all__`` when it has one)."""
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(mod, name, None)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            out[name] = obj
    return out


def contraction_rate(sup_diffs) -> float:
    """Geometric-mean ratio of successive sup-diffs over the iteration's tail."""
    d = [float(x) for x in sup_diffs]
    m = min(len(d), CONTRACTION_TAIL)
    if m < 3 or d[-1] <= 0.0 or d[-m] <= 0.0:
        return math.nan
    return math.exp((math.log(d[-1]) - math.log(d[-m])) / (m - 1))


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent id, op, name, t0, t1, child_s)
        self.counts = Counter()  # "<layer>.banded_solves" and result counters
        self.contractions = []
        self.operators = []      # digest of each operator passed to eigen_report
        self.operator_size = 0
        self.op = 0              # identifier shared by one subcommand's spans
        self._stack = []         # open spans: [id, child time]
        self._next_id = 0
        self._undo = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "pggwave"
                                            or name.startswith("pggwave."))]
        for layer, modules in LAYERS.items():
            for modname in modules:
                mod = sys.modules[f"pggwave.{modname}"]
                for fname, fn in public_functions(mod).items():
                    self._rebind(namespaces, fn,
                                 self._wrap(f"{layer}.{fname}", fn))
        for layer in BANDED_LAYERS:
            mod = sys.modules[f"pggwave.{layer}"]
            fn = getattr(mod, "solve_banded", None)
            if fn is not None:
                self._undo.append((mod, "solve_banded", fn))
                setattr(mod, "solve_banded",
                        self._counter(f"{layer}.banded_solves", fn))

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._undo):
            setattr(ns, attr, orig)
        self._undo.clear()

    def _rebind(self, namespaces, orig, wrapper) -> None:
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if val is orig:
                    self._undo.append((ns, attr, orig))
                    setattr(ns, attr, wrapper)

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, name, fn):
        stack, spans, perf = self._stack, self.spans, time.perf_counter
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                spans.append((sid, None if parent is None else parent[0],
                              self.op, name, t0, t1, frame[1]))
            if hook is not None:
                hook(self, sig.bind(*args, **kwargs).arguments, result)
            return result
        return traced

    # -- reduction ---------------------------------------------------------
    def metrics(self, traced_total_s: float, untraced_total_s: float,
                artifact_bytes: int) -> dict:
        """Per-layer metrics of everything traced since installation."""
        self_s = defaultdict(float)
        fn_self = defaultdict(float)
        fn_incl = defaultdict(float)
        calls = Counter()
        by_id = {}
        for sid, parent, _op, name, t0, t1, child in self.spans:
            by_id[sid] = (parent, name)
            self_s[name.split(".", 1)[0]] += (t1 - t0) - child
            fn_self[name] += (t1 - t0) - child
            calls[name] += 1

        def ancestors(sid):
            parent = by_id[sid][0]
            while parent is not None:
                yield by_id[parent][1]
                parent = by_id[parent][0]

        post_s = record_s = 0.0
        for sid, _parent, _op, name, t0, t1, _child in self.spans:
            fn_incl[name] += t1 - t0
            if name in WAVE_POST and not WAVE_POST.intersection(ancestors(sid)):
                post_s += t1 - t0
            if name in RECORD and "dynamics.run_simulation" in ancestors(sid):
                record_s += t1 - t0

        solves = calls["spectrum.eigen_report"]
        steps = self.counts["dynamics.steps"]
        rhos = [r for r in self.contractions if math.isfinite(r)]
        m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        m.update({
            "kpp.solve_kpp.calls": calls["kpp.solve_kpp"],
            "kpp.banded_solves": self.counts["kpp.banded_solves"],
            "wave.solve_wave.self_s": fn_self["wave.solve_wave"],
            "wave.solve_wave.calls": calls["wave.solve_wave"],
            "wave.iterations": self.counts["wave.iterations"],
            "wave.contraction": max(rhos) if rhos else 0.0,
            "wave.banded_solves": self.counts["wave.banded_solves"],
            "wave.post_s": post_s,
            "spectrum.eigen_report.self_s": fn_self["spectrum.eigen_report"],
            "spectrum.eigen_report.calls": solves,
            "spectrum.eig_useful_ratio": (len(set(self.operators)) / solves
                                          if solves else 0.0),
            "spectrum.assemble_s":
                fn_incl["spectrum.assemble_weighted_operator"],
            "spectrum.operator_size": self.operator_size,
            "dynamics.run_simulation.self_s": fn_self["dynamics.run_simulation"],
            "dynamics.steps": steps,
            "dynamics.step_us": (1e6 * fn_incl["dynamics.run_simulation"] / steps
                                 if steps else 0.0),
            "dynamics.record_s": record_s,
            "dynamics.banded_solves": self.counts["dynamics.banded_solves"],
            "model.reaction.calls": calls["model.reaction"],
            "model.reaction.self_s": fn_self["model.reaction"],
            "cli.artifact_bytes": artifact_bytes,
            "trace.total_s": traced_total_s,
            "trace.overhead_s": traced_total_s - untraced_total_s,
        })
        return m

    def layer_self_by_op(self) -> dict:
        """{op: {layer: self seconds}} for the share table."""
        out = defaultdict(lambda: defaultdict(float))
        for _sid, _parent, op, name, t0, t1, child in self.spans:
            out[op][name.split(".", 1)[0]] += (t1 - t0) - child
        return out

    def fn_self_by_op(self, name: str) -> dict:
        out = defaultdict(float)
        for _sid, _parent, op, sname, t0, t1, child in self.spans:
            if sname == name:
                out[op] += (t1 - t0) - child
        return out

    def write_spans(self, path) -> None:
        """One JSON object per line: id, parent, op, name, start, end, self."""
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1, child in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "t0": t0, "t1": t1,
                                     "self_s": (t1 - t0) - child}) + "\n")


# result hooks: counters read from the public return values of a layer call
def _solve_wave(tr, args, result):
    report = result[1]
    tr.counts["wave.iterations"] += report.iterations
    tr.contractions.append(contraction_rate(report.sup_diffs))


def _assemble(tr, args, result):
    tr.operator_size = max(tr.operator_size, result.size)


def _eigen_report(tr, args, result):
    tr.operators.append(hashlib.blake2b(args["m"].bands.tobytes()).hexdigest())


def _run_simulation(tr, args, result):
    tr.counts["dynamics.steps"] += int(round(result.times[-1] / args["cfg"].dt))


_HOOKS = {
    "wave.solve_wave": _solve_wave,
    "spectrum.assemble_weighted_operator": _assemble,
    "spectrum.eigen_report": _eigen_report,
    "dynamics.run_simulation": _run_simulation,
}
