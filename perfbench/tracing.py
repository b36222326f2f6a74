"""Spans around calls into the workbench's layers, timed from outside.

A Tracer replaces each traced function at the places its callers look it
up (for example ``qlll.cli.run_quantum_solver`` or ``qlll.bench.partial_trace``)
with a wrapper that records a span: name, start, end, parent span and the
operation it belongs to.  The wrappers are installed only around traced
operations, so untraced operations run the program's own functions.

PER_LAYER lists the per-layer metrics; ``layer_metrics`` computes them from
the recorded spans.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import statistics
import time

# span name -> (call sites, units per call from (result, bound arguments))
LAYERS = {
    "quantum.run_trajectory_batch": (
        [("qlll.bench", "run_trajectory_batch")], lambda r, a: a["n_traj"]),
    "quantum.run_quantum_solver": (
        [("qlll.cli", "run_quantum_solver")], lambda r, a: r.log.total_steps),
    "quantum.run_exact_solver": (
        [("qlll.cli", "run_exact_solver")], lambda r, a: r.trajectory.log.total_steps),
    "quantum.run_converger": ([("qlll.cli", "run_converger")], None),
    "instance.instance_digest": ([("qlll.cli", "instance_digest")], None),
    "instance.instance_from_dict": ([("qlll.cli", "instance_from_dict")], None),
    "witness.build_witness_tree": ([("qlll.cli", "build_witness_tree")], None),
    "witness.dag_probability": ([("qlll.cli", "dag_probability")], None),
    "bench.cp_map_iterate": (
        [("qlll.bench", "cp_map_iterate")], lambda r, a: a["t_max"] * a["inst"].m),
    "tensor.partial_trace": (
        [("qlll.bench", "partial_trace"), ("qlll.oracles", "partial_trace")], None),
    "tensor.embed": (
        [("qlll.bench", "embed"), ("qlll.oracles", "embed"), ("qlll.instance", "embed")],
        None),
    "oracles.halting_operator": ([("qlll.oracles", "halting_operator")], None),
    "oracles.sequence_operator": ([("qlll.bench", "sequence_operator")], None),
    "instance.spectral_report": (
        [("qlll.bench", "spectral_report"), ("qlll.cli", "spectral_report"),
         ("qlll.oracles", "spectral_report")], None),
    "witness.simulate_galton_watson": (
        [("qlll.witness", "simulate_galton_watson")], None),
    "classical.solve_classical": (
        [("qlll.classical", "solve_classical"), ("qlll.cli", "solve_classical")],
        lambda r, a: len(r.log.entries)),
    "instance.find_certificate": (
        [("qlll.instance", "find_certificate"), ("qlll.cli", "find_certificate"),
         ("qlll.bench", "find_certificate")], None),
    "instance.intersection_graph": (
        [("qlll.instance", "intersection_graph"), ("qlll.cli", "intersection_graph"),
         ("qlll.bench", "intersection_graph"), ("qlll.oracles", "intersection_graph")],
        None),
}

CLI_SUBCOMMANDS = (
    "check", "solve-quantum", "witness", "exact-solve", "converge", "solve-classical",
)

# metric name, unit, better, span name (a trailing * matches a prefix), kind, scale
PER_LAYER = [
    ("quantum.run_trajectory_batch.s", "s", "lower",
     "quantum.run_trajectory_batch", "per_call", 1.0),
    ("quantum.run_trajectory_batch.traj_per_s", "traj/s", "higher",
     "quantum.run_trajectory_batch", "units_per_s", 1.0),
    ("quantum.run_quantum_solver.us_per_step", "us", "lower",
     "quantum.run_quantum_solver", "per_unit", 1e6),
    ("quantum.run_exact_solver.us_per_step", "us", "lower",
     "quantum.run_exact_solver", "per_unit", 1e6),
    ("quantum.run_converger.s", "s", "lower", "quantum.run_converger", "per_call", 1.0),
    *[(f"cli.{sub}.s", "s", "lower", f"cli.{sub}", "per_call", 1.0)
      for sub in CLI_SUBCOMMANDS],
    ("cli.self_s", "s", "lower", "cli.*", "self_per_op", 1.0),
    ("instance.instance_digest.s", "s", "lower", "instance.instance_digest", "per_call", 1.0),
    ("instance.instance_from_dict.s", "s", "lower",
     "instance.instance_from_dict", "per_call", 1.0),
    ("witness.build_witness_tree.s", "s", "lower",
     "witness.build_witness_tree", "per_call", 1.0),
    ("witness.dag_probability.s", "s", "lower", "witness.dag_probability", "per_call", 1.0),
    ("bench.cp_map_iterate.ms_per_application", "ms", "lower",
     "bench.cp_map_iterate", "per_unit", 1e3),
    ("tensor.partial_trace.s", "s", "lower", "tensor.partial_trace", "per_call", 1.0),
    ("tensor.partial_trace.calls", "count", "lower",
     "tensor.partial_trace", "calls_per_op", 1.0),
    ("tensor.embed.s", "s", "lower", "tensor.embed", "per_call", 1.0),
    ("tensor.embed.calls", "count", "lower", "tensor.embed", "calls_per_op", 1.0),
    ("oracles.halting_operator.s", "s", "lower", "oracles.halting_operator", "per_call", 1.0),
    ("oracles.sequence_operator.s", "s", "lower",
     "oracles.sequence_operator", "per_call", 1.0),
    ("instance.spectral_report.s", "s", "lower", "instance.spectral_report", "per_call", 1.0),
    ("witness.simulate_galton_watson.us_per_sample", "us", "lower",
     "witness.simulate_galton_watson", "per_call", 1e6),
    ("classical.solve_classical.us_per_resample", "us", "lower",
     "classical.solve_classical", "per_unit", 1e6),
    ("instance.find_certificate.s", "s", "lower", "instance.find_certificate", "per_call", 1.0),
    ("instance.intersection_graph.s", "s", "lower",
     "instance.intersection_graph", "per_call", 1.0),
]

OP = "op"


class Tracer:
    """In-memory span store.  spans[i] = [name, start, end, parent, op, units]."""

    def __init__(self):
        self.spans = []
        self.ops = {}  # span index of an operation -> (workload, op index)
        self._stack = []
        self._sites = []  # (module, attribute, original, wrapper)
        self.origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code; recorded only inside a
        traced operation."""
        if not self._stack:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, 0)

    @contextlib.contextmanager
    def operation(self, workload: str, k: int):
        """Root span of one traced operation, with the layer wrappers installed."""
        self._install()
        idx = self._open(OP)
        self.ops[idx] = (workload, k)
        try:
            yield
        finally:
            self._close(idx, 0)
            self._uninstall()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        op = self.spans[parent][4] if parent >= 0 else len(self.spans)
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, op, 0])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int, units) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self.spans[idx][5] = units

    def _wrap(self, name, fn, units):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            idx = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                n = units(result, sig.bind(*args, **kwargs).arguments) if (
                    units is not None and result is not None) else 0
                self._close(idx, n)

        return traced

    def _install(self) -> None:
        if not self._sites:
            for name, (sites, units) in LAYERS.items():
                for module_name, attr in sites:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    self._sites.append(
                        (module, attr, original, self._wrap(name, original, units)))
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def _uninstall(self) -> None:
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)


def _matches(pattern: str, name: str) -> bool:
    if pattern.endswith("*"):
        return name.startswith(pattern[:-1])
    return name == pattern


def self_times(spans) -> list:
    """Each span's duration minus the part its child spans cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(tracer: Tracer, workload: str, order) -> tuple:
    """Per-layer metrics and, per metric, the workload whose traced
    operations supplied it: the traced workload itself when its operations
    call the layer, else the first workload in ``order`` whose operations do.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    ops_of = {}
    for idx, (wl, _) in tracer.ops.items():
        ops_of.setdefault(wl, []).append(idx)
    metrics, sources = {}, {}
    for metric, unit, _better, pattern, kind, scale in PER_LAYER:
        for wl in [workload] + [w for w in order if w != workload]:
            ops = set(ops_of.get(wl, ()))
            picked = [i for i, s in enumerate(spans)
                      if s[4] in ops and _matches(pattern, s[0])]
            if picked:
                break
        else:
            raise RuntimeError(f"no traced operation calls {pattern}")
        dur = sum(spans[i][2] - spans[i][1] for i in picked)
        units = sum(spans[i][5] for i in picked)
        if kind == "per_call":
            value = dur / len(picked)
        elif kind == "per_unit":
            value = dur / units
        elif kind == "units_per_s":
            value = units / dur
        elif kind == "calls_per_op":
            value = len(picked) / len(ops)
        elif kind == "self_per_op":
            value = sum(selfs[i] for i in picked) / len(ops)
        else:
            raise ValueError(kind)
        metrics[metric] = {"value": value * scale, "unit": unit}
        sources[metric] = wl
    return metrics, sources


def layer_shares(tracer: Tracer, workload: str) -> dict:
    """Self time per operation and share of operation time of every span
    name within the traced operations of one workload; "op" is the
    benchmark's own code inside the operation."""
    spans = tracer.spans
    selfs = self_times(spans)
    ops = {i for i, (wl, _) in tracer.ops.items() if wl == workload}
    total = sum(spans[i][2] - spans[i][1] for i in ops)
    acc = {}
    for i, s in enumerate(spans):
        if s[4] in ops:
            acc[s[0]] = acc.get(s[0], 0.0) + selfs[i]
    return {
        name: {"self_s_per_op": t / len(ops), "share": t / total}
        for name, t in sorted(acc.items(), key=lambda kv: -kv[1])
    }


def op_durations(tracer: Tracer, workload: str) -> list:
    return [tracer.spans[i][2] - tracer.spans[i][1]
            for i, (wl, _) in tracer.ops.items() if wl == workload]


def trace_document(tracer: Tracer, workload: str, untraced: list) -> dict:
    traced = op_durations(tracer, workload)
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    calls = {}
    for s in tracer.spans:
        calls[s[0]] = calls.get(s[0], 0) + 1
    n_ops = {}
    for wl, _ in tracer.ops.values():
        n_ops[wl] = n_ops.get(wl, 0) + 1
    p50_traced = statistics.median(traced)
    p50_untraced = statistics.median(untraced)
    return {
        "workload": workload,
        "span_names": names,
        "span_columns": ["name", "start_s", "end_s", "parent", "op"],
        "spans": [
            [index[s[0]], round(s[1] - tracer.origin, 7), round(s[2] - tracer.origin, 7),
             s[3], s[4]]
            for s in tracer.spans
        ],
        "operations": [[i, wl, k] for i, (wl, k) in sorted(tracer.ops.items())],
        "traced_operations": n_ops,
        "calls": calls,
        "shares": layer_shares(tracer, workload),
        "overhead": {
            "traced_op_p50_s": p50_traced,
            "untraced_op_p50_s": p50_untraced,
            "overhead_s": p50_traced - p50_untraced,
            "overhead_share": (p50_traced - p50_untraced) / p50_untraced,
            "traced_ops": len(traced),
            "untraced_ops": len(untraced),
        },
    }
