"""Layer tracer: spans and counts recorded around calls into the spectacl modules.

`install` replaces every public module-level function of the layer modules
with a wrapper, in every spectacl namespace that binds it.  Patching only the
defining module would miss calls made through names bound by
`from .graph import epsilon_graph` in `pipelines` and `cli`.  Each wrapped call
becomes a span (name, start, end, parent span, op id) when tracing is on; spans
are kept in memory and written out by the caller at exit.

Without tracing only the clustering entry points are wrapped, and only to
capture their labels for the output checks; no clock is read.

Generator functions (`cli.sweep_rows`) are not wrapped: a span would close
when the generator is created, not when it is consumed.  Their time counts as
self time of the caller.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("graph", "eigen", "embedding", "kmeans", "pipelines", "metrics",
          "dataio", "datagen", "cli")
CLUSTERING_CALLS = ("pipelines.spectacl", "pipelines.spectral_clustering", "pipelines.dbscan")
GRAPH_BUILDS = ("graph.epsilon_graph", "graph.knn_graph", "graph.adjacency_from_edge_list")
WRITES = ("dataio.write_clustering", "dataio.write_points", "dataio.write_csv_table")
LOADS = ("dataio.load_edge_list", "dataio.load_points", "dataio.load_labeled_points")
# span name of the work the tracer itself does after a call returns
HOOK_SPAN = "trace.hook"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


@dataclass(frozen=True)
class Capture:
    """One clustering call: the input size, the requested r (None for dbscan)
    and a copy of the returned labels."""

    name: str
    points: int
    r: int | None
    labels: np.ndarray


class Recorder:
    """Spans, per-op counts and captured clusterings of one benchmark run."""

    def __init__(self, trace: bool, clock=time.perf_counter):
        self.trace = trace
        self.clock = clock
        self.op: int | None = None
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counts: dict[int | None, Counter] = defaultdict(Counter)
        self.maxima: dict[str, float] = {}
        self.captures: dict[int | None, list[Capture]] = defaultdict(list)

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.clock(), float("nan"), parent, self.op)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def count(self, key: str, value) -> None:
        self.counts[self.op][key] += value

    def record_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)


def _input_size(x) -> int:
    return x.m if hasattr(x, "m") else x.dim


def _capture(rec, name, args, result):
    r = None
    if name == "pipelines.spectacl":
        r = args["config"].r
    elif name == "pipelines.spectral_clustering":
        r = args["r"]
    first = next(iter(args.values()))
    rec.captures[rec.op].append(Capture(name, _input_size(first), r, result.labels.copy()))


def _count_dense(rec, name, args, result):
    m = args["data"].m
    rec.count("graph.dense_bytes", 8 * m * m)


def _count_build(rec, name, args, result):
    rec.count("graph.builds", 1)
    rec.count("graph.edges", result.nnz // 2)


def _count_eigs(rec, name, args, result):
    rec.count("eigen.pairs_requested", args["d"])
    W = args["W"]
    residual = np.linalg.norm(W.matrix @ result.vectors - result.vectors * result.values, axis=0)
    scale = max(1.0, float(np.abs(result.values).max()))
    rec.record_max("eigen.max_rel_residual", float(residual.max()) / scale)


def _count_kmeans(rec, name, args, result):
    rec.count("kmeans.iterations", result.iterations)
    rec.count("kmeans.inertia", result.inertia)


def _count_read(rec, name, args, result):
    rec.count("dataio.bytes_read", os.path.getsize(args["path"]))


COUNT_HOOKS = {
    "graph.pairwise_distances": _count_dense,
    "eigen.truncated_eigs": _count_eigs,
    "kmeans.kmeans": _count_kmeans,
    **{name: _count_build for name in GRAPH_BUILDS},
    **{name: _count_read for name in LOADS},
}


def _wrap(fn, name, rec: Recorder):
    sig = inspect.signature(fn)
    hooks = []
    if name in CLUSTERING_CALLS:
        hooks.append(_capture)
    if rec.trace and name in COUNT_HOOKS:
        hooks.append(COUNT_HOOKS[name])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.trace:
            span = rec.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end(span)
        else:
            result = fn(*args, **kwargs)
        if hooks:
            span = rec.begin(HOOK_SPAN) if rec.trace else None
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            for hook in hooks:
                hook(rec, name, bound.arguments, result)
            if span is not None:
                rec.end(span)
        return result

    return wrapper


def public_functions(module) -> dict:
    """Public, non-generator functions defined in `module` itself."""
    return {
        name: obj for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_") and not inspect.isgeneratorfunction(obj)
    }


def install(package: str, rec: Recorder):
    """Wrap the layer functions of `package` in every namespace of the package.

    Returns a function that puts the original functions back.
    """
    names = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, fn in public_functions(module).items():
            qualified = f"{layer}.{attr}"
            if rec.trace or qualified in CLUSTERING_CALLS:
                names[fn] = qualified
    wrappers = {fn: _wrap(fn, name, rec) for fn, name in names.items()}
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                patched.append((module, attr, obj))

    def restore():
        for module, attr, obj in patched:
            setattr(module, attr, obj)

    return restore


# --- span arithmetic -------------------------------------------------------

def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - union_length(children[s.id], s.start, s.end)
        for s in spans
    }


def busy_time(spans: list[Span], name: str) -> float:
    """Total duration of the spans called `name`, not counting a span nested
    inside another span of the same name twice."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        parent = s.parent
        while parent is not None and by_id[parent].name != name:
            parent = by_id[parent].parent
        if parent is None:
            total += s.end - s.start
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# --- per-layer metrics -----------------------------------------------------

# (name, unit); every value is a mean per traced op unless it says otherwise
PER_LAYER = [
    ("graph.choose_epsilon.busy_s", "s"),
    ("graph.epsilon_graph.busy_s", "s"),
    ("graph.knn_graph.busy_s", "s"),
    ("graph.knn_graph.calls", "count"),
    ("graph.pairwise_distances.calls", "count"),
    ("graph.dense_bytes", "B"),
    ("graph.builds_per_clustering", "1"),
    ("graph.adjacency_from_edge_list.busy_s", "s"),
    ("graph.edges", "count"),
    ("graph.self_s", "s"),
    ("eigen.truncated_eigs.busy_s", "s"),
    ("eigen.truncated_eigs.calls", "count"),
    ("eigen.pairs_requested", "count"),
    ("eigen.max_rel_residual", "1"),
    ("embedding.project_embedding.busy_s", "s"),
    ("kmeans.kmeans.busy_s", "s"),
    ("kmeans.iterations", "count"),
    ("kmeans.inertia", "1"),
    ("pipelines.dbscan.self_s", "s"),
    ("pipelines.self_s", "s"),
    ("metrics.f_measure.busy_s", "s"),
    ("metrics.nmi.busy_s", "s"),
    ("metrics.average_density_objective.busy_s", "s"),
    ("dataio.load_edge_list.busy_s", "s"),
    ("dataio.bytes_read", "B"),
    ("dataio.write.busy_s", "s"),
    ("datagen.generate.busy_s", "s"),
    ("cli.self_s", "s"),
    ("trace.hook_s", "s"),
    ("trace.overhead_s", "s"),
]


def per_layer_metrics(rec: Recorder, ops: int, overhead_s: float) -> dict[str, float]:
    """The PER_LAYER values from a traced run of `ops` ops.

    `overhead_s` is the traced op_s.p50 minus the untraced one.  Counts are
    computed from call arguments and results (dense bytes are 8*m^2 per
    pairwise_distances call), so they repeat exactly for the same inputs.
    """
    spans = rec.spans
    selfs = self_times(spans)
    calls = Counter(s.name for s in spans)
    totals = Counter()
    for op_counts in rec.counts.values():
        totals.update(op_counts)

    def self_of(pred):
        return sum(selfs[s.id] for s in spans if pred(s.name))

    clusterings = sum(calls[n] for n in CLUSTERING_CALLS)
    raw = {
        "graph.knn_graph.calls": calls["graph.knn_graph"],
        "graph.pairwise_distances.calls": calls["graph.pairwise_distances"],
        "graph.dense_bytes": totals["graph.dense_bytes"],
        "graph.edges": totals["graph.edges"],
        "eigen.truncated_eigs.calls": calls["eigen.truncated_eigs"],
        "eigen.pairs_requested": totals["eigen.pairs_requested"],
        "kmeans.iterations": totals["kmeans.iterations"],
        "dataio.bytes_read": totals["dataio.bytes_read"],
        "dataio.write.busy_s": sum(busy_time(spans, n) for n in WRITES),
        "pipelines.dbscan.self_s": self_of(lambda n: n == "pipelines.dbscan"),
        "trace.hook_s": self_of(lambda n: n == HOOK_SPAN),
    }
    for name, _ in PER_LAYER:
        if name in raw:
            continue
        if name.endswith(".busy_s"):
            raw[name] = busy_time(spans, name[: -len(".busy_s")])
        elif name.endswith(".self_s") and name.count(".") == 1:
            layer = name.split(".")[0]
            raw[name] = self_of(lambda n, layer=layer: layer_of(n) == layer)
    out = {name: value / ops for name, value in raw.items()}
    out["graph.builds_per_clustering"] = (
        totals["graph.builds"] / clusterings if clusterings else 0.0)
    out["eigen.max_rel_residual"] = rec.maxima.get("eigen.max_rel_residual", 0.0)
    calls_km = calls["kmeans.kmeans"]
    out["kmeans.inertia"] = totals["kmeans.inertia"] / calls_km if calls_km else 0.0
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name, _ in PER_LAYER}
