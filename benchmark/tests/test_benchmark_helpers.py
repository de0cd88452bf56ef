"""Tests of the benchmark's own helpers.

Run from the repository root:  python -m pytest benchmark/tests -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import stats
import tracer
from sbm import planted_partition, write_edge_list
from tracer import Recorder, Span, busy_time, self_times, union_length

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def span(id, name, start, end, parent=None):
    return Span(id, name, start, end, parent, 0)


# --- span arithmetic -------------------------------------------------------

def test_union_length_merges_overlaps_and_clips():
    assert union_length([], 0.0, 10.0) == 0.0
    assert union_length([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == 5.0
    assert union_length([(1, 3), (1.5, 2)], 0.0, 10.0) == 2.0
    assert union_length([(-5, 2), (9, 20)], 0.0, 10.0) == 3.0
    assert union_length([(11, 12)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, "op", 0.0, 10.0),
        span(1, "pipelines.spectacl", 1.0, 9.0, parent=0),
        span(2, "graph.epsilon_graph", 2.0, 5.0, parent=1),
        span(3, "graph.pairwise_distances", 2.5, 4.5, parent=2),
        span(4, "eigen.truncated_eigs", 5.0, 8.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 2.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 3.0}
    # self times of a tree partition the root span
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_busy_time_counts_nested_same_name_once():
    spans = [
        span(0, "op", 0.0, 10.0),
        span(1, "graph.knn_graph", 1.0, 4.0, parent=0),
        span(2, "graph.knn_graph", 2.0, 3.0, parent=1),
        span(3, "graph.knn_graph", 5.0, 6.5, parent=0),
    ]
    assert busy_time(spans, "graph.knn_graph") == pytest.approx(4.5)
    assert busy_time(spans, "graph.epsilon_graph") == 0.0


def test_recorder_links_nested_spans():
    ticks = iter(range(100))
    rec = Recorder(trace=True, clock=lambda: float(next(ticks)))
    rec.op = 7
    outer = rec.begin("a")
    inner = rec.begin("b")
    rec.end(inner)
    rec.end(outer)
    assert (inner.parent, outer.parent) == (outer.id, None)
    assert (inner.op, outer.op) == (7, 7)
    assert self_times(rec.spans) == {outer.id: 2.0, inner.id: 1.0}


# --- statistics --------------------------------------------------------------

def test_median_and_throughput():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert stats.throughput(6000 * 5, 25.0) == 1200.0
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.throughput(1, 0.0)


def test_f_measure_uses_the_fixed_prefix_only():
    assert run.f_measure([0.9, 0.7, 0.8, 0.1], 3) == pytest.approx(0.8)
    assert run.f_measure([0.9, None, 0.7], 3) == pytest.approx(0.8)
    assert run.f_measure([None], 1) == 0.0


def test_check_captures_rejects_wrong_length_and_cluster_count():
    from workloads import CheckError, check_captures

    good = tracer.Capture("pipelines.spectacl", 4, 2, np.array([0, 1, 1, 0]))
    noise = tracer.Capture("pipelines.dbscan", 3, None, np.array([-1, 0, 0]))
    assert check_captures([good, noise], 2) == 7
    with pytest.raises(CheckError):
        check_captures([good], 2)
    with pytest.raises(CheckError):
        check_captures([tracer.Capture("pipelines.spectacl", 5, 2, good.labels)], 1)
    with pytest.raises(CheckError):
        check_captures([tracer.Capture("pipelines.spectacl", 4, 3, good.labels)], 1)


# --- planted-partition generator ----------------------------------------------

def test_planted_partition_is_deterministic_per_seed(tmp_path):
    a_edges, a_truth = planted_partition(11, nodes=600, blocks=6)
    b_edges, b_truth = planted_partition(11, nodes=600, blocks=6)
    c_edges, _ = planted_partition(12, nodes=600, blocks=6)
    assert np.array_equal(a_edges, b_edges) and np.array_equal(a_truth, b_truth)
    assert not np.array_equal(a_edges, c_edges)
    size_a = write_edge_list(tmp_path / "a.txt", a_edges)
    size_b = write_edge_list(tmp_path / "b.txt", b_edges)
    assert size_a == size_b
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_planted_partition_shape():
    edges, truth = planted_partition(3)
    nodes, blocks = 3000, 15
    assert np.array_equal(np.bincount(truth), np.full(blocks, nodes // blocks))
    assert np.all(edges[:, 0] < edges[:, 1])
    assert np.unique(edges, axis=0).shape == edges.shape
    degree = np.bincount(edges.ravel(), minlength=nodes)
    assert degree.min() >= 1
    same = truth[edges[:, 0]] == truth[edges[:, 1]]
    assert 2 * same.sum() / nodes == pytest.approx(16.0, rel=0.05)
    assert 2 * (~same).sum() / nodes == pytest.approx(2.0, rel=0.1)


def test_planted_partition_rejects_unequal_blocks():
    with pytest.raises(ValueError):
        planted_partition(0, nodes=100, blocks=3)


# --- tracer installation -------------------------------------------------------

def _small_run():
    import spectacl

    data, _ = spectacl.generate(spectacl.SyntheticSpec(shape="moons", m=120, noise=0.05))
    return spectacl.spectacl(data, spectacl.SpectaclConfig(r=2, d=4))


def test_install_wraps_every_binding_and_restores():
    import spectacl
    from spectacl import cli, graph, pipelines

    originals = (graph.epsilon_graph, pipelines.epsilon_graph, cli.epsilon_graph,
                 spectacl.epsilon_graph)
    rec = Recorder(trace=True)
    restore = tracer.install("spectacl", rec)
    try:
        wrapped = (graph.epsilon_graph, pipelines.epsilon_graph, cli.epsilon_graph,
                   spectacl.epsilon_graph)
        assert len({id(fn) for fn in wrapped}) == 1
        assert wrapped[0] is not originals[0]
        rec.op = 0
        result = _small_run()
    finally:
        restore()
    assert (graph.epsilon_graph, pipelines.epsilon_graph, cli.epsilon_graph,
            spectacl.epsilon_graph) == originals

    by_id = {s.id: s for s in rec.spans}
    names = [s.name for s in rec.spans]
    assert "pipelines.spectacl" in names and "eigen.truncated_eigs" in names
    # pairwise_distances is reached from auto-epsilon and from the graph build
    parents = {by_id[s.parent].name for s in rec.spans if s.name == "graph.pairwise_distances"}
    assert parents == {"graph.kth_neighbor_distances", "graph.epsilon_graph"}
    counts = rec.counts[0]
    assert counts["graph.dense_bytes"] == 2 * 8 * 120 * 120
    assert counts["graph.builds"] == 1
    assert counts["eigen.pairs_requested"] == 4
    [capture] = rec.captures[0]
    assert capture.points == 120 and capture.r == 2
    assert np.array_equal(capture.labels, result.labels)

    metrics = tracer.per_layer_metrics(rec, ops=1, overhead_s=0.0)
    assert metrics["graph.pairwise_distances.calls"] == 2
    assert metrics["graph.builds_per_clustering"] == 1.0
    assert metrics["eigen.max_rel_residual"] < 1e-8


def test_untraced_install_only_captures_clusterings():
    from spectacl import graph

    original = graph.epsilon_graph
    rec = Recorder(trace=False)
    restore = tracer.install("spectacl", rec)
    try:
        assert graph.epsilon_graph is original
        rec.op = 0
        _small_run()
    finally:
        restore()
    assert rec.spans == [] and not rec.counts
    assert [c.name for c in rec.captures[0]] == ["pipelines.spectacl"]


# --- metric names ----------------------------------------------------------------

def test_reported_metrics_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    report = {"op_s": [1.0, 2.0, 3.0], "points": 6, "loop_s": 6.0, "peak_rss_mb": 100.0,
              "f_by_op": [0.5, 1.0], "f_ops": 2}
    produced = run.end_to_end(report, [0.5, 0.7, 0.6])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, entry["unit"]) for name, entry in produced.items()]
    assert produced["points_per_s"]["value"] == 1.0
    assert produced["setup_s"]["value"] == 0.6
