import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import spectacl as spectacl_package

from spectacl.dataio import DataMatrix
from spectacl.datagen import SyntheticSpec, generate
from spectacl.graph import (
    GraphError,
    SparseSymmetricMatrix,
    choose_epsilon,
    epsilon_graph,
    knn_graph,
    symmetric_normalize,
)
from spectacl.kmeans import Clustering
from spectacl.metrics import average_density_objective, f_measure
from spectacl.pipelines import (
    AUTO_EPSILON_SCALE,
    DbscanConfig,
    PipelineError,
    PipelineResult,
    SpectaclConfig,
    dbscan,
    spectacl,
    spectral_clustering,
)

from conftest import (
    assert_same_csr,
    cliques_graph,
    exhaustive_best_density,
    flood_fill_dbscan,
    from_dense,
    point_cloud,
)


def test_spectacl_two_cliques_reaches_exhaustive_optimum():
    W, truth = cliques_graph((3, 3))
    cl = spectacl(W, SpectaclConfig(r=2, d=2, seed=0))
    obj = average_density_objective(cl, W)
    assert obj == pytest.approx(4.0, abs=1e-9)
    assert obj == pytest.approx(exhaustive_best_density(W.to_dense(), 2), abs=1e-9)
    assert f_measure(cl, truth).total_f == 1.0


def test_spectacl_single_blob_objective_is_average_degree():
    data, _ = generate(SyntheticSpec(shape="blobs", m=60, noise=0.0, seed=5, centers=1))
    eps = AUTO_EPSILON_SCALE * choose_epsilon(data)
    W = epsilon_graph(data, eps)
    cl = spectacl(data, SpectaclConfig(r=1, d=8, epsilon=eps, seed=0))
    assert average_density_objective(cl, W) == pytest.approx(W.degrees().mean(), abs=1e-10)


def test_spectacl_never_beats_exhaustive_maximum(rng):
    for _ in range(12):
        m = int(rng.integers(5, 11))
        B = (rng.random((m, m)) < 0.45).astype(float)
        A = np.triu(B, 1)
        A = A + A.T
        W = from_dense(A)
        cl = spectacl(W, SpectaclConfig(r=2, d=m, seed=0, restarts=5))
        obj = average_density_objective(cl, W)
        assert obj <= exhaustive_best_density(A, 2) + 1e-9


def test_spectacl_small_circles_recovery():
    data, truth = generate(SyntheticSpec(shape="circles", m=300, noise=0.08, seed=7))
    cl = spectacl(data, SpectaclConfig(r=2, d=25, seed=0))
    assert f_measure(cl, truth).total_f >= 0.9


def test_spectacl_normalized_variant_runs_on_points():
    data, truth = generate(SyntheticSpec(shape="circles", m=200, noise=0.05, seed=1))
    cl = spectacl(data, SpectaclConfig(r=2, variant="normalized", knn=8, d=20, seed=0))
    assert cl.n_clusters == 2
    assert not cl.has_noise


def test_spectacl_normalized_graph_input():
    W, truth = cliques_graph((4, 4))
    cl = spectacl(W, SpectaclConfig(r=2, variant="normalized", d=2, seed=0))
    assert f_measure(cl, truth).total_f == 1.0


def test_spectacl_deterministic():
    data, _ = generate(SyntheticSpec(shape="moons", m=150, noise=0.1, seed=3))
    a = spectacl(data, SpectaclConfig(r=2, d=15, seed=11))
    b = spectacl(data, SpectaclConfig(r=2, d=15, seed=11))
    assert np.array_equal(a.labels, b.labels)


def test_spectacl_warns_when_d_below_r():
    with pytest.warns(UserWarning, match="below the cluster count") as record:
        SpectaclConfig(r=5, d=2)
    assert record[0].filename == __file__


def test_spectacl_rejects_bad_inputs():
    with pytest.raises(PipelineError):
        SpectaclConfig(r=2, variant="weird")
    with pytest.raises(PipelineError):
        spectacl([[0.0]], SpectaclConfig(r=1, d=1))
    W, _ = cliques_graph((3,))
    with pytest.warns(UserWarning):
        tight = SpectaclConfig(r=4, d=2)
    with pytest.raises(PipelineError, match="exceeds"):
        spectacl(W, tight)


def test_isolated_points_warn_without_changing_labels():
    data = DataMatrix(np.random.default_rng(0).uniform(size=(600, 2)))
    with pytest.warns(UserWarning, match="600 of 600 points have no neighbors") as record:
        cl = spectacl(data, SpectaclConfig(r=2, epsilon=1e-6))
        edgeless = from_dense(np.zeros((600, 600)))
        spectacl(edgeless, SpectaclConfig(r=2, variant="normalized"))
        spectral_clustering(edgeless, 2)
    assert sorted(cl.sizes()) == [1, 599]
    assert [
        (w.filename, str(w.message).startswith("600 of 600 points have no neighbors"))
        for w in record
    ] == [(__file__, True)] * 3


def zero_weight_path(m):
    """The path 0-1-...-(m-1), every edge stored with weight 0."""
    j = np.arange(m - 1)
    return SparseSymmetricMatrix(sp.csr_matrix(
        (np.zeros(2 * (m - 1)), (np.concatenate([j, j + 1]), np.concatenate([j + 1, j]))),
        shape=(m, m)))


@pytest.mark.parametrize("cluster", [
    lambda W: spectacl(W, SpectaclConfig(r=2)),
    lambda W: spectacl(W, SpectaclConfig(r=2, variant="normalized")),
    lambda W: spectral_clustering(W, 2),
], ids=["spectacl", "spectacl-norm", "sc"])
def test_zero_weights_are_no_edges(cluster):
    # m > DENSE_FALLBACK_DIM, so the spectacl variants take the iterative eigensolver
    with pytest.warns(UserWarning) as record:
        cl = cluster(zero_weight_path(600))
    assert [str(w.message) for w in record] == [
        "600 of 600 points have no neighbors in the graph, "
        "so their cluster labels are arbitrary"
    ]
    assert cl.n_clusters == 2 and sorted(set(cl.labels.tolist())) == [0, 1]


def test_connected_graph_does_not_warn():
    W, _ = cliques_graph((3, 3))
    signed = W.to_dense()
    signed[0, 3] = signed[3, 0] = -2.0  # nodes 0 and 3 have neighbors but degree 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spectacl(W, SpectaclConfig(r=2, d=2))
        spectacl(from_dense(signed), SpectaclConfig(r=2, d=2))
        spectral_clustering(W, 2)


def test_spectral_clustering_separated_blobs():
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.normal((0, 0), 0.3, (40, 2)), rng.normal((8, 0), 0.3, (40, 2))])
    truth = Clustering(labels=np.array([0] * 40 + [1] * 40), n_clusters=2)
    cl = spectral_clustering(DataMatrix(pts), 2, k=10, seed=0)
    assert f_measure(cl, truth).total_f == 1.0


def test_spectral_clustering_disconnected_components_exact():
    for sizes in ((12, 4), (10, 8, 6)):
        W, truth = cliques_graph(sizes)
        cl = spectral_clustering(W, len(sizes), seed=0)
        assert f_measure(cl, truth).total_f == 1.0


def test_spectral_clustering_splits_disconnected_moons_exactly():
    # 2 components at m > DENSE_FALLBACK_DIM: a Lanczos solve for the top of
    # I + N kept one copy of the eigenvalue 2 here and scored F = 0.674
    data, truth = generate(SyntheticSpec(shape="moons", m=1500, noise=0.0, seed=3))
    assert f_measure(spectral_clustering(data, 2), truth).total_f == 1.0


def test_spectral_clustering_keeps_largest_components_with_warning():
    W, _ = cliques_graph((3, 5, 4))
    with pytest.warns(UserWarning) as record:
        cl = spectral_clustering(W, 2, seed=0)
    assert [(w.filename, str(w.message)) for w in record] == [(
        __file__,
        "the graph has 3 connected components with edges, more than r=2; "
        "the embedding keeps the 2 largest by volume",
    )]
    # the 5- and 4-cliques get their own clusters; the 3-clique's embedding
    # rows are zero, so it joins one of them
    assert cl.labels[3:8].tolist() == [cl.labels[3]] * 5
    assert cl.labels[8:].tolist() == [cl.labels[8]] * 4
    assert cl.labels[3] != cl.labels[8]


def test_edgeless_spectral_clustering_warns_once_and_is_deterministic():
    edgeless = from_dense(np.zeros((600, 600)))
    runs = []
    for _ in range(2):
        with pytest.warns(UserWarning) as record:
            runs.append(spectral_clustering(edgeless, 2))
        assert [str(w.message) for w in record] == [
            "600 of 600 points have no neighbors in the graph, "
            "so their cluster labels are arbitrary"
        ]
    assert runs[0].n_clusters == 2
    assert np.array_equal(runs[0].labels, runs[1].labels)


def test_spectral_clustering_trails_density_pipeline_on_circles():
    data, truth = generate(SyntheticSpec(shape="circles", m=600, noise=0.1, seed=2))
    f_sc = f_measure(spectral_clustering(data, 2, k=10, seed=0), truth).total_f
    f_dense = f_measure(spectacl(data, SpectaclConfig(r=2, d=50, seed=0)), truth).total_f
    assert f_dense - f_sc >= 0.1


def test_spectral_clustering_requires_two_clusters():
    data, _ = generate(SyntheticSpec(shape="moons", m=20, noise=0.0, seed=0))
    with pytest.raises(PipelineError):
        spectral_clustering(data, 1)


def test_dbscan_coincident_core_and_outlier():
    pts = np.vstack([np.zeros((10, 2)), [[100.0, 100.0]]])
    cl = dbscan(DataMatrix(pts), DbscanConfig(epsilon=1.0, min_pts=5))
    assert cl.n_clusters == 1
    assert cl.labels[:10].tolist() == [0] * 10
    assert cl.labels[10] == -1


def test_dbscan_chain_single_cluster():
    pts = np.arange(5.0).reshape(-1, 1) * 0.9
    cl = dbscan(DataMatrix(pts), DbscanConfig(epsilon=1.0, min_pts=2))
    assert cl.n_clusters == 1
    assert not cl.has_noise


def test_dbscan_border_attaches_to_lowest_index_core():
    # two tight cores with a border point reachable from both
    left = np.zeros((4, 2))
    right = np.zeros((4, 2)) + [3.0, 0.0]
    border = np.array([[1.5, 0.0]])
    pts = np.vstack([left, right, border])
    cl = dbscan(DataMatrix(pts), DbscanConfig(epsilon=1.6, min_pts=3))
    assert cl.labels[8] == cl.labels[0]


def test_dbscan_zero_weight_entry_is_no_neighbor():
    W = SparseSymmetricMatrix(sp.csr_matrix(
        (np.array([1.0, 1.0, 0.0, 0.0]), ([0, 1, 2, 3], [1, 0, 3, 2])), shape=(4, 4)))
    cl = dbscan(W, DbscanConfig(min_pts=1))
    assert cl.n_clusters == 1
    assert cl.labels.tolist() == [0, 0, -1, -1]


def test_dbscan_order_invariance_up_to_relabeling(rng):
    data, truth = generate(SyntheticSpec(shape="blobs", m=120, noise=0.0, seed=8))
    config = DbscanConfig(epsilon=0.5, min_pts=4)
    base = dbscan(data, config)
    perm = rng.permutation(120)
    permuted = dbscan(DataMatrix(data.values[perm]), config)
    aligned = Clustering(labels=permuted.labels, n_clusters=permuted.n_clusters)
    reference = Clustering(labels=base.labels[perm], n_clusters=base.n_clusters)
    noise_a = aligned.labels == -1
    noise_b = reference.labels == -1
    assert np.array_equal(noise_a, noise_b)
    if aligned.n_clusters and reference.n_clusters:
        keep = ~noise_a
        sub_a = Clustering(labels=aligned.labels[keep], n_clusters=aligned.n_clusters)
        sub_b = Clustering(labels=reference.labels[keep], n_clusters=reference.n_clusters)
        assert f_measure(sub_a, sub_b).total_f == 1.0


def test_dbscan_config_validation():
    with pytest.raises(PipelineError):
        DbscanConfig(epsilon=0.0, min_pts=2)
    with pytest.raises(PipelineError):
        DbscanConfig(epsilon=1.0, min_pts=0)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.sampled_from(("uniform", "lattice", "duplicates")),
    st.sampled_from((0.3, 0.5, 1.0, 2.0 ** 0.5, 2.0, 3.0)),
    st.integers(1, 8),
)
def test_dbscan_equals_flood_fill_oracle(seed, m, kind, epsilon, min_pts):
    data = point_cloud(seed, m, kind)
    config = DbscanConfig(epsilon=epsilon, min_pts=min_pts)
    expect = flood_fill_dbscan(data, epsilon, min_pts)
    # from the points, and from their ready-made epsilon graph
    for data_or_graph in (data, epsilon_graph(data, epsilon)):
        got = dbscan(data_or_graph, config)
        assert got.n_clusters == expect.n_clusters
        assert np.array_equal(got.labels, expect.labels)


def test_spectacl_result_carries_its_epsilon_graph():
    data, _ = generate(SyntheticSpec(shape="moons", m=150, noise=0.1, seed=3))
    result = spectacl(data, SpectaclConfig(r=2, d=15))
    assert isinstance(result, PipelineResult) and isinstance(result, Clustering)
    assert result.epsilon == AUTO_EPSILON_SCALE * choose_epsilon(data)
    assert_same_csr(result.graph, epsilon_graph(data, result.epsilon))
    assert spectacl(data, SpectaclConfig(r=2, d=15, epsilon=0.3)).epsilon == 0.3


def test_normalized_results_carry_the_normalized_knn_graph():
    data, _ = generate(SyntheticSpec(shape="moons", m=150, noise=0.1, seed=3))
    expected = symmetric_normalize(knn_graph(data, 8))
    normalized = spectacl(data, SpectaclConfig(r=2, variant="normalized", knn=8, d=15))
    for result in (normalized, spectral_clustering(data, 2, k=8)):
        assert result.epsilon is None
        assert_same_csr(result.graph, expected)


def test_pipelines_on_one_data_matrix_share_one_nearest_neighbor_query(tree_calls):
    data, _ = generate(SyntheticSpec(shape="moons", m=150, noise=0.1, seed=3))
    spectral_clustering(data, 2)
    dbscan(data, DbscanConfig())
    spectacl(data, SpectaclConfig(r=2, variant="normalized", d=15))
    assert tree_calls["query"] == 1
    spectral_clustering(data, 2, k=5)
    assert tree_calls["query"] == 2


def test_a_later_write_to_the_callers_array_does_not_reach_the_pipelines():
    X = generate(SyntheticSpec(shape="moons", m=150, noise=0.1, seed=3))[0].values.copy()
    data = DataMatrix(X)
    runs = (lambda d: spectacl(d, SpectaclConfig(r=2, d=15)),
            lambda d: dbscan(d, DbscanConfig()))
    expected = [run(DataMatrix(X)).labels for run in runs]
    X[0, 0] = np.nan
    X[1:] *= 3.0
    for run, labels in zip(runs, expected):
        assert np.array_equal(run(data).labels, labels)


def test_normalized_spectacl_reports_each_single_error():
    W, _ = cliques_graph((3, 3))
    negative_diagonal = from_dense(W.to_dense() - np.eye(6))
    with pytest.raises(GraphError, match="nonnegative"):
        spectacl(negative_diagonal, SpectaclConfig(r=2, d=2, variant="normalized"))
    with pytest.warns(UserWarning, match="below the cluster count"):
        too_many = SpectaclConfig(r=7, d=2, variant="normalized")
    with pytest.raises(PipelineError, match="r=7 exceeds the number of points 6"):
        spectacl(W, too_many)


def test_graph_input_result_is_that_graph():
    W, _ = cliques_graph((4, 4))
    for result in (spectacl(W, SpectaclConfig(r=2, d=2)), dbscan(W, DbscanConfig(min_pts=2))):
        assert result.graph is W and result.epsilon is None


def test_dbscan_default_epsilon_is_raw_coverage_quantile():
    data, _ = generate(SyntheticSpec(shape="circles", m=200, noise=0.05, seed=2))
    radius = choose_epsilon(data)
    auto = dbscan(data, DbscanConfig(min_pts=5))
    fixed = dbscan(data, DbscanConfig(epsilon=radius, min_pts=5))
    assert auto.epsilon == fixed.epsilon == radius
    assert auto.n_clusters == fixed.n_clusters
    assert np.array_equal(auto.labels, fixed.labels)


def test_auto_epsilon_needs_eleven_points():
    data, _ = generate(SyntheticSpec(shape="moons", m=10, noise=0.0, seed=0))
    with pytest.raises(GraphError, match="at least 11 points.*pass an epsilon"):
        choose_epsilon(data)
    with pytest.raises(PipelineError, match="at least 11 points"):
        spectacl(data, SpectaclConfig(r=2, d=4))
    eleven, _ = generate(SyntheticSpec(shape="moons", m=11, noise=0.0, seed=0))
    assert choose_epsilon(eleven) > 0


_BOUNDED_RUN = """
import resource
from spectacl import SpectaclConfig, SyntheticSpec, generate, spectacl
data, _ = generate(SyntheticSpec(shape="circles", m=20000, noise=0.1, seed=0))
clustering = spectacl(data, SpectaclConfig(r=2, d=50, seed=0))
print(clustering.n_clusters, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_spectacl_20000_points_stays_under_one_gigabyte():
    src = str(Path(spectacl_package.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _BOUNDED_RUN], env=env, capture_output=True,
                          text=True, timeout=600, check=True)
    clusters, maxrss_kb = map(int, proc.stdout.split())
    assert clusters == 2
    assert maxrss_kb < 1024 * 1024  # ru_maxrss is in KiB on Linux
