import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import cKDTree
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectacl import graph
from spectacl.dataio import DataMatrix
from spectacl.datagen import SyntheticSpec, generate
from spectacl.graph import (
    RADIUS_NUDGE,
    GraphError,
    SparseSymmetricMatrix,
    adjacency_from_edge_list,
    choose_epsilon,
    components,
    epsilon_graph,
    knn_graph,
    kth_neighbor_distances,
    symmetric_normalize,
)
from spectacl.dataio import EdgeList, load_edge_list

from conftest import (
    assert_same_csr,
    dense_epsilon_graph,
    dense_kth_neighbor_distances,
    dense_knn_graph,
    from_dense,
    pairwise_distances,
    point_cloud,
)

CLOUDS = st.sampled_from(("uniform", "lattice", "duplicates"))
# lattice clouds have integer coordinates: these radii equal many distances exactly
RADII = st.sampled_from((0.5, 1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0), 3.0, 0.37, 1.3))


def test_pairwise_345_triangle():
    d = pairwise_distances(DataMatrix(np.array([[0.0, 0.0], [3.0, 4.0]])))
    assert d[0, 1] == 5.0 and d[1, 0] == 5.0
    assert d[0, 0] == 0.0


def test_pairwise_identical_points():
    d = pairwise_distances(DataMatrix(np.array([[1.0, 2.0], [1.0, 2.0]])))
    assert d[0, 1] == 0.0


def test_pairwise_matches_loop_oracle(rng):
    X = rng.standard_normal((5, 3))
    d = pairwise_distances(DataMatrix(X))
    for j in range(5):
        for l in range(5):
            ref = math.sqrt(sum((X[j, i] - X[l, i]) ** 2 for i in range(3)))
            assert abs(d[j, l] - ref) <= 1e-12


def test_pairwise_exactly_symmetric(rng):
    X = rng.standard_normal((40, 4))
    d = pairwise_distances(DataMatrix(X))
    assert np.array_equal(d, d.T)


def test_epsilon_graph_collinear():
    data = DataMatrix(np.array([[0.0], [1.0], [2.0]]))
    W = epsilon_graph(data, 1.5).to_dense()
    assert np.array_equal(W, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_epsilon_graph_radius_below_all_distances():
    data = DataMatrix(np.array([[0.0], [1.0], [2.0]]))
    assert epsilon_graph(data, 0.5).nnz == 0


def test_epsilon_graph_strict_boundary():
    data = DataMatrix(np.array([[0.0], [1.0]]))
    assert epsilon_graph(data, 1.0).nnz == 0
    assert epsilon_graph(data, 1.0 + 1e-12).nnz == 2


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 50), st.floats(0.1, 2.0), st.integers(0, 2**32 - 1))
def test_epsilon_graph_equals_indicator(m, radius, seed):
    rng = np.random.default_rng(seed)
    data = DataMatrix(rng.uniform(-1, 1, size=(m, 2)))
    d = pairwise_distances(data)
    expect = ((d < radius) & ~np.eye(m, dtype=bool)).astype(float)
    assert np.array_equal(epsilon_graph(data, radius).to_dense(), expect)


def test_epsilon_graph_coincident_points_one_edge():
    data = DataMatrix(np.array([[1.0, 2.0], [1.0, 2.0], [9.0, 9.0]]))
    W = epsilon_graph(data, 0.5)
    assert np.array_equal(W.to_dense(), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 60), CLOUDS, RADII)
def test_epsilon_graph_equals_dense_oracle(seed, m, kind, radius):
    data = point_cloud(seed, m, kind)
    W = epsilon_graph(data, radius)
    assert np.array_equal(W.to_dense(), dense_epsilon_graph(data, radius))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 60), CLOUDS, st.integers(1, 12))
def test_knn_graph_equals_dense_oracle(seed, m, kind, k):
    data = point_cloud(seed, m, kind)
    k = min(k, m - 1)
    assert np.array_equal(knn_graph(data, k).to_dense(), dense_knn_graph(data, k))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 60), CLOUDS, st.integers(1, 12),
       st.floats(0.05, 1.0))
def test_kth_distances_and_epsilon_equal_dense_oracle(seed, m, kind, k, coverage):
    data = point_cloud(seed, m, kind)
    k = min(k, m - 1)
    kth = dense_kth_neighbor_distances(data, k)
    assert np.array_equal(kth_neighbor_distances(data, k), kth)
    quantile = np.sort(kth)[min(m, max(1, math.ceil(coverage * m - 1e-9))) - 1]
    expect = np.finfo(np.float64).tiny if quantile <= 0 else quantile * RADIUS_NUDGE
    own = DataMatrix(data.values)  # its own query, not the table kept above
    assert choose_epsilon(own, neighbor_count=k, coverage=coverage) == expect


@pytest.mark.parametrize("shape", ["moons", "circles", "blobs"])
def test_knn_graph_and_kth_distances_at_m_1500_equal_dense_oracle_bytes(shape):
    data, _ = generate(SyntheticSpec(shape=shape, m=1500, noise=0.1, seed=0))
    assert_same_csr(knn_graph(data, 10), from_dense(dense_knn_graph(data, 10)))
    own = DataMatrix(data.values)  # its own query, not the table knn_graph kept
    assert np.array_equal(kth_neighbor_distances(own, 10), dense_kth_neighbor_distances(data, 10))


@pytest.mark.parametrize("scale", [1.0, 2.0])
@pytest.mark.parametrize("shape", ["moons", "circles", "blobs"])
def test_epsilon_graph_at_m_1500_equals_dense_oracle_bytes(shape, scale):
    data, _ = generate(SyntheticSpec(shape=shape, m=1500, noise=0.1, seed=0))
    radius = scale * choose_epsilon(data)
    W = epsilon_graph(data, radius)
    expect = from_dense(dense_epsilon_graph(data, radius))
    assert_same_csr(W, expect)
    for attr in ("indptr", "indices"):
        assert getattr(W.matrix, attr).dtype == getattr(expect.matrix, attr).dtype


def test_epsilon_graph_peak_memory_is_at_most_2_5_times_the_graph():
    data, _ = generate(SyntheticSpec(shape="blobs", m=6000, noise=0.1, seed=0))
    radius = 2.0 * choose_epsilon(data)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        W = epsilon_graph(data, radius)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    graph_bytes = sum(getattr(W.matrix, attr).nbytes for attr in ("indptr", "indices", "data"))
    assert peak <= 2.5 * graph_bytes


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 40),
       st.sampled_from((1, 2, 3, None)))
@example(seed=0, n=2, pairs=0, block=1)
@example(seed=0, n=2, pairs=1, block=2)
def test_blocked_distances_equal_one_shot_formula(seed, n, pairs, block):
    """Blocks of 1, 2 and 3 pairs (DISTANCE_BLOCK_BYTES holds two n-column
    float64 rows per pair) and the default give the one-shot values bit for
    bit, on strided index columns like those of a pair array."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 20))
    X = rng.standard_normal((m, n)) * 10.0 ** int(rng.integers(-3, 4))
    rows, cols = rng.integers(0, m, size=(pairs, 2)).T
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(graph, "DISTANCE_BLOCK_BYTES", block * 16 * n)
        got = graph._distances(X, rows, cols)
    # after the call, so that freed memory holding these values cannot be
    # what the call's result happens to start from
    diff = X[rows] - X[cols]
    want = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    assert got.dtype == np.float64 and got.shape == (pairs,)
    assert got.tobytes() == want.tobytes()


def test_distances_hold_no_pair_sized_temporary():
    # one-shot, 200k pairs in 3 columns would hold three 4.8 MB temporaries
    rng = np.random.default_rng(0)
    X = rng.standard_normal((1000, 3))
    rows, cols = rng.integers(0, 1000, size=(200_000, 2)).T
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = graph._distances(X, rows, cols)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 2 * graph.DISTANCE_BLOCK_BYTES


@pytest.mark.parametrize("kind", ["uniform", "lattice", "duplicates"])
def test_nearest_neighbor_table_has_read_only_int32_indices_and_knn_csr_is_unchanged(kind):
    # lattice and duplicate clouds tie at the k-th distance: ball-query rows
    data = point_cloud(5, 60, kind)
    for k in (1, 5, 10):
        W = knn_graph(data, k)
        cols, dist = data._neighbors[k]
        assert cols.dtype == np.int32 and dist.dtype == np.float64
        assert cols.flags.c_contiguous and not cols.flags.writeable
        assert_same_csr(W, from_dense(dense_knn_graph(data, k)))
        assert W.matrix.indices.dtype == W.matrix.indptr.dtype == np.int32


@pytest.mark.parametrize("kind", ["uniform", "lattice", "duplicates"])
@pytest.mark.parametrize("m", [2, 3, 9, 40])
def test_knn_with_every_point_returned_by_the_tree_equals_dense_oracle(kind, m):
    # k = m - 1 and k = m - 2 ask the tree for all m points
    data = point_cloud(m, m, kind)
    for k in {m - 1, max(1, m - 2)}:
        assert np.array_equal(knn_graph(data, k).to_dense(), dense_knn_graph(data, k))
        assert np.array_equal(kth_neighbor_distances(DataMatrix(data.values), k),
                              dense_kth_neighbor_distances(data, k))


def test_nearest_neighbors_of_spread_points_need_no_ball_query(tree_calls):
    data, _ = generate(SyntheticSpec(shape="moons", m=1500, noise=0.1, seed=0))
    knn_graph(data, 10)
    choose_epsilon(DataMatrix(data.values))  # its own matrix, so its own query
    assert tree_calls["query"] == 2
    assert tree_calls["query_ball_point"] == 0


def test_nearest_neighbors_among_many_coincident_points_take_the_ball_query(tree_calls):
    # 30 copies of one point: the tree's k + 2 answers may leave out the point itself
    X = np.vstack([np.zeros((30, 2)), np.random.default_rng(0).uniform(-1, 1, size=(30, 2))])
    data = DataMatrix(X)
    assert np.array_equal(knn_graph(data, 5).to_dense(), dense_knn_graph(data, 5))
    assert tree_calls["query_ball_point"] == 1
    own = DataMatrix(X)  # its own query, not the table knn_graph kept
    assert np.array_equal(kth_neighbor_distances(own, 5), dense_kth_neighbor_distances(data, 5))
    assert tree_calls["query_ball_point"] == 2


def test_knn_where_tree_and_exact_distances_order_points_differently_equals_dense_oracle():
    # permutations of one 8-d vector are equally far from the origin in exact
    # arithmetic, but the tree and _distances sum their squares in different
    # orders, so the last bits, and the order they give, differ
    inverted = False
    for seed in range(12):
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.5, 1.0, size=8)
        X = np.vstack([np.zeros(8), [rng.permutation(v) for _ in range(20)]])
        data = DataMatrix(X)
        _, cols = cKDTree(X).query(X[:1], k=21)
        exact = graph._distances(X, np.zeros(21, dtype=np.intp), cols[0])
        inverted |= bool(np.any(np.diff(exact) < 0))
        for k in range(1, 20):
            assert np.array_equal(knn_graph(data, k).to_dense(), dense_knn_graph(data, k))
            assert np.array_equal(kth_neighbor_distances(DataMatrix(X), k),
                                  dense_kth_neighbor_distances(data, k))
    assert inverted


def test_nearest_neighbor_table_is_kept_once_per_k_read_only(tree_calls):
    # lattice points tie at the k-th distance, so ball-query rows are kept too
    data = point_cloud(3, 60, "lattice")
    calls = (lambda d: knn_graph(d, 5).to_dense(), lambda d: kth_neighbor_distances(d, 10),
             lambda d: choose_epsilon(d, neighbor_count=5), lambda d: knn_graph(d, 10).to_dense(),
             lambda d: kth_neighbor_distances(d, 5))
    for call in calls:
        assert np.array_equal(call(data), call(DataMatrix(data.values)))
    assert tree_calls["query"] == 2 + len(calls)
    assert tree_calls["query_ball_point"] > 0
    assert sorted(data._neighbors) == [5, 10]
    for k, (cols, dist) in data._neighbors.items():
        assert cols.shape == dist.shape == (data.m, k)
        assert not cols.flags.writeable and not dist.flags.writeable


def test_points_whose_squared_distances_overflow_are_rejected():
    X = np.random.default_rng(0).standard_normal((200, 2))
    data = DataMatrix(X * 1e160)
    for build in (lambda: knn_graph(data, 5), lambda: kth_neighbor_distances(data, 5),
                  lambda: choose_epsilon(data), lambda: epsilon_graph(data, 1e160)):
        with pytest.raises(GraphError, match="rescale the data"):
            build()
    assert data._neighbors == {}  # a call that raises keeps no table
    scaled = DataMatrix(X * 1e150)
    assert np.array_equal(knn_graph(scaled, 5).to_dense(), dense_knn_graph(scaled, 5))


def test_kth_neighbor_count_must_be_in_range():
    data = DataMatrix(np.arange(4.0).reshape(-1, 1))
    for bad in (0, 4):
        with pytest.raises(GraphError, match="neighbor_count"):
            kth_neighbor_distances(data, bad)


def test_knn_two_points_mutual():
    W = knn_graph(DataMatrix(np.array([[0.0], [1.0]])), 1).to_dense()
    assert np.array_equal(W, [[0, 1], [1, 0]])


def test_knn_collinear_half_weight():
    # 0 and 1 pick each other; 2 picks 1 but is nobody's neighbor
    data = DataMatrix(np.array([[0.0], [1.0], [3.0]]))
    W = knn_graph(data, 1).to_dense()
    assert W[0, 1] == 1.0
    assert W[1, 2] == 0.5
    assert W[0, 2] == 0.0


def test_knn_complete_graph():
    data = DataMatrix(np.arange(5.0).reshape(-1, 1))
    W = knn_graph(data, 4).to_dense()
    assert np.array_equal(W, np.ones((5, 5)) - np.eye(5))


def test_knn_matches_brute_force(rng):
    X = rng.standard_normal((30, 2))
    data = DataMatrix(X)
    k = 4
    d = pairwise_distances(data)
    A = np.zeros((30, 30))
    for j in range(30):
        order = sorted(range(30), key=lambda l: (d[j, l], l))
        picked = [l for l in order if l != j][:k]
        A[j, picked] = 1.0
    expect = (A + A.T) / 2
    W = knn_graph(data, k).to_dense()
    assert np.array_equal(W, expect)
    assert np.array_equal(W, W.T)


def test_knn_tie_break_lowest_index():
    # points 1 and 2 are equidistant from 0; 0 picks the lower index, so the
    # 0-1 edge is mutual (weight 1) while 0-2 is one-sided (weight 1/2)
    data = DataMatrix(np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [5.0, 0.0]]))
    W = knn_graph(data, 1).to_dense()
    assert W[0, 1] == 1.0 and W[0, 2] == 0.5


def test_normalize_unit_degrees_unchanged():
    W = from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(symmetric_normalize(W).to_dense(), W.to_dense())


def test_normalize_triangle():
    K3 = np.ones((3, 3)) - np.eye(3)
    out = symmetric_normalize(from_dense(K3)).to_dense()
    assert np.allclose(out, K3 / 2.0)
    assert np.array_equal(out, out.T)


def test_normalize_isolated_row_stays_zero():
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = 1.0
    out = symmetric_normalize(from_dense(A)).to_dense()
    assert np.all(out[2] == 0) and np.all(out[:, 2] == 0)


def test_normalize_equals_dense_formula_bytes():
    data, _ = generate(SyntheticSpec(shape="moons", m=300, noise=0.1, seed=0))
    W = knn_graph(data, 10)
    A = W.to_dense()
    s = 1.0 / np.sqrt(A.sum(axis=1))
    assert_same_csr(symmetric_normalize(W), from_dense(A * (s[:, None] * s[None, :])))


def test_normalize_rejects_negative_weights():
    A = np.zeros((2, 2))
    A[0, 1] = A[1, 0] = -1.0
    with pytest.raises(GraphError, match="nonnegative"):
        symmetric_normalize(from_dense(A))


def test_normalized_spectral_radius_at_most_one(rng):
    for _ in range(5):
        X = rng.uniform(-1, 1, size=(25, 2))
        W = epsilon_graph(DataMatrix(X), 0.8)
        Wn = symmetric_normalize(W).to_dense()
        v = rng.standard_normal(25)
        for _ in range(200):
            nv = Wn @ v
            norm = np.linalg.norm(nv)
            if norm == 0:
                break
            v = nv / norm
        estimate = abs(v @ Wn @ v) / (v @ v) if (v @ v) > 0 else 0.0
        assert estimate <= 1.0 + 1e-8


def test_choose_epsilon_collinear_example():
    data = DataMatrix(np.array([[0.0], [1.0], [2.0], [10.0]]))
    r = choose_epsilon(data, neighbor_count=1, coverage=0.75)
    assert 1.0 < r < 1.0 + 1e-9


def test_choose_epsilon_full_coverage_is_nudged_max():
    data = DataMatrix(np.array([[0.0], [1.0], [2.0], [10.0]]))
    r = choose_epsilon(data, neighbor_count=1, coverage=1.0)
    assert 8.0 < r < 8.0 + 1e-8
    d = pairwise_distances(data)
    counts = ((d > 0) & (d < r)).sum(axis=1)
    assert np.all(counts >= 1)


def test_choose_epsilon_postcondition(rng):
    for _ in range(10):
        m = int(rng.integers(12, 40))
        data = DataMatrix(rng.uniform(-1, 1, size=(m, 2)))
        k = int(rng.integers(1, 5))
        coverage = float(rng.uniform(0.5, 1.0))
        r = choose_epsilon(data, neighbor_count=k, coverage=coverage)
        d = pairwise_distances(data)
        need = min(m, max(1, math.ceil(coverage * m - 1e-9)))
        counts = (((d < r) & (d > 0)) | ((d == 0) & ~np.eye(m, dtype=bool))).sum(axis=1)
        assert int((counts >= k).sum()) >= need
        # no smaller candidate radius achieves the coverage
        kth = np.sort(kth_neighbor_distances(data, k))
        for cand in kth * (1.0 + 2.0**-40):
            if cand >= r:
                break
            c_counts = ((d > 0) & (d < cand)).sum(axis=1)
            assert int((c_counts >= k).sum()) < need


def test_choose_epsilon_rejects_large_neighbor_count():
    data = DataMatrix(np.array([[0.0], [1.0]]))
    with pytest.raises(GraphError):
        choose_epsilon(data, neighbor_count=2)


def test_adjacency_from_edge_list():
    el = EdgeList(node_count=3, pairs=[[0, 1], [2, 1]], weights=[2.0, 0.5])
    assert el.pairs.tolist() == [[0, 1], [1, 2]]
    W = adjacency_from_edge_list(el).to_dense()
    assert np.array_equal(W, [[0, 2.0, 0], [2.0, 0, 0.5], [0, 0.5, 0]])


def test_comment_only_edge_list_has_no_nodes(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# no edges\n\n")
    with pytest.raises(GraphError, match="edge list has no nodes"):
        adjacency_from_edge_list(load_edge_list(p))


def test_sparse_matrix_rejects_asymmetry():
    A = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(GraphError, match="symmetric"):
        from_dense(A)
    # the same pattern as its transpose, one value differs
    B = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0000000000000004, 0.0]])
    with pytest.raises(GraphError, match="symmetric"):
        from_dense(B)

    def stored(indices, data):  # 2 x 2, row 0 holds the first two entries
        return sp.csr_matrix((np.array(data), np.array(indices), np.array([0, 2, 3])),
                             shape=(2, 2))

    # entry by entry (0,1) matches (1,0), but the duplicates sum to 2 against 1
    with pytest.raises(GraphError, match="symmetric"):
        SparseSymmetricMatrix(stored([1, 1, 0], [1.0, 1.0, 1.0]))
    # the duplicates sum to the value stored once at (1,0)
    W = SparseSymmetricMatrix(stored([1, 1, 0], [0.5, 1.5, 2.0]))
    assert np.array_equal(W.to_dense(), [[0.0, 2.0], [2.0, 0.0]])


@pytest.mark.parametrize("indptr, indices, data", [
    ([0, 2, 4], [1, 1, 0, 0], [1.0, 2.0, 2.0, 1.0]),  # duplicates
    ([0, 2, 4], [0, 1, 0, 1], [0.0, 3.0, 3.0, 0.0]),  # stored zeros on the diagonal
])
def test_sparse_matrix_keeps_edges_only_and_leaves_the_input_alone(indptr, indices, data):
    user = sp.csr_matrix((np.array(data), np.array(indices), np.array(indptr)), shape=(2, 2))
    before = [arr.copy() for arr in (user.indptr, user.indices, user.data)]
    W = SparseSymmetricMatrix(user)
    for arr, kept in zip((user.indptr, user.indices, user.data), before):
        assert np.array_equal(arr, kept)
    assert W.matrix.indptr.tolist() == [0, 1, 2]
    assert W.matrix.indices.tolist() == [1, 0]
    assert W.matrix.data.tolist() == [3.0, 3.0]


def test_components_are_numbered_by_lowest_member():
    W = SparseSymmetricMatrix(sp.csr_matrix(
        (np.ones(4), ([0, 3, 1, 2], [3, 0, 2, 1])), shape=(5, 5)))
    count, labels = components(W.matrix)
    assert count == 3
    assert labels.tolist() == [0, 1, 1, 0, 2]


TWO_POINTS = DataMatrix(np.array([[0.0], [1.0]]))


@pytest.mark.parametrize("call, match", [
    (lambda: SparseSymmetricMatrix(sp.csr_matrix((2, 3))), r"not square: \(2, 3\)"),
    (lambda: from_dense([[0.0, np.inf], [np.inf, 0.0]]), "non-finite weights"),
    (lambda: epsilon_graph(TWO_POINTS, 0.0), "radius must be positive and finite"),
    (lambda: epsilon_graph(TWO_POINTS, np.inf), "radius must be positive and finite"),
    (lambda: epsilon_graph(TWO_POINTS, np.nan), "radius must be positive and finite"),
    (lambda: choose_epsilon(TWO_POINTS, 1, coverage=0.0), r"coverage must be in \(0, 1\]"),
    (lambda: choose_epsilon(TWO_POINTS, 1, coverage=1.5), r"coverage must be in \(0, 1\]"),
], ids=["not-square", "non-finite-weight", "radius-zero", "radius-inf", "radius-nan",
        "coverage-zero", "coverage-above-one"])
def test_graph_rejects_bad_arguments(call, match):
    with pytest.raises(GraphError, match=match):
        call()
