import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectacl.graph import symmetric_normalize
from spectacl.kmeans import Clustering
from spectacl.metrics import (
    MetricError,
    average_density_objective,
    contingency_table,
    density,
    f_measure,
    hungarian,
    nmi,
)

from conftest import (
    brute_force_assignment,
    cliques_graph,
    cut_value,
    from_dense,
    random_epsilon_graph,
    ratio_cut,
    reference_nmi,
)


def labels_of(seq, r):
    return Clustering(labels=np.array(seq, dtype=np.int64), n_clusters=r)


def random_labels(rng, m, r):
    labels = rng.integers(0, r, size=m)
    labels[rng.permutation(m)[:r]] = np.arange(r)  # no empty clusters
    return Clustering(labels=labels, n_clusters=r)


def test_density_triangle():
    W, _ = cliques_graph((3,))
    assert density(np.ones(3), W) == pytest.approx(2.0)


def test_density_singleton_zero_diagonal():
    W, _ = cliques_graph((3,))
    y = np.array([1.0, 0.0, 0.0])
    assert density(y, W) == 0.0


def test_density_eigenvector_is_rayleigh(rng):
    data, W = random_epsilon_graph(rng, 20)
    vals, vecs = np.linalg.eigh(W.to_dense())
    assert density(vecs[:, -1], W) == pytest.approx(vals[-1], abs=1e-10)


def test_density_rejects_zero_vector():
    W, _ = cliques_graph((3,))
    with pytest.raises(MetricError):
        density(np.zeros(3), W)


def test_objective_two_cliques():
    W, truth = cliques_graph((3, 3))
    assert average_density_objective(truth, W) == pytest.approx(4.0)


def test_objective_merged_is_worse():
    W, _ = cliques_graph((3, 3))
    merged = labels_of([0] * 6, 1)
    assert average_density_objective(merged, W) == pytest.approx(2.0)


def test_objective_singletons_zero():
    W, _ = cliques_graph((3, 3))
    singletons = labels_of(range(6), 6)
    assert average_density_objective(singletons, W) == 0.0


def test_objective_equals_trace_form(rng):
    for _ in range(20):
        m = int(rng.integers(6, 25))
        data, W = random_epsilon_graph(rng, m)
        r = int(rng.integers(2, 5))
        cl = random_labels(rng, m, r)
        A = W.to_dense()
        Y = np.zeros((m, r))
        Y[np.arange(m), cl.labels] = 1.0
        trace_form = np.trace(Y.T @ A @ Y @ np.linalg.inv(Y.T @ Y))
        assert average_density_objective(cl, W) == pytest.approx(trace_form, abs=1e-10)


def test_cut_single_cluster_zero(rng):
    data, W = random_epsilon_graph(rng, 12)
    assert cut_value(labels_of([0] * 12, 1), W) == 0.0


def test_cut_disjoint_cliques_zero():
    W, truth = cliques_graph((3, 3))
    assert cut_value(truth, W) == 0.0


def test_cut_single_edge_counted_twice():
    W = from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert cut_value(labels_of([0, 1], 2), W) == pytest.approx(2.0)


def test_ratio_cut_single_cluster():
    W, _ = cliques_graph((4,))
    assert ratio_cut(labels_of([0] * 4, 1), W) == 0.0


def test_ratio_cut_single_edge_singletons():
    W = from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert ratio_cut(labels_of([0, 1], 2), W) == pytest.approx(2.0)


def test_ratio_cut_laplacian_identity(rng):
    for _ in range(15):
        m = int(rng.integers(6, 20))
        data, W = random_epsilon_graph(rng, m)
        r = int(rng.integers(2, 4))
        cl = random_labels(rng, m, r)
        A = W.to_dense()
        L = np.diag(A.sum(axis=1)) - A
        expect = 0.0
        for s in range(r):
            y = (cl.labels == s).astype(float)
            expect += y @ L @ y / y.sum()
        assert ratio_cut(cl, W) == pytest.approx(expect, abs=1e-8)


def test_normalized_shift_identity(rng):
    # on a degree-normalized adjacency: objective = r - normalized-Laplacian trace
    for _ in range(15):
        m = int(rng.integers(8, 24))
        data, W = random_epsilon_graph(rng, m)
        if np.any(W.degrees() == 0):
            continue
        Wn = symmetric_normalize(W)
        r = int(rng.integers(2, 4))
        cl = random_labels(rng, m, r)
        L_sym = np.eye(m) - Wn.to_dense()
        trace = 0.0
        for s in range(r):
            y = (cl.labels == s).astype(float)
            trace += y @ L_sym @ y / y.sum()
        assert average_density_objective(cl, Wn) == pytest.approx(r - trace, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_f_measure_perfect_match_is_one(seed, r):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(r, 20))
    cl = random_labels(rng, m, r)
    assert f_measure(cl, cl).total_f == pytest.approx(1.0)


def test_f_measure_single_cluster_against_two_classes():
    pred = labels_of([0, 0, 0, 0], 1)
    truth = labels_of([0, 0, 1, 1], 2)
    # per-class F = 2*(1/2*1)/(1/2+1) = 2/3, one class matched, divided by max(1,2)
    assert f_measure(pred, truth).total_f == pytest.approx(1.0 / 3.0)


def test_f_measure_matches_brute_force_permutations(rng):
    for _ in range(10):
        pred = random_labels(rng, 12, 4)
        truth = random_labels(rng, 12, 4)
        res = f_measure(pred, truth)
        counts = contingency_table(pred, truth).astype(float)
        pred_sizes = counts.sum(axis=1)
        truth_sizes = counts.sum(axis=0)
        scores = np.zeros((4, 4))
        for s in range(4):
            for t in range(4):
                if counts[s, t]:
                    pre = counts[s, t] / pred_sizes[s]
                    rec = counts[s, t] / truth_sizes[t]
                    scores[s, t] = 2 * pre * rec / (pre + rec)
        best = max(
            sum(scores[i, p[i]] for i in range(4))
            for p in itertools.permutations(range(4))
        )
        assert res.total_f == pytest.approx(best / 4.0, abs=1e-12)


def test_f_measure_noise_hurts_recall():
    truth = labels_of([0, 0, 0, 0], 1)
    pred = Clustering(labels=np.array([0, 0, 0, -1]), n_clusters=1)
    # precision 1, recall 3/4 -> F = 6/7
    assert f_measure(pred, truth).total_f == pytest.approx(6.0 / 7.0)


def test_f_measure_all_noise_scores_zero():
    truth = labels_of([0, 0, 1, 1], 2)
    pred = Clustering(labels=np.full(4, -1), n_clusters=0)
    assert f_measure(pred, truth).total_f == 0.0


def test_f_measure_rejects_noisy_truth():
    truth = Clustering(labels=np.array([0, -1]), n_clusters=1)
    pred = labels_of([0, 0], 1)
    with pytest.raises(MetricError, match="noise"):
        f_measure(pred, truth)


def test_f_measure_length_mismatch():
    with pytest.raises(MetricError, match="mismatch"):
        f_measure(labels_of([0], 1), labels_of([0, 0], 1))


def test_contingency_counts():
    pred = Clustering(labels=np.array([0, 0, 1, 1, -1]), n_clusters=2)
    truth = labels_of([0, 1, 0, 1, 1], 2)
    table = contingency_table(pred, truth)
    assert table.dtype == np.int64
    assert np.array_equal(table, [[1, 1], [1, 1]])  # the noise point counts nowhere


def test_contingency_ignores_noise_on_either_side():
    pred = Clustering(labels=np.array([0, 0, 1, 1, -1, 1]), n_clusters=2)
    truth = Clustering(labels=np.array([0, -1, 1, 1, 0, -1]), n_clusters=2)
    assert np.array_equal(contingency_table(pred, truth), [[1, 0], [0, 2]])


def test_nmi_identical():
    cl = labels_of([0, 1, 0, 1, 2], 3)
    assert nmi(cl, cl) == pytest.approx(1.0)


def test_nmi_independent_grid_labelings():
    # 4x4 grid: row index and column index are independent
    rows, cols = [], []
    for i in range(4):
        for j in range(4):
            rows.append(i)
            cols.append(j)
    assert nmi(labels_of(rows, 4), labels_of(cols, 4)) <= 1e-12


def test_nmi_single_cluster_cases():
    ones = labels_of([0, 0, 0], 1)
    assert nmi(ones, ones) == 1.0
    two = labels_of([0, 1, 0], 2)
    assert nmi(ones, two) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nmi_bounds_and_relabeling_invariance(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 24))
    a = random_labels(rng, m, int(rng.integers(2, 5)))
    b = random_labels(rng, m, int(rng.integers(2, 5)))
    val = nmi(a, b)
    assert 0.0 <= val <= 1.0
    perm = rng.permutation(a.n_clusters)
    relabeled = Clustering(labels=perm[a.labels], n_clusters=a.n_clusters)
    assert nmi(relabeled, b) == pytest.approx(val, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 80), st.integers(0, 12), st.integers(1, 12),
       st.booleans())
@example(seed=0, m=2, r=0, r_true=1, noisy=True)
@example(seed=1, m=60, r=6, r_true=1, noisy=False)
@example(seed=5, m=40, r=12, r_true=2, noisy=False)
def test_nmi_bit_identical_to_unique_counts(seed, m, r, r_true, noisy):
    # empty clusters, noise on either side, and categories absent from one
    # side; eight or more rows or columns change numpy's summation order
    # unless the table is C-ordered
    rng = np.random.default_rng(seed)
    pred = rng.integers(-1 if noisy or r == 0 else 0, r, size=m)
    truth = rng.integers(-1 if noisy else 0, r_true, size=m)
    a, b = Clustering(pred, r), Clustering(truth, r_true)
    assert nmi(a, b) == reference_nmi(a, b)
    assert nmi(b, a) == reference_nmi(b, a)


def test_hungarian_identity():
    assert hungarian(np.eye(3), maximize=True) == {0: 0, 1: 1, 2: 2}


def test_hungarian_small_example():
    mapping = hungarian(np.array([[1.0, 2.0], [2.0, 4.0]]), maximize=True)
    assert mapping == {0: 0, 1: 1}


def test_hungarian_matches_brute_force(rng):
    for _ in range(25):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 8))
        scores = rng.uniform(0, 1, size=(rows, cols))
        mapping = hungarian(scores, maximize=True)
        got = sum(scores[s, t] for s, t in mapping.items())
        best, _ = brute_force_assignment(scores, maximize=True)
        assert got == pytest.approx(best, abs=1e-12)


def f_score_matrix(rng, rows, cols):
    """The F matrix of random labelings: mostly zeros, with exact ties."""
    if rows == 0 or cols == 0:
        return np.zeros((rows, cols))
    m = int(rng.integers(1, 12))
    pred = Clustering(rng.integers(0, rows, size=m), rows)
    truth = Clustering(rng.integers(0, cols, size=m), cols)
    counts = contingency_table(pred, truth).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        pre = counts / counts.sum(axis=1, keepdims=True)
        rec = counts / counts.sum(axis=0)
        return np.where(counts > 0, 2 * pre * rec / (pre + rec), 0.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8),
       st.sampled_from(["uniform", "ties", "f-scores", "signed"]), st.booleans(),
       st.integers(0, 2**32 - 1))
@example(rows=0, cols=3, kind="uniform", maximize=False, seed=0)
@example(rows=4, cols=0, kind="ties", maximize=True, seed=0)
def test_hungarian_matches_linear_sum_assignment(rows, cols, kind, maximize, seed):
    from scipy.optimize import linear_sum_assignment  # the oracle

    rng = np.random.default_rng(seed)
    if kind == "uniform":
        scores = rng.uniform(0, 1, size=(rows, cols))
    elif kind == "ties":
        scores = rng.integers(0, 3, size=(rows, cols)).astype(float)
    elif kind == "f-scores":
        scores = f_score_matrix(rng, rows, cols)
    else:
        scores = rng.normal(0, 3, size=(rows, cols))
    mapping = hungarian(scores, maximize=maximize)
    assert list(mapping) == sorted(mapping)
    assert len(mapping) == min(rows, cols)
    assert len(set(mapping.values())) == len(mapping)
    assert all(0 <= s < rows and 0 <= t < cols for s, t in mapping.items())
    got = sum(scores[s, t] for s, t in mapping.items())
    best_rows, best_cols = linear_sum_assignment(scores, maximize=maximize)
    assert abs(got - scores[best_rows, best_cols].sum()) <= 1e-12


@pytest.mark.parametrize("maximize", [True, False])
@pytest.mark.parametrize("tall", [False, True])
def test_hungarian_extreme_scores_do_not_overflow(maximize, tall):
    # the costs span 2e308; lifting them without halving first would give inf
    scores = np.array([[1e308, -1e308, 0.0], [-1e308, 1e308, 5.0]])
    expected = {0: 0, 1: 1} if maximize else {0: 1, 1: 0}
    if tall:
        scores = scores.T
        expected = dict(sorted((t, s) for s, t in expected.items()))
    with np.errstate(over="raise", invalid="raise"):
        assert hungarian(scores, maximize=maximize) == expected


def test_hungarian_beats_spot_mappings(rng):
    scores = rng.uniform(0, 1, size=(4, 4))
    mapping = hungarian(scores, maximize=True)
    got = sum(scores[s, t] for s, t in mapping.items())
    for p in itertools.permutations(range(4)):
        assert got >= sum(scores[i, p[i]] for i in range(4)) - 1e-12


def test_hungarian_rejects_nonfinite():
    with pytest.raises(MetricError):
        hungarian(np.array([[np.nan]]))


@pytest.mark.parametrize("call, match", [
    (lambda: density(np.ones(2), cliques_graph((3,))[0]), r"vector length \(2,\) does not match"),
    (lambda: average_density_objective(labels_of([0, 0], 1), cliques_graph((3,))[0]),
     "dimension mismatch"),
    (lambda: average_density_objective(labels_of([0, 0, 0], 2), cliques_graph((3,))[0]),
     "cluster 1 is empty"),
    (lambda: contingency_table(labels_of([0], 1), labels_of([0, 0], 1)), "length mismatch: 1 vs 2"),
    (lambda: f_measure(labels_of([], 0), labels_of([], 0)), "ground truth has no classes"),
    (lambda: nmi(labels_of([0], 1), labels_of([0, 0], 1)), "length mismatch: 1 vs 2"),
    (lambda: nmi(labels_of([], 0), labels_of([], 0)), "empty clusterings"),
    (lambda: hungarian(np.ones(3)), r"score matrix must be 2-d, got shape \(3,\)"),
], ids=["density-length", "objective-length", "objective-empty-cluster", "contingency-length",
        "f-no-classes", "nmi-length", "nmi-empty", "hungarian-1d"])
def test_metrics_reject_bad_arguments(call, match):
    with pytest.raises(MetricError, match=match):
        call()
