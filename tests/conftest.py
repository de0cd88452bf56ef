"""Shared builders and brute-force oracles used across the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.spatial

from spectacl import eigen
from spectacl.dataio import DataMatrix
from spectacl.eigen import EigenPairs, EigenSolverError
from spectacl.graph import SparseSymmetricMatrix
from spectacl.kmeans import (
    MAX_ITER,
    NOISE,
    Clustering,
    ClusteringError,
    KMeansResult,
)
from spectacl.metrics import MetricError


def from_dense(arr) -> SparseSymmetricMatrix:
    """A dense symmetric array as a SparseSymmetricMatrix."""
    return SparseSymmetricMatrix(sp.csr_matrix(np.asarray(arr, dtype=np.float64)))


def assert_same_csr(a: SparseSymmetricMatrix, b: SparseSymmetricMatrix) -> None:
    """The two matrices have equal CSR arrays (indptr, indices, data)."""
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a.matrix, attr), getattr(b.matrix, attr))


def cliques_graph(sizes):
    """Disjoint cliques of the given sizes, plus the ground-truth clustering."""
    m = int(sum(sizes))
    A = np.zeros((m, m))
    labels = []
    off = 0
    for i, s in enumerate(sizes):
        A[off : off + s, off : off + s] = np.ones((s, s)) - np.eye(s)
        labels.extend([i] * s)
        off += s
    truth = Clustering(labels=np.array(labels, dtype=np.int64), n_clusters=len(sizes))
    return from_dense(A), truth


def random_points(rng, m, n=2, scale=1.0):
    return DataMatrix(rng.uniform(-scale, scale, size=(m, n)))


def random_epsilon_graph(rng, m, target_degree=6):
    """Random point cloud plus an epsilon graph with roughly target_degree edges per node."""
    from spectacl.graph import epsilon_graph, kth_neighbor_distances

    data = random_points(rng, m)
    k = min(target_degree, m - 1)
    radius = float(np.median(kth_neighbor_distances(data, k))) * 1.1
    return data, epsilon_graph(data, radius)


def pairwise_distances(data: DataMatrix) -> np.ndarray:
    """Dense m x m Euclidean distance matrix: the oracle for every neighborhood
    query in spectacl.graph.

    Computed with the plain per-pair difference formula (not the expanded
    inner-product shortcut), so values near a ball boundary are not perturbed
    by cancellation and the matrix is exactly symmetric.
    """
    X = data.values
    m = X.shape[0]
    out = np.empty((m, m), dtype=np.float64)
    for j in range(m):
        diff = X - X[j]
        out[j] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return out


def dense_epsilon_graph(data, radius):
    """Indicator of d < radius off the diagonal (coincident points included)."""
    d = pairwise_distances(data)
    return ((d < radius) & ~np.eye(data.m, dtype=bool)).astype(float)


def dense_kth_neighbor_distances(data, k):
    """Per point, the k-th smallest distance to the other points."""
    d = pairwise_distances(data)
    return np.array([np.partition(np.delete(d[j], j), k - 1)[k - 1] for j in range(data.m)])


def dense_knn_graph(data, k):
    """(A + A^T)/2 where A[j] marks the k others first in (distance, index) order."""
    d = pairwise_distances(data)
    m = data.m
    A = np.zeros((m, m))
    idx = np.arange(m)
    for j in range(m):
        row = d[j].copy()
        row[j] = np.inf  # self is never its own neighbor
        A[j, np.lexsort((idx, row))[:k]] = 1.0
    return (A + A.T) / 2.0


def flood_fill_dbscan(data, epsilon, min_pts):
    """DBSCAN by flood fill over the dense "inside the ball" matrix: clusters
    numbered in order of their lowest core index, border points joining their
    lowest-index core neighbor."""
    m = data.m
    inside = pairwise_distances(data) < epsilon
    np.fill_diagonal(inside, False)
    core = inside.sum(axis=1) >= min_pts

    labels = np.full(m, NOISE, dtype=np.int64)
    next_id = 0
    for start in range(m):
        if not core[start] or labels[start] != NOISE:
            continue
        labels[start] = next_id
        frontier = [start]
        while frontier:
            j = frontier.pop()
            for l in np.flatnonzero(inside[j] & core):
                if labels[l] == NOISE:
                    labels[l] = next_id
                    frontier.append(int(l))
        next_id += 1

    for j in range(m):
        if labels[j] != NOISE or core[j]:
            continue
        reachable = np.flatnonzero(inside[j] & core)
        if reachable.size:
            labels[j] = labels[reachable[0]]
    return Clustering(labels=labels, n_clusters=next_id)


def point_cloud(seed, m, kind):
    """Seeded point cloud of one of three kinds: uniform reals, points on a
    small integer lattice (many exact boundary distances and k-th neighbor
    ties), or a few distinct points repeated (coincident points)."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return DataMatrix(rng.uniform(-1, 1, size=(m, 2)))
    if kind == "lattice":
        return DataMatrix(rng.integers(0, 6, size=(m, 2)).astype(float))
    pool = rng.uniform(-1, 1, size=(max(1, m // 3), 2))
    return DataMatrix(pool[rng.integers(0, pool.shape[0], size=m)])


def dense_objective(labels, A, r):
    """Average-density objective computed directly on a dense matrix."""
    total = 0.0
    for s in range(r):
        y = (labels == s).astype(float)
        size = y.sum()
        if size == 0:
            return -np.inf
        total += y @ A @ y / size
    return total


def exhaustive_best_density(A, r=2):
    """Maximum of the average-density objective over all partitions into r
    nonempty clusters (point 0 pinned to cluster 0 to quotient out relabeling)."""
    m = A.shape[0]
    assert r == 2, "oracle implemented for bipartitions"
    best = -np.inf
    for bits in range(2 ** (m - 1)):
        labels = np.zeros(m, dtype=np.int64)
        for j in range(1, m):
            labels[j] = (bits >> (j - 1)) & 1
        if not (labels == 1).any():
            continue
        best = max(best, dense_objective(labels, A, 2))
    return best


def scatter_inertia(X, labels, r):
    """Within-cluster scatter about exact means; -inf flag for empty clusters."""
    total = 0.0
    for s in range(r):
        members = X[labels == s]
        if members.shape[0] == 0:
            return np.inf
        total += float(((members - members.mean(axis=0)) ** 2).sum())
    return total


def exhaustive_best_inertia(X, r=2):
    """Minimum within-cluster scatter over all bipartitions with both sides nonempty."""
    m = X.shape[0]
    assert r == 2
    best = np.inf
    for bits in range(2 ** (m - 1)):
        labels = np.zeros(m, dtype=np.int64)
        for j in range(1, m):
            labels[j] = (bits >> (j - 1)) & 1
        if not (labels == 1).any():
            continue
        best = min(best, scatter_inertia(X, labels, 2))
    return best


def brute_force_assignment(scores, maximize=True):
    """Optimal injective row-to-column assignment by enumeration."""
    rows, cols = scores.shape
    sign = 1.0 if maximize else -1.0
    if rows <= cols:
        best_val, best_map = -np.inf, None
        for combo in itertools.permutations(range(cols), rows):
            val = sum(sign * scores[i, c] for i, c in enumerate(combo))
            if val > best_val:
                best_val = val
                best_map = {i: c for i, c in enumerate(combo)}
        return sign * best_val, best_map
    val, inv = brute_force_assignment(scores.T, maximize)
    return val, {c: i for i, c in inv.items()}


def reference_nmi(pred: Clustering, truth: Clustering) -> float:
    """NMI from a joint table of the occupied labels only, noise as its own
    label, counted with np.unique and np.add.at: the value `metrics.nmi` must
    reproduce bit for bit."""
    _, a = np.unique(pred.labels, return_inverse=True)
    _, b = np.unique(truth.labels, return_inverse=True)
    joint = np.zeros((a.max() + 1, b.max() + 1), dtype=np.int64)
    np.add.at(joint, (a, b), 1)
    pij = joint / pred.m
    pi = pij.sum(axis=1)
    pj = pij.sum(axis=0)
    h_pred = -float(np.sum(pi[pi > 0] * np.log(pi[pi > 0])))
    h_truth = -float(np.sum(pj[pj > 0] * np.log(pj[pj > 0])))
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0
    nonzero = pij > 0
    outer = np.outer(pi, pj)
    info = float(np.sum(pij[nonzero] * np.log(pij[nonzero] / outer[nonzero])))
    return float(min(1.0, max(0.0, info / ((h_pred + h_truth) / 2.0))))


# --- spectral oracles ------------------------------------------------------------

def full_dense_eigs(matrix) -> EigenPairs:
    """All eigenpairs of a dense symmetric matrix, sorted by |eigenvalue| with
    the sign convention of truncated_eigs: the reference the solver is tested
    against."""
    A = np.asarray(matrix, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise EigenSolverError(f"matrix is not square: {A.shape}")
    if not np.array_equal(A, A.T):
        raise EigenSolverError("matrix is not symmetric")
    return eigen._canonical(*np.linalg.eigh(A))


def projected_density_check(W: SparseSymmetricMatrix, pairs: EigenPairs):
    """Per eigenpair, (|lambda|, Rayleigh quotient of the absolute eigenvector).

    For nonnegative W every returned pair satisfies density >= |lambda| (up to
    roundoff); callers assert that bound.
    """
    if W.dim != pairs.vectors.shape[0]:
        raise ValueError(
            f"dimension mismatch: W is {W.dim}, eigenvectors have {pairs.vectors.shape[0]} rows"
        )
    out = []
    for i in range(pairs.d):
        u = np.abs(pairs.vectors[:, i])
        delta = float(u @ (W.matrix @ u)) / float(u @ u)
        out.append((float(abs(pairs.values[i])), delta))
    return out


@pytest.fixture
def no_dense_fallback(monkeypatch):
    """Force truncated_eigs onto its iterative path at every size."""
    monkeypatch.setattr(eigen, "DENSE_FALLBACK_DIM", 0)


# --- objectives used only as cross-checks ---------------------------------------

def cut_value(clustering: Clustering, W: SparseSymmetricMatrix) -> float:
    """Sum over clusters of y'W(1-y): inter-cluster weight, counted from both sides."""
    if clustering.m != W.dim:
        raise MetricError("clustering and matrix dimension mismatch")
    ones = np.ones(W.dim)
    total = 0.0
    for s in range(clustering.n_clusters):
        y = clustering.indicator(s)
        total += float(y @ (W.matrix @ (ones - y)))
    return total


def ratio_cut(clustering: Clustering, W: SparseSymmetricMatrix) -> float:
    """Cut of each cluster divided by its size, summed."""
    if clustering.m != W.dim:
        raise MetricError("clustering and matrix dimension mismatch")
    ones = np.ones(W.dim)
    total = 0.0
    for s in range(clustering.n_clusters):
        y = clustering.indicator(s)
        size = float(y.sum())
        if size == 0.0:
            raise MetricError(f"cluster {s} is empty")
        total += float(y @ (W.matrix @ (ones - y))) / size
    return total


# --- k-means oracle --------------------------------------------------------------

def reference_kmeans(data, r, restarts=10, seed=0):
    """The earlier Lloyd loop, kept as the oracle for spectacl.kmeans.kmeans.

    It computes every point's squared distance to its centroid and the inertia
    on every iteration, and takes the result's inertia and iteration count
    from that history.  Same seeding streams, restarts and tie rules as
    kmeans.  Returns (KMeansResult, number of empty clusters reseeded).
    """
    best, repairs = None, 0
    for result, reseeded in reference_restarts(data, r, restarts, seed):
        repairs += reseeded
        if best is None or result.inertia < best.inertia:
            best = result
    return best, repairs


def reference_restarts(data, r, restarts=10, seed=0):
    """(KMeansResult, number of empty clusters reseeded) of every restart of
    reference_kmeans, in restart order."""
    X = np.asarray(data, dtype=np.float64)
    return [_reference_lloyd(X, reference_kmeanspp_init(X, r, np.random.default_rng(child)))
            for child in np.random.SeedSequence(seed).spawn(restarts)]


def reference_kmeanspp_init(X, r, rng):
    """The earlier k-means++ seeding loop, kept as the oracle for
    spectacl.kmeans._kmeanspp_init: it also updates the squared distances
    after the last center is drawn, which nothing reads."""
    m = X.shape[0]
    first = int(rng.integers(m))
    centers = np.empty((r, X.shape[1]), dtype=np.float64)
    centers[0] = X[first]
    d2 = _reference_sq_dist(X, centers[0])
    for i in range(1, r):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=d2 / total))
        centers[i] = X[idx]
        d2 = np.minimum(d2, _reference_sq_dist(X, centers[i]))
    return centers


def _reference_sq_dist(X, c):
    diff = X - c
    return np.einsum("ij,ij->i", diff, diff)


def _reference_assign(X, centers):
    """Nearest centroid of every point (lowest index on ties) and its squared
    distance to it."""
    dist2 = np.column_stack([_reference_sq_dist(X, c) for c in centers])
    labels = np.argmin(dist2, axis=1)
    return labels, dist2[np.arange(X.shape[0]), labels]


def _reference_lloyd(X, centers):
    r = centers.shape[0]
    centers = centers.copy()
    prev_labels = None
    history = []
    reseeded = 0
    for _ in range(MAX_ITER):
        labels, cost = _reference_assign(X, centers)
        reseeded += _reference_repair_empty(X, centers, labels, cost)
        inertia = 0.0
        for i in range(r):
            members = X[labels == i]
            centers[i] = members.mean(axis=0)
            diff = members - centers[i]
            inertia += float(np.einsum("ij,ij->", diff, diff))
        history.append(inertia)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
    result = KMeansResult(
        clustering=Clustering(labels=labels, n_clusters=r),
        centroids=centers,
        inertia=history[-1],
        iterations=len(history),
    )
    return result, reseeded


def _reference_repair_empty(X, centers, labels, cost):
    """Reseed empty clusters in place from the eagerly computed cost; returns
    how many were reseeded."""
    counts = np.bincount(labels, minlength=centers.shape[0])
    reseeded = 0
    while np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0])
        movable = np.where(counts[labels] > 1, cost, -np.inf)
        pick = int(np.argmax(movable))
        if movable[pick] == -np.inf:
            raise ClusteringError("cannot repair empty cluster: too few distinct points")
        counts[labels[pick]] -= 1
        labels[pick] = empty
        counts[empty] = 1
        centers[empty] = X[pick]
        cost[pick] = 0.0
        reseeded += 1
    return reseeded


def labeling_inertia(data: np.ndarray, clustering: Clustering) -> float:
    """Within-cluster scatter of an arbitrary labeling about exact cluster means."""
    X = np.asarray(data, dtype=np.float64)
    total = 0.0
    for s in range(clustering.n_clusters):
        members = X[clustering.labels == s]
        if members.shape[0] == 0:
            raise ClusteringError(f"cluster {s} is empty")
        diff = members - members.mean(axis=0)
        total += float(np.einsum("ij,ij->", diff, diff))
    return total


def trace_objective(data: np.ndarray, clustering: Clustering) -> float:
    """Between-cluster trace value: sum over clusters of |sum of rows|^2 / size.

    Satisfies the identity total scatter = within-cluster scatter + trace value.
    """
    X = np.asarray(data, dtype=np.float64)
    if X.shape[0] != clustering.m:
        raise ClusteringError("data and clustering length mismatch")
    total = 0.0
    for s in range(clustering.n_clusters):
        members = X[clustering.labels == s]
        if members.shape[0] == 0:
            raise ClusteringError(f"cluster {s} is empty")
        colsum = members.sum(axis=0)
        total += float(colsum @ colsum) / members.shape[0]
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def tree_calls(monkeypatch):
    """Counts of the cKDTree queries made through spectacl.graph, by method.

    graph imports cKDTree when it builds a tree, so the patch goes on
    scipy.spatial, where that import finds it."""
    calls = {"query": 0, "query_ball_point": 0}

    class CountingTree(scipy.spatial.cKDTree):
        def query(self, *args, **kwargs):
            calls["query"] += 1
            return super().query(*args, **kwargs)

        def query_ball_point(self, *args, **kwargs):
            calls["query_ball_point"] += 1
            return super().query_ball_point(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    return calls
