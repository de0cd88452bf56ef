"""Neighborhood graphs from point data: epsilon-ball and kNN adjacency, degree
normalization, and the quantile heuristic that picks the ball radius.

Neighborhoods come from `scipy.spatial.cKDTree` queries, so no m x m matrix is
ever formed.  The tree includes the ball boundary and rounds in its own way, so
it only proposes candidates and every decision is made on the per-pair distance
formula of `_distances`: a ball query asks for a radius widened by TREE_SLACK,
and the k nearest neighbors come from a query for k + 2 points, with a ball
query only for the rows where those leave a tie open (see `_nearest`).  The
results equal those of a dense distance matrix built with the same formula,
bit for bit.  `_distances` takes its pairs in blocks whose gathered
coordinates fit in DISTANCE_BLOCK_BYTES, so besides its one result array no
temporary grows with the number of pairs times the number of columns.  The
k-nearest-neighbor table of a DataMatrix is computed once per k and kept on
it, with 32-bit indices, so `knn_graph`, `kth_neighbor_distances` and
`choose_epsilon` on one dataset share one tree query.  Coincident points
(distance 0) are neighbors of each other in every graph and count toward
every neighbor count; a point is never its own neighbor.

Epsilon and edge-list graphs are assembled from the sorted, unique keys
j * n + l of their pairs j < l: the keys give the upper triangle's CSR arrays
directly, and one transpose-add gives the lower half (see `_undirected`), with
no COO arrays in between.

`cKDTree` is imported by the two functions that build a tree, not with this
module: importing scipy.spatial takes about 0.1 s, and a run on an edge list
or a ready-made matrix never builds one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .dataio import DataMatrix, EdgeList

# Multiplicative nudge so that a radius derived from an observed distance still
# admits that distance under the strict "<" neighborhood rule.
RADIUS_NUDGE = 1.0 + 2.0 ** -40
# Relative widening of every tree query radius; far above the rounding gap
# between the tree's distances and those of `_distances`.
TREE_SLACK = 1.0 + 1e-9
# `_distances` gathers the coordinates of its pairs in blocks whose two
# pairs x n float64 arrays fit in this many bytes (at least one pair a block).
DISTANCE_BLOCK_BYTES = 1 << 20


class GraphError(ValueError):
    """Invalid graph construction input."""


@dataclass(frozen=True)
class SparseSymmetricMatrix:
    """Symmetric real matrix in canonical CSR storage, duplicates summed and no
    zeros stored, so each stored entry is an edge and a zero weight is none.
    Other input is brought to that form on a copy, never in place.

    Adjacency matrices built by this module additionally have a zero diagonal.
    """

    matrix: sp.csr_matrix

    def __post_init__(self):
        mat = sp.csr_matrix(self.matrix, dtype=np.float64)
        if not mat.has_canonical_format or not mat.data.all():
            mat = mat.copy()
            mat.sum_duplicates()
            mat.eliminate_zeros()
        if mat.shape[0] != mat.shape[1]:
            raise GraphError(f"matrix is not square: {mat.shape}")
        if mat.nnz and not np.all(np.isfinite(mat.data)):
            raise GraphError("matrix contains non-finite weights")
        flip = mat.T.tocsr()  # canonical, like mat, so equal arrays mean equal matrices
        if not all(np.array_equal(getattr(mat, a), getattr(flip, a))
                   for a in ("indptr", "indices", "data")):
            raise GraphError("matrix is not exactly symmetric")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def degrees(self) -> np.ndarray:
        """Row sums (weighted node degrees)."""
        return np.asarray(self.matrix.sum(axis=1)).ravel()


def components(matrix) -> tuple[int, np.ndarray]:
    """(count, labels) of the connected components of the undirected graph
    whose edges are the stored entries of a sparse matrix, numbered by their
    lowest member (scipy does not document its order)."""
    count, labels = connected_components(matrix, directed=False)
    _, first = np.unique(labels, return_index=True)
    return count, np.argsort(np.argsort(first))[labels]  # rank of the lowest member


def _distances(X: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Euclidean distance of each (rows[i], cols[i]) pair.

    Computed with the plain per-pair difference formula (not the expanded
    inner-product shortcut), so values near a ball boundary are not perturbed
    by cancellation and d(j, l) == d(l, j) exactly.  Every strict "<" test in
    this module is applied to these values, never to the tree's own distances.

    The pairs are taken in blocks under DISTANCE_BLOCK_BYTES, each summed
    into its slice of the result, so no temporary grows with the number of
    pairs; each pair's value is the same as a one-shot computation's.
    """
    block = max(1, DISTANCE_BLOCK_BYTES // (16 * X.shape[1]))
    out = np.empty(rows.size)
    for lo in range(0, rows.size, block):
        diff = X[rows[lo:lo + block]]
        diff -= X[cols[lo:lo + block]]
        np.einsum("ij,ij->i", diff, diff, out=out[lo:lo + block])
    return np.sqrt(out, out=out)


def epsilon_graph(data: DataMatrix, radius: float) -> SparseSymmetricMatrix:
    """Unweighted graph connecting distinct points j != l at distance d < radius
    (strict).  Coincident points (d = 0) are neighbors."""
    if not np.isfinite(radius) or radius <= 0:
        raise GraphError(f"radius must be positive and finite, got {radius}")
    X = data.values
    _check_distances_fit(X)

    def upper_keys():
        from scipy.spatial import cKDTree  # deferred: graph input never loads scipy.spatial

        pairs = cKDTree(X).query_pairs(radius * TREE_SLACK, output_type="ndarray")
        j, l = pairs.T  # j < l, each pair once
        keys = (j * data.m + l)[_distances(X, j, l) < radius]
        keys.sort()
        return keys, np.ones(keys.size)

    return _undirected(upper_keys, data.m)


def _undirected(upper_keys, n: int) -> SparseSymmetricMatrix:
    """n x n matrix with weights[i] at (j, l) and at (l, j) for each of the
    sorted, unique keys[i] = j * n + l (j < l), where (keys, weights) =
    upper_keys().

    The strict upper triangle's CSR arrays come straight from the keys: row
    starts by searchsorted against j * n, columns as key mod n.  One
    transpose-add stores each pair in both orientations, with no COO arrays
    and no second sort.  upper_keys is called here so that its arrays, and
    then the upper triangle, are freed before the next step allocates.
    """
    keys, weights = upper_keys()
    upper = sp.csr_matrix((weights, keys % n, np.searchsorted(keys, np.arange(n + 1) * n)),
                          shape=(n, n))
    del keys, weights
    mat = upper + upper.T
    del upper
    return SparseSymmetricMatrix(mat)


def _check_distances_fit(X: np.ndarray) -> None:
    """Raise GraphError unless every squared distance between rows of X is
    finite: each is at most n * (2 max|x|)^2 for n columns."""
    if 2.0 * math.sqrt(X.shape[1]) * np.abs(X).max() >= math.sqrt(np.finfo(np.float64).max):
        raise GraphError("squared distances overflow float64: rescale the data")


def _nearest(data: DataMatrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(cols, dist): m x k arrays holding each point's k nearest other points
    in (exact distance, index) order, and their `_distances`; cols is int32
    (int64 when m is too large for it), the index type of a CSR matrix.

    One tree query returns q = k + 2 candidates per point (all m points when
    m is smaller): self, k others and one more.  Sorted by (exact distance,
    index) with self last, a row is settled when its (k+1)-th distance
    exceeds its k-th by more than TREE_SLACK**2.  A point p the tree did not
    return has a tree distance at least that of every returned point, and the
    tree's distances and `_distances` differ by less than the relative
    TREE_SLACK, so d(p) >= d_(k+1) / TREE_SLACK**2 > d_k: p is farther than
    the k-th and can neither be nor tie one of the k nearest.  The other rows
    (ties at the k-th distance, or more than k + 1 points coincident with the
    row's own, so that self may be missing from the answer) collect every
    point within the tree's (k+1)-th distance, widened by TREE_SLACK, with a
    ball query, and sort those.  When q = m no point is left out, and a tied
    row's ball query finds what the tree returned.

    The table is computed once per DataMatrix and k: it is kept on the
    matrix, whose values never change, as read-only arrays, and later calls
    return it.  A call that raises keeps nothing; two threads racing on one
    k compute equal tables, and either may be kept.
    """
    known = data._neighbors.get(k)
    if known is not None:
        return known
    from scipy.spatial import cKDTree  # deferred: graph input never loads scipy.spatial

    X = data.values
    _check_distances_fit(X)
    m = data.m
    q = min(k + 2, m)
    tree = cKDTree(X)
    tree_dist, cols = tree.query(X, k=q)
    rows = np.arange(m)[:, None]
    dist = _distances(X, np.repeat(rows, q), cols.ravel()).reshape(m, q)
    dist[cols == rows] = np.inf  # self is never its own neighbor
    order = np.lexsort((cols, dist), axis=-1)
    cols = np.take_along_axis(cols, order, axis=-1)[:, :k]
    dist = np.take_along_axis(dist, order, axis=-1)
    tied = np.flatnonzero(dist[:, k] <= dist[:, k - 1] * TREE_SLACK**2)
    if tied.size:
        cols[tied], dist[tied, :k] = _nearest_in_ball(
            tree, X, tied, tree_dist[tied, k] * TREE_SLACK, k)
    index = np.int32 if m <= np.iinfo(np.int32).max else np.intp
    table = cols.astype(index), np.ascontiguousarray(dist[:, :k])
    for arr in table:
        arr.flags.writeable = False
    data._neighbors[k] = table
    return table


def _nearest_in_ball(tree, X: np.ndarray, rows: np.ndarray, radius: np.ndarray,
                     k: int) -> tuple[np.ndarray, np.ndarray]:
    """(cols, dist) as in `_nearest` for the given rows, each of whose balls
    of the given radius holds at least k points other than itself; tree is
    the cKDTree of X."""
    balls = tree.query_ball_point(X[rows], radius, return_sorted=False)
    owner = np.repeat(rows, np.fromiter(map(len, balls), dtype=np.intp, count=rows.size))
    cols = np.concatenate(balls)
    others = owner != cols  # self is never its own neighbor
    owner, cols = owner[others], cols[others]
    dist = _distances(X, owner, cols)
    order = np.lexsort((cols, dist, owner))
    picked = (np.searchsorted(owner[order], rows)[:, None] + np.arange(k)).ravel()
    return cols[order][picked].reshape(-1, k), dist[order][picked].reshape(-1, k)


def knn_graph(data: DataMatrix, k: int) -> SparseSymmetricMatrix:
    """Symmetrized k-nearest-neighbor graph (A + A^T)/2 with weights in {0, 1/2, 1},
    where row j of A marks the k points `_nearest` finds for point j.

    Ties at the k-th distance break toward the lowest point index, so the
    result is independent of input permutation quirks and platform.
    """
    m = data.m
    if not 1 <= k < m:
        raise GraphError(f"need 1 <= k < m, got k={k}, m={m}")
    cols, _ = _nearest(data, k)
    A = sp.csr_matrix((np.ones(m * k), cols.ravel(), np.arange(0, m * k + 1, k)), shape=(m, m))
    return SparseSymmetricMatrix((A + A.T) / 2.0)


def symmetric_normalize(W: SparseSymmetricMatrix) -> SparseSymmetricMatrix:
    """Scale entries to W[j,l] / sqrt(deg_j * deg_l); zero-degree rows stay zero."""
    if W.nnz and np.any(W.matrix.data < 0):
        raise GraphError("symmetric normalization needs nonnegative weights")
    deg = W.degrees()
    inv_sqrt = np.zeros_like(deg)
    pos = deg > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    mat = W.matrix
    rows = np.repeat(np.arange(W.dim), np.diff(mat.indptr))
    # entry-wise s_j*s_l factor keeps exact symmetry (float multiply commutes)
    data = mat.data * (inv_sqrt[rows] * inv_sqrt[mat.indices])
    return SparseSymmetricMatrix(sp.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape))


def kth_neighbor_distances(data: DataMatrix, neighbor_count: int) -> np.ndarray:
    """Per point, the exact distance to its neighbor_count-th nearest other
    point (coincident points count, at distance 0), from `_nearest`."""
    m = data.m
    if not 1 <= neighbor_count < m:
        raise GraphError(f"neighbor_count must be in [1, m), got {neighbor_count} with m={m}")
    _, dist = _nearest(data, neighbor_count)
    return dist[:, -1].copy()


def choose_epsilon(data: DataMatrix, neighbor_count: int = 10, coverage: float = 0.9) -> float:
    """Smallest ball radius giving a coverage fraction of points at least
    neighbor_count neighbors, nudged up so the defining neighbor survives the
    strict "<" rule.

    Defaults reproduce the usual protocol: 90% of points get ten neighbors.
    """
    if not 0.0 < coverage <= 1.0:
        raise GraphError(f"coverage must be in (0, 1], got {coverage}")
    if data.m <= neighbor_count:
        raise GraphError(f"automatic epsilon needs at least {neighbor_count + 1} points, "
                         f"got {data.m}; pass an epsilon")
    kth = kth_neighbor_distances(data, neighbor_count)
    count = min(data.m, max(1, math.ceil(coverage * data.m - 1e-9)))
    quantile = np.sort(kth)[count - 1]
    if quantile <= 0.0:
        # coincident points: any positive radius admits distance-0 neighbors
        return float(np.finfo(np.float64).tiny)
    return float(quantile * RADIUS_NUDGE)


def adjacency_from_edge_list(edges: EdgeList) -> SparseSymmetricMatrix:
    """Symmetric weighted adjacency from an undirected edge list."""
    if edges.node_count < 1:
        raise GraphError("edge list has no nodes")
    n = edges.node_count
    j, l = edges.pairs.T
    return _undirected(lambda: (j * n + l, edges.weights), n)
