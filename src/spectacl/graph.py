"""Neighborhood graphs from point data: epsilon-ball and kNN adjacency, degree
normalization, and the quantile heuristic that picks the ball radius.

Neighborhoods come from `scipy.spatial.cKDTree` queries, so no m x m matrix is
ever formed.  The tree includes the ball boundary and rounds in its own way, so
each query asks for a radius widened by TREE_SLACK and the candidates are
filtered on the per-pair distance formula of `_distances` with the strict "<"
rule.  The results equal those of a dense distance matrix built with the same
formula, bit for bit.  Coincident points (distance 0) are neighbors of each
other in every graph and count toward every neighbor count; a point is never
its own neighbor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .dataio import DataMatrix, EdgeList

# Multiplicative nudge so that a radius derived from an observed distance still
# admits that distance under the strict "<" neighborhood rule.
RADIUS_NUDGE = 1.0 + 2.0 ** -40
# Relative widening of every tree query radius; far above the rounding gap
# between the tree's distances and those of `_distances`.
TREE_SLACK = 1.0 + 1e-9


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
        if (mat != mat.T).nnz != 0:
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
    """
    diff = X[rows] - X[cols]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def epsilon_graph(data: DataMatrix, radius: float) -> SparseSymmetricMatrix:
    """Unweighted graph connecting distinct points j != l at distance d < radius
    (strict).  Coincident points (d = 0) are neighbors."""
    if not np.isfinite(radius) or radius <= 0:
        raise GraphError(f"radius must be positive and finite, got {radius}")
    X = data.values
    pairs = cKDTree(X).query_pairs(radius * TREE_SLACK, output_type="ndarray")
    pairs = pairs[_distances(X, pairs[:, 0], pairs[:, 1]) < radius]
    # a view, so the only array of ones is the one _undirected concatenates
    return _undirected(pairs, np.broadcast_to(1.0, len(pairs)), data.m)


def _undirected(pairs: np.ndarray, weights: np.ndarray, n: int) -> SparseSymmetricMatrix:
    """n x n matrix with weights[i] at (j, l) and at (l, j) for each row (j, l)
    of the E x 2 array pairs; repeated pairs sum."""
    j, l = pairs.T
    mat = sp.csr_matrix(
        (np.concatenate([weights, weights]), (np.concatenate([j, l]), np.concatenate([l, j]))),
        shape=(n, n),
    )
    return SparseSymmetricMatrix(mat)


def _nearest_candidates(data: DataMatrix, k: int):
    """Per point, every other point that can be among its k nearest.

    The tree finds each point's k-th neighbor distance, then a ball slightly
    wider than it collects all points tied with (or, in the tree's arithmetic,
    rounded past) that neighbor.  Returns (rows, cols, dist, starts): the
    candidate pairs sorted by (row, exact distance, col), and the offset of
    each row's first candidate.  Each row has at least k candidates, and its
    first k are its k nearest with ties broken toward the lowest index.
    """
    X = data.values
    tree = cKDTree(X)
    # k + 1 nearest, self included: the last one is the k-th distance to others
    nearest, _ = tree.query(X, k=k + 1)
    balls = tree.query_ball_point(X, nearest[:, k] * TREE_SLACK, return_sorted=False)
    counts = np.fromiter((len(b) for b in balls), dtype=np.intp, count=data.m)
    rows = np.repeat(np.arange(data.m), counts)
    cols = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp, count=counts.sum())
    others = rows != cols  # self is never its own neighbor
    rows, cols = rows[others], cols[others]
    dist = _distances(X, rows, cols)
    order = np.lexsort((cols, dist, rows))
    rows, cols, dist = rows[order], cols[order], dist[order]
    starts = np.searchsorted(rows, np.arange(data.m))
    return rows, cols, dist, starts


def knn_graph(data: DataMatrix, k: int) -> SparseSymmetricMatrix:
    """Symmetrized k-nearest-neighbor graph (A + A^T)/2 with weights in {0, 1/2, 1}.

    Ties at the k-th distance break toward the lowest point index, so the
    result is independent of input permutation quirks and platform.
    """
    m = data.m
    if not 1 <= k < m:
        raise GraphError(f"need 1 <= k < m, got k={k}, m={m}")
    rows, cols, _, starts = _nearest_candidates(data, k)
    picked = (starts[:, None] + np.arange(k)).ravel()
    A = sp.csr_matrix((np.ones(picked.size), (rows[picked], cols[picked])), shape=(m, m))
    return SparseSymmetricMatrix((A + A.T) / 2.0)


def symmetric_normalize(W: SparseSymmetricMatrix) -> SparseSymmetricMatrix:
    """Scale entries to W[j,l] / sqrt(deg_j * deg_l); zero-degree rows stay zero."""
    if W.nnz and np.any(W.matrix.data < 0):
        raise GraphError("symmetric normalization needs nonnegative weights")
    deg = W.degrees()
    inv_sqrt = np.zeros_like(deg)
    pos = deg > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    coo = W.matrix.tocoo()
    # entry-wise s_j*s_l factor keeps exact symmetry (float multiply commutes)
    data = coo.data * (inv_sqrt[coo.row] * inv_sqrt[coo.col])
    out = sp.csr_matrix((data, (coo.row, coo.col)), shape=W.matrix.shape)
    return SparseSymmetricMatrix(out)


def kth_neighbor_distances(data: DataMatrix, neighbor_count: int) -> np.ndarray:
    """Per point, the distance to its neighbor_count-th nearest other point
    (coincident points count, at distance 0)."""
    m = data.m
    if not 1 <= neighbor_count < m:
        raise GraphError(f"neighbor_count must be in [1, m), got {neighbor_count} with m={m}")
    _, _, dist, starts = _nearest_candidates(data, neighbor_count)
    return dist[starts + neighbor_count - 1]


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
    return _undirected(edges.pairs, edges.weights, edges.node_count)
