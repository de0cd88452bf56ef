"""Neighborhood graphs from point data: epsilon-ball and kNN adjacency, degree
normalization, and the quantile heuristic that picks the ball radius."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dataio import DataMatrix, EdgeList

# Multiplicative nudge so that a radius derived from an observed distance still
# admits that distance under the strict "<" neighborhood rule.
RADIUS_NUDGE = 1.0 + 2.0 ** -40


class GraphError(ValueError):
    """Invalid graph construction input."""


@dataclass(frozen=True)
class SparseSymmetricMatrix:
    """Symmetric real matrix in CSR storage.

    Adjacency matrices built by this module additionally have a zero diagonal;
    shifted matrices (e.g. c*I + W) may carry diagonal entries.
    """

    matrix: sp.csr_matrix

    def __post_init__(self):
        mat = sp.csr_matrix(self.matrix, dtype=np.float64)
        mat.sum_duplicates()
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

    @classmethod
    def from_dense(cls, arr) -> "SparseSymmetricMatrix":
        return cls(sp.csr_matrix(np.asarray(arr, dtype=np.float64)))

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def degrees(self) -> np.ndarray:
        """Row sums (weighted node degrees)."""
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def add_scaled_identity(self, c: float) -> "SparseSymmetricMatrix":
        """Return c*I + self."""
        return SparseSymmetricMatrix(
            (sp.identity(self.dim, format="csr") * c + self.matrix).tocsr()
        )


def pairwise_distances(data: DataMatrix) -> np.ndarray:
    """Dense m x m Euclidean distance matrix.

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


def epsilon_graph(data: DataMatrix, radius: float) -> SparseSymmetricMatrix:
    """Unweighted graph connecting points at distance 0 < d < radius (strict)."""
    if not np.isfinite(radius) or radius <= 0:
        raise GraphError(f"radius must be positive and finite, got {radius}")
    dmat = pairwise_distances(data)
    mask = (dmat > 0.0) & (dmat < radius)
    return SparseSymmetricMatrix(sp.csr_matrix(mask.astype(np.float64)))


def knn_graph(data: DataMatrix, k: int) -> SparseSymmetricMatrix:
    """Symmetrized k-nearest-neighbor graph (A + A^T)/2 with weights in {0, 1/2, 1}.

    Ties at the k-th distance break toward the lowest point index, so the
    result is independent of input permutation quirks and platform.
    """
    m = data.m
    if not 1 <= k < m:
        raise GraphError(f"need 1 <= k < m, got k={k}, m={m}")
    dmat = pairwise_distances(data)
    A = np.zeros((m, m), dtype=np.float64)
    idx = np.arange(m)
    for j in range(m):
        d = dmat[j].copy()
        d[j] = np.inf  # self is never its own neighbor
        order = np.lexsort((idx, d))
        A[j, order[:k]] = 1.0
    W = (A + A.T) / 2.0
    return SparseSymmetricMatrix(sp.csr_matrix(W))


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
    """Per point, the distance to its neighbor_count-th nearest other point."""
    m = data.m
    if neighbor_count >= m:
        raise GraphError(f"neighbor_count must be < m, got {neighbor_count} with m={m}")
    dmat = pairwise_distances(data)
    out = np.empty(m, dtype=np.float64)
    for j in range(m):
        others = np.delete(dmat[j], j)
        out[j] = np.partition(others, neighbor_count - 1)[neighbor_count - 1]
    return out


def choose_epsilon(data: DataMatrix, neighbor_count: int = 10, coverage: float = 0.9) -> float:
    """Smallest ball radius giving a coverage fraction of points at least
    neighbor_count neighbors, nudged up so the defining neighbor survives the
    strict "<" rule.

    Defaults reproduce the usual protocol: 90% of points get ten neighbors.
    """
    if not 0.0 < coverage <= 1.0:
        raise GraphError(f"coverage must be in (0, 1], got {coverage}")
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
    rows, cols, vals = [], [], []
    for j, l, w in edges.edges:
        rows.extend((j, l))
        cols.extend((l, j))
        vals.extend((w, w))
    mat = sp.csr_matrix(
        (np.asarray(vals, dtype=np.float64), (rows, cols)),
        shape=(edges.node_count, edges.node_count),
    )
    return SparseSymmetricMatrix(mat)
