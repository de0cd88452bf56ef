"""End-to-end clustering pipelines.

spectacl: adjacency matrix -> truncated eigendecomposition by |eigenvalue| ->
nonnegative sqrt-scaled embedding -> k-means.  The unnormalized variant builds
an epsilon-ball graph (radius given or chosen by the 90%/10-neighbor rule);
the normalized variant builds a symmetrized kNN graph and degree-normalizes
it.

spectral_clustering: the classical baseline on the same kNN graph; the r
bottom eigenvectors of the normalized Laplacian L = I - W_normalized, all
kept, k-means on the rows.  Keeping all r columns matters on disconnected
graphs: with c = r components the embedding is then exactly L's kernel,
whose vector for component C is sqrt(deg_j / vol C) on node j of C and zero
elsewhere, so every row has a single nonzero coordinate, the one of its
component, and component recovery is exact; dropping a column in favor of an
(r+1)-th one would admit a within-component eigenvector instead.  With c > r
the r largest components by volume are kept (eigen.laplacian_eigs).

dbscan: core points are those with at least min_pts other points strictly
inside the epsilon ball (the point itself never counts, coincident points do);
this is its edge count in the epsilon graph.  Clusters are the connected
components of the core subgraph (index-based DBSCAN, Ester et al. 1996;
Schubert et al. 2017), numbered by their lowest core index; border points
join their lowest-index core neighbor, the rest is noise.

Every pipeline takes either a DataMatrix, from which it builds its own graph,
or a ready-made SparseSymmetricMatrix, which it uses as that graph: each
stored entry is an edge, and a zero weight, which it never stores, is none.
It returns a PipelineResult, which carries that graph and its radius.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataio import DataMatrix
from .eigen import laplacian_eigs, truncated_eigs
from .embedding import project_embedding
from .graph import (
    GraphError,
    SparseSymmetricMatrix,
    choose_epsilon,
    components,
    epsilon_graph,
    knn_graph,
    symmetric_normalize,
)
from .kmeans import DEFAULT_RESTARTS, NOISE, Clustering, kmeans

VARIANTS = ("unnormalized", "normalized")

# The coverage-quantile radius is by construction the *smallest* radius that
# satisfies the neighbor rule, which sits at the bottom edge of the F-vs-radius
# plateau: at that density a width-50 embedding spends its columns on
# sub-cluster density bumps instead of cluster-scale structure.  Scaling the
# quantile by a fixed factor moves the operating point onto the plateau while
# keeping the heuristic's per-dataset adaptivity.  DBSCAN keeps the raw
# quantile: its core threshold is calibrated against the raw neighbor counts.
AUTO_EPSILON_SCALE = 2.0


class PipelineError(ValueError):
    """Invalid pipeline configuration or input."""


@dataclass(frozen=True)
class SpectaclConfig:
    r: int
    variant: str = "unnormalized"
    epsilon: float | None = None  # None: pick by the coverage heuristic
    knn: int = 10
    d: int = 50
    seed: int = 0
    restarts: int = DEFAULT_RESTARTS

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise PipelineError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.r < 1:
            raise PipelineError(f"need r >= 1, got {self.r}")
        if self.d < 1:
            raise PipelineError(f"need d >= 1, got {self.d}")
        if self.restarts < 1:
            raise PipelineError(f"need restarts >= 1, got {self.restarts}")
        if self.seed < 0:
            raise PipelineError(f"need seed >= 0, got {self.seed}")
        if self.epsilon is not None and (not np.isfinite(self.epsilon) or self.epsilon <= 0):
            raise PipelineError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.d < self.r:
            warnings.warn(
                f"embedding dimension d={self.d} is below the cluster count r={self.r}",
                stacklevel=3,  # past the generated __init__ to the caller
            )


@dataclass(frozen=True)
class DbscanConfig:
    epsilon: float | None = None  # None: the raw coverage quantile, choose_epsilon(data)
    min_pts: int = 10

    def __post_init__(self):
        if self.epsilon is not None and (not np.isfinite(self.epsilon) or self.epsilon <= 0):
            raise PipelineError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.min_pts < 1:
            raise PipelineError(f"need min_pts >= 1, got {self.min_pts}")


@dataclass(frozen=True)
class PipelineResult(Clustering):
    """A clustering; graph is the matrix whose average-density objective it
    optimizes (degree-normalized for spectral_clustering and the normalized
    spectacl), epsilon the radius of the epsilon graph built, else None."""

    graph: SparseSymmetricMatrix
    epsilon: float | None


def _graph(data_or_graph, build) -> tuple[SparseSymmetricMatrix, float | None]:
    """(graph, radius): a ready-made graph as is, or build(data) for point data.

    Point data is valid by construction, so a GraphError from build is an
    invalid parameter (such as k outside [1, m)) and becomes a PipelineError.
    """
    if isinstance(data_or_graph, SparseSymmetricMatrix):
        return data_or_graph, None
    if isinstance(data_or_graph, DataMatrix):
        try:
            return build(data_or_graph)
        except GraphError as exc:
            raise PipelineError(str(exc)) from exc
    raise PipelineError(
        f"expected DataMatrix or SparseSymmetricMatrix, got {type(data_or_graph).__name__}"
    )


def _ball_graph(data: DataMatrix, epsilon: float | None, scale: float):
    """(epsilon graph, radius); a radius of None is scale * choose_epsilon(data)."""
    if epsilon is None:
        epsilon = scale * choose_epsilon(data)
    return epsilon_graph(data, epsilon), epsilon


def check_cluster_count(r: int, points: int) -> None:
    """A spectral pipeline needs at least r points to make r clusters."""
    if r > points:
        raise PipelineError(f"r={r} exceeds the number of points {points}")


def check_spectral_clustering(r: int, restarts: int, seed: int) -> None:
    """The parameter checks of spectral_clustering, which has no config."""
    if r < 2:
        raise PipelineError(f"need r >= 2, got {r}")
    if restarts < 1:
        raise PipelineError(f"need restarts >= 1, got {restarts}")
    if seed < 0:
        raise PipelineError(f"need seed >= 0, got {seed}")


def _spectral_graph(data_or_graph, build, r: int) -> tuple[SparseSymmetricMatrix, float | None]:
    """(graph, radius) from _graph, checked to have at least r points.

    Warns when some rows store no entry: the graph does not place those
    points.  Normalization keeps those rows empty, so the count holds after it.
    """
    W, epsilon = _graph(data_or_graph, build)
    check_cluster_count(r, W.dim)
    isolated = int(np.count_nonzero(np.diff(W.matrix.indptr) == 0))
    if isolated:
        warnings.warn(
            f"{isolated} of {W.dim} points have no neighbors in the graph, "
            "so their cluster labels are arbitrary",
            stacklevel=3,
        )
    return W, epsilon


def spectacl(data_or_graph, config: SpectaclConfig) -> PipelineResult:
    """Averagely-dense spectral clustering into config.r clusters (no noise label)."""

    def build(data):
        if config.variant == "normalized":
            return knn_graph(data, config.knn), None
        return _ball_graph(data, config.epsilon, AUTO_EPSILON_SCALE)

    W, epsilon = _spectral_graph(data_or_graph, build, config.r)
    if config.variant == "normalized":
        W = symmetric_normalize(W)
    pairs = truncated_eigs(W, min(config.d, W.dim))
    U = project_embedding(pairs)
    clustering = kmeans(U, config.r, restarts=config.restarts, seed=config.seed).clustering
    return PipelineResult(clustering.labels, clustering.n_clusters, W, epsilon)


def spectral_clustering(
    data_or_graph,
    r: int,
    k: int = 10,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> PipelineResult:
    """Normalized-Laplacian spectral clustering baseline.

    The eigenvectors of the r smallest eigenvalues of L = I - W_normalized
    come from eigen.laplacian_eigs: one exact null vector per connected
    component with edges, largest volume first, then a solve for the rest;
    k-means runs on all r columns.  Isolated points get zero rows, unless the
    rest of the graph has fewer than r pairs (as on an edgeless graph).
    """
    check_spectral_clustering(r, restarts, seed)
    W, _ = _spectral_graph(data_or_graph, lambda data: (knn_graph(data, k), None), r)
    normalized = symmetric_normalize(W)
    pairs = laplacian_eigs(W, normalized, r)
    clustering = kmeans(pairs.vectors, r, restarts=restarts, seed=seed).clustering
    return PipelineResult(clustering.labels, clustering.n_clusters, normalized, None)


def dbscan(data_or_graph, config: DbscanConfig) -> PipelineResult:
    """Density-based clustering with core/border/noise semantics.

    The epsilon ball is strict and never counts the point itself, so a core
    point needs min_pts *other* points within the radius.  A ready-made graph
    is taken as the epsilon graph: every edge (stored entry) is a neighbor, and
    config.epsilon is not used.
    """
    graph, epsilon = _graph(data_or_graph, lambda data: _ball_graph(data, config.epsilon, 1.0))
    W = graph.matrix
    core = np.flatnonzero(np.diff(W.indptr) >= config.min_pts)
    n_clusters, component = components(W[core][:, core])
    labels = np.full(W.shape[0], NOISE, dtype=np.int64)
    labels[core] = component
    border = W[:, core]  # columns in core order, which is index order
    border.sort_indices()
    reach = np.diff(border.indptr) > 0
    reach[core] = False
    first_core = border.indices[border.indptr[:-1][reach]]  # lowest-index core neighbor
    labels[reach] = labels[core[first_core]]
    return PipelineResult(labels, n_clusters, graph, epsilon)
