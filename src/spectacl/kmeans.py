"""Lloyd's algorithm with k-means++ seeding, restarts, and deterministic ties.

Determinism rules: nearest-centroid ties go to the lowest centroid index,
centroid sums use numpy's fixed reduction order, and the per-restart random
streams are spawned from a single SeedSequence so results are reproducible
bit-for-bit and independent of thread count.  Restart streams are prefix
stable: kmeans(seed, restarts=R) explores exactly the first R spawned streams,
so adding restarts can only improve the returned inertia.

Each Lloyd assignment makes one BLAS product of the centroids with the data.
That product only screens: it settles a point whose nearest centroid wins by
more than a rounding bound, and the exact formula |x - c|^2, computed as
before, decides every other point.  So the labels are those of the exact
formula, whatever rounding the product's blocking or thread count gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NOISE = -1

DEFAULT_RESTARTS = 10
MAX_ITER = 300

# float64 rounding constants for the assignment screen's error bound
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal


class ClusteringError(ValueError):
    """Invalid clustering input or degenerate cluster structure."""


@dataclass(frozen=True)
class Clustering:
    """Hard clustering as a length-m label vector; NOISE (-1) marks unclustered points."""

    labels: np.ndarray
    n_clusters: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ClusteringError(f"labels must be 1-d, got shape {labels.shape}")
        if labels.size:
            bad = (labels != NOISE) & ((labels < 0) | (labels >= self.n_clusters))
            if np.any(bad):
                raise ClusteringError(
                    f"labels outside [0,{self.n_clusters}) and not noise: "
                    f"{np.unique(labels[bad])}"
                )
        object.__setattr__(self, "labels", labels)

    @property
    def m(self) -> int:
        return self.labels.shape[0]

    @property
    def has_noise(self) -> bool:
        return bool(np.any(self.labels == NOISE))

    def indicator(self, s: int) -> np.ndarray:
        """Binary membership vector of cluster s as floats."""
        return (self.labels == s).astype(np.float64)

    def sizes(self) -> np.ndarray:
        """Counts per cluster id 0..n_clusters-1 (noise not included)."""
        return np.bincount(self.labels[self.labels != NOISE], minlength=self.n_clusters)


@dataclass(frozen=True)
class KMeansResult:
    clustering: Clustering
    centroids: np.ndarray
    inertia: float
    iterations: int


def kmeans(
    data: np.ndarray,
    r: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> KMeansResult:
    """Best-of-restarts Lloyd clustering into r groups.

    Each restart draws a k-means++ initialization from its own spawned random
    stream and iterates to an assignment fixpoint (or MAX_ITER iterations).
    Its inertia is the within-cluster scatter of the final labels about the
    final centroids, computed once after the loop.  The result with the
    lowest inertia wins; ties keep the earliest restart.
    """
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2:
        raise ClusteringError(f"data must be 2-d, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ClusteringError("data contains non-finite entries")
    m = X.shape[0]
    if not 1 <= r <= m:
        raise ClusteringError(f"need 1 <= r <= m, got r={r}, m={m}")
    if restarts < 1:
        raise ClusteringError(f"need restarts >= 1, got {restarts}")

    best = None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        centers = _kmeanspp_init(X, r, rng)
        result = _lloyd(X, centers)
        if best is None or result.inertia < best.inertia:
            best = result
    return best


def _sq_dist(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of every row of X to the point c, or to the
    matching row of c when c has one row per point."""
    diff = X - c
    return np.einsum("ij,ij->i", diff, diff)


def _kmeanspp_init(X: np.ndarray, r: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: subsequent centers drawn proportional to squared distance."""
    m = X.shape[0]
    first = int(rng.integers(m))
    centers = np.empty((r, X.shape[1]), dtype=np.float64)
    centers[0] = X[first]
    d2 = _sq_dist(X, centers[0])
    for i in range(1, r):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=d2 / total))
        centers[i] = X[idx]
        d2 = np.minimum(d2, _sq_dist(X, centers[i]))
    return centers


def _lloyd(X: np.ndarray, centers: np.ndarray) -> KMeansResult:
    r = centers.shape[0]
    centers = centers.copy()
    Xt = np.ascontiguousarray(X.T)
    xnorm = np.sqrt(np.einsum("ij,ij->i", X, X))
    prev_labels = None
    for iterations in range(1, MAX_ITER + 1):
        labels = _nearest(X, Xt, xnorm, centers)
        labels = _repair_empty(X, centers, labels)
        for i in range(r):
            centers[i] = X[labels == i].mean(axis=0)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
    inertia = 0.0
    for i in range(r):
        diff = X[labels == i] - centers[i]
        inertia += float(np.einsum("ij,ij->", diff, diff))
    return KMeansResult(
        clustering=Clustering(labels=labels, n_clusters=r),
        centroids=centers,
        inertia=inertia,
        iterations=iterations,
    )


def _nearest(X, Xt, xnorm, centers):
    """Index of each row's nearest centre, lowest index on ties: exactly what
    np.argmin over the _sq_dist columns gives, since those decide every row
    the screen leaves open.

    Xt is X.T in C order and xnorm holds the row norms of X.  The screen
    S[k, i] = |c_k|^2 - 2 c_k.x_i, one matrix product, is |x_i - c_k|^2 less
    the row constant |x_i|^2.  Computed S and computed _sq_dist each err by at
    most gamma_{n+3} (|x_i| + |c_k|)^2, plus an absolute term where they
    underflow (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).
    So with tol_i = 4 gamma_{n+6} (|x_i| + max_k |c_k|)^2 plus that term, a
    centre whose S exceeds the row's best by more than tol_i can neither be
    nor tie the exact nearest.  The screen settles a row only when exactly one
    centre lies within tol_i of its best.  NaN counts as near, and tol_i is
    squared after doubling, so it is infinite on every row where S could
    overflow.
    """
    m, n = X.shape
    gamma = (n + 6) * _UNIT_ROUNDOFF / (1 - (n + 6) * _UNIT_ROUNDOFF)
    labels = np.zeros(m, dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):  # rows it overflows are rechecked
        csq = np.einsum("ij,ij->i", centers, centers)
        screen = (-2.0 * centers) @ Xt
        screen += csq[:, None]
        best = screen[0].copy()
        for k in range(1, centers.shape[0]):
            labels[screen[k] < best] = k  # strict: the lowest index keeps a tie
            np.minimum(best, screen[k], out=best)
        tol = gamma * (2.0 * (xnorm + np.sqrt(csq.max()))) ** 2 + 4 * (n + 6) * _SUBNORMAL
        near = np.count_nonzero(~(screen > best + tol), axis=0)
    recheck = np.flatnonzero(near != 1)
    if recheck.size:
        rows = X[recheck]
        dist2 = np.column_stack([_sq_dist(rows, c) for c in centers])
        labels[recheck] = np.argmin(dist2, axis=1)  # the first minimum: lowest index wins ties
    return labels


def _repair_empty(X, centers, labels):
    """Reseed each empty centroid at the point farthest from its assigned centroid.

    The per-point cost is computed only when some cluster is empty.  The moved
    point's cost drops to zero and nobody else moves, so the Lloyd objective
    stays non-increasing through repairs.
    """
    counts = np.bincount(labels, minlength=centers.shape[0])
    if np.all(counts):
        return labels
    cost = _sq_dist(X, centers[labels])
    while np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0])
        # a point alone in its cluster cannot move without emptying it; r <= m
        # leaves some cluster with two or more members while one is empty
        movable = np.where(counts[labels] > 1, cost, -np.inf)
        pick = int(np.argmax(movable))
        counts[labels[pick]] -= 1
        labels[pick] = empty
        counts[empty] = 1
        centers[empty] = X[pick]
        cost[pick] = 0.0
    return labels
