"""Lloyd's algorithm with k-means++ seeding, restarts, and deterministic ties.

Determinism rules: nearest-centroid ties go to the lowest centroid index,
centroid sums add the member rows in index order, and the per-restart random
streams are spawned from a single SeedSequence so results are reproducible
bit-for-bit and independent of thread count.  Restart streams are prefix
stable: kmeans(seed, restarts=R) explores exactly the first R spawned streams,
so adding restarts can only improve the returned inertia.

The restarts are seeded one by one and then iterated in lockstep: each Lloyd
pass makes one BLAS product of every running restart's centroids with the
data and one sparse product of their cluster indicators with the data.  The
first product only screens: a running best and second best settle a point
whose nearest centroid wins by more than a rounding bound, and the exact
formula |x - c|^2 decides every other point.  So the labels are those of the
exact formula, whatever rounding the product's blocking or thread count
gives.  The second product adds each cluster's member rows in index order
from +0.0, the order of numpy's mean over axis 0, so the centroids are the
members' numpy means bit for bit.  A restart leaves the lockstep in the pass
whose labels repeat its previous ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

NOISE = -1

DEFAULT_RESTARTS = 10
MAX_ITER = 300
# Restarts run in lockstep in groups whose pass arrays fit in this many bytes:
# the r x restarts x m float64 screen and about ten restarts x m arrays.  So
# memory does not grow with the restart count; a restart whose arrays alone
# are larger runs in a group of its own.  The exact recheck runs in chunks of
# rows under the same budget.
LOCKSTEP_BYTES = 1 << 25

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
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "biuf":
            raise ClusteringError(f"labels must be real numbers, got {labels.dtype}")
        if labels.ndim != 1:
            raise ClusteringError(f"labels must be 1-d, got shape {labels.shape}")
        if self.n_clusters < 0:
            raise ClusteringError(f"need n_clusters >= 0, got {self.n_clusters}")
        # every check reads the labels as given, so none can wrap in the cast
        fractional = np.round(labels) != labels  # NaN included
        if np.any(fractional):
            raise ClusteringError(f"labels must be integers, got {labels[fractional][0]}")
        if labels.size:
            bad = (labels != NOISE) & ((labels < 0) | (labels >= self.n_clusters))
            if np.any(bad):
                raise ClusteringError(
                    f"labels outside [0,{self.n_clusters}) and not noise: "
                    f"{np.unique(labels[bad])}"
                )
        object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))

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
    X = np.asarray(data)
    if X.dtype.kind not in "biuf":
        raise ClusteringError(f"data must be real numbers, got {X.dtype}")
    X = X.astype(np.float64, copy=False)
    if X.ndim != 2:
        raise ClusteringError(f"data must be 2-d, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ClusteringError("data contains non-finite entries")
    m = X.shape[0]
    if not 1 <= r <= m:
        raise ClusteringError(f"need 1 <= r <= m, got r={r}, m={m}")
    if restarts < 1:
        raise ClusteringError(f"need restarts >= 1, got {restarts}")
    if seed < 0:
        raise ClusteringError(f"need seed >= 0, got {seed}")

    streams = np.random.SeedSequence(seed).spawn(restarts)
    group = max(1, LOCKSTEP_BYTES // (8 * (r + 10) * m))
    best = None
    for lo in range(0, restarts, group):
        centers = np.stack([_kmeanspp_init(X, r, np.random.default_rng(child))
                            for child in streams[lo:lo + group]])
        for result in _lloyd(X, centers):
            if best is None or result.inertia < best.inertia:
                best = result
    return best


def _sq_dist(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of every row of X to the point c, or to the
    matching row of c when c has one row per point."""
    diff = X - c
    return np.einsum("ij,ij->i", diff, diff)


def _kmeanspp_init(X: np.ndarray, r: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: subsequent centers drawn proportional to squared
    distance.  Each draw first takes the center drawn before it into the
    distances, so none are computed after the last draw."""
    m = X.shape[0]
    first = int(rng.integers(m))
    centers = np.empty((r, X.shape[1]), dtype=np.float64)
    centers[0] = X[first]
    for i in range(1, r):
        dist = _sq_dist(X, centers[i - 1])
        d2 = dist if i == 1 else np.minimum(d2, dist)
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=d2 / total))
        centers[i] = X[idx]
    return centers


def _lloyd(X: np.ndarray, centers: np.ndarray) -> list[KMeansResult]:
    """Lloyd's iterations of every restart in centers (restarts x r x n), in
    lockstep: each pass assigns and updates all restarts still running.  A
    restart stops in the pass whose labels repeat its previous ones, since
    its next pass would give the same centroids again."""
    g, r, _ = centers.shape
    Xc = np.ascontiguousarray(X)
    Xt = np.ascontiguousarray(X.T)
    xnorm = np.sqrt(np.einsum("ij,ij->i", X, X))
    labels = np.full((g, X.shape[0]), -1, dtype=np.intp)  # no pass repeats these
    iterations = np.full(g, MAX_ITER)
    running = np.arange(g)
    for iteration in range(1, MAX_ITER + 1):
        new = _nearest(X, Xt, xnorm, centers[running])
        for j, row in zip(running, new):
            _repair_empty(X, centers[j], row)
        centers[running] = _means(Xc, new, r)
        done = np.all(new == labels[running], axis=1)
        labels[running] = new
        iterations[running[done]] = iteration
        running = running[~done]
        if not running.size:
            break
    results = []
    for j in range(g):
        inertia = 0.0
        for i in range(r):
            diff = X[labels[j] == i] - centers[j, i]
            inertia += float(np.einsum("ij,ij->", diff, diff))
        results.append(KMeansResult(
            clustering=Clustering(labels=labels[j].copy(), n_clusters=r),
            centroids=centers[j].copy(),
            inertia=inertia,
            iterations=int(iterations[j]),
        ))
    return results


def _nearest(X, Xt, xnorm, centers):
    """Index of each row's nearest centre under each restart's centres
    (restarts x r x n), lowest index on ties: exactly what np.argmin over the
    _sq_dist columns gives, since those decide every row the screen leaves
    open.

    Xt is X.T in C order and xnorm holds the row norms of X.  The screen
    S[k, j, i] = |c_jk|^2 - 2 c_jk.x_i, one matrix product for all restarts
    laid out so that each centre's restarts x m slice is contiguous, is
    |x_i - c_jk|^2 less the row constant |x_i|^2.  Computed S and computed
    _sq_dist each err by at most gamma_{n+3} (|x_i| + |c_jk|)^2, plus an
    absolute term where they underflow (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3).  So with tol_ji = 4 gamma_{n+6}
    (|x_i| + max_k |c_jk|)^2 plus that term, a centre whose S exceeds the
    row's best by more than tol_ji can neither be nor tie the exact nearest.
    A running best and second best over the r slices settle a row when
    second > best + tol_ji, that is when exactly one centre lies within
    tol_ji of the best.  NaN propagates into both and so leaves the row open,
    and tol_ji is squared after doubling, so it is infinite on every row where
    S could overflow.
    """
    m, n = X.shape
    g, r, _ = centers.shape
    gamma = (n + 6) * _UNIT_ROUNDOFF / (1 - (n + 6) * _UNIT_ROUNDOFF)
    labels = np.zeros((g, m), dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):  # rows it overflows are rechecked
        csq = np.einsum("jkn,jkn->kj", centers, centers)
        stacked = centers.transpose(1, 0, 2).reshape(r * g, n)
        screen = ((-2.0 * stacked) @ Xt).reshape(r, g, m)
        screen += csq[:, :, None]
        best = screen[0].copy()
        second = np.full((g, m), np.inf)
        closer = np.empty((g, m), dtype=bool)
        step = np.empty((g, m), dtype=np.intp)
        for k in range(1, r):
            s = screen[k]
            np.less(s, best, out=closer)  # strict: the lowest index keeps a tie
            # labels are below k so far, so this sets k exactly where closer
            np.maximum(labels, np.multiply(closer, k, out=step), out=labels)
            np.minimum(second, np.maximum(best, s), out=second)
            np.minimum(best, s, out=best)
        tol = gamma * (2.0 * (xnorm + np.sqrt(csq.max(axis=0))[:, None])) ** 2
        tol += 4 * (n + 6) * _SUBNORMAL
        restart, row = np.nonzero(~(second > best + tol))
    chunk = max(1, LOCKSTEP_BYTES // (8 * (3 * n + r)))
    for lo in range(0, row.size, chunk):
        j, i = restart[lo:lo + chunk], row[lo:lo + chunk]
        points = X[i]
        dist2 = np.column_stack([_sq_dist(points, centers[j, k]) for k in range(r)])
        labels[j, i] = np.argmin(dist2, axis=1)  # the first minimum: lowest index wins ties
    return labels


def _means(X, labels, r):
    """Exact centroids (restarts x r x n) of the labels (restarts x m) of the
    C-ordered X, bit-identical to X[labels[j] == k].mean(axis=0): scipy's
    COO-to-CSR conversion sorts each membership row by point index, so each
    sum adds the member rows in index order from +0.0, as numpy's mean does
    for two or more columns.  One column numpy sums pairwise, so there the
    means are numpy's."""
    g, m = labels.shape
    if X.shape[1] == 1:
        return np.array([[X[row == k].mean(axis=0) for k in range(r)] for row in labels])
    key = (labels + r * np.arange(g)[:, None]).ravel()  # row j * r + k: cluster k of restart j
    counts = np.bincount(key, minlength=g * r)
    members = sp.csr_matrix((np.ones(g * m), (key, np.tile(np.arange(m), g))), shape=(g * r, m))
    return ((members @ X) / counts[:, None]).reshape(g, r, -1)


def _repair_empty(X, centers, labels):
    """Move the point farthest from its assigned centroid into each empty
    cluster; _means then sets that cluster's centroid to the point.

    The per-point cost is computed only when some cluster is empty.  The moved
    point's cost drops to zero and nobody else moves, so the Lloyd objective
    stays non-increasing through repairs.
    """
    counts = np.bincount(labels, minlength=centers.shape[0])
    if np.all(counts):
        return
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
        cost[pick] = 0.0
