"""Clustering objectives and external agreement scores.

Objectives: per-cluster density (Rayleigh quotient of the membership
indicator) and the summed average-density objective.  External scores:
Hungarian-matched F-measure and normalized mutual information against a
ground-truth labeling.

`hungarian` imports `linear_sum_assignment` when it is called, not with this
module: importing scipy.optimize takes about 0.2 s and 16 MB, and only a run
scored against ground truth needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SparseSymmetricMatrix
from .kmeans import NOISE, Clustering


class MetricError(ValueError):
    """Invalid metric input (length mismatch, empty cluster, zero vector)."""


@dataclass(frozen=True)
class MatchResult:
    """Injective predicted-to-truth cluster matching and the normalized F total."""

    mapping: dict[int, int]
    total_f: float


def density(y: np.ndarray, W: SparseSymmetricMatrix) -> float:
    """Rayleigh quotient y'Wy / |y|^2; the average node degree when y is binary."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (W.dim,):
        raise MetricError(f"vector length {y.shape} does not match matrix dim {W.dim}")
    sq = float(y @ y)
    if sq == 0.0:
        raise MetricError("density of the all-zero vector is undefined")
    return float(y @ (W.matrix @ y)) / sq


def average_density_objective(clustering: Clustering, W: SparseSymmetricMatrix) -> float:
    """Sum of per-cluster densities; equals tr(Y'WY(Y'Y)^-1) for the partition matrix."""
    if clustering.m != W.dim:
        raise MetricError("clustering and matrix dimension mismatch")
    total = 0.0
    for s in range(clustering.n_clusters):
        y = clustering.indicator(s)
        if not y.any():
            raise MetricError(f"cluster {s} is empty")
        total += density(y, W)
    return total


def contingency_table(pred: Clustering, truth: Clustering) -> np.ndarray:
    """Co-occurrence counts (int64): non-noise predicted clusters (rows) crossed
    with truth classes (cols)."""
    if pred.m != truth.m:
        raise MetricError(f"length mismatch: {pred.m} vs {truth.m}")
    counts = np.zeros((pred.n_clusters, truth.n_clusters), dtype=np.int64)
    kept = pred.labels != NOISE
    np.add.at(counts, (pred.labels[kept], truth.labels[kept]), 1)
    return counts


def f_measure(pred: Clustering, truth: Clustering) -> MatchResult:
    """Hungarian-matched F-measure in [0, 1].

    Per pair (s, t): precision = overlap / |cluster s|, recall = overlap /
    |class t|, F = harmonic mean.  The matching maximizes the summed F; the
    total is divided by max(r, r*) so a perfect clustering scores exactly 1
    and over- or under-clustering is penalized.  Noise points belong to no
    predicted cluster, so they depress recall against their true class.
    """
    if pred.m != truth.m:
        raise MetricError(f"length mismatch: {pred.m} vs {truth.m}")
    if truth.has_noise:
        raise MetricError("ground truth must not contain noise labels")
    if truth.n_clusters == 0:
        raise MetricError("ground truth has no classes")
    r, r_true = pred.n_clusters, truth.n_clusters
    if r == 0:
        return MatchResult(mapping={}, total_f=0.0)
    counts = contingency_table(pred, truth).astype(np.float64)
    pred_sizes = counts.sum(axis=1)
    truth_sizes = truth.sizes().astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):  # 0/0 where the overlap is 0
        pre = counts / pred_sizes[:, None]
        rec = counts / truth_sizes
        scores = np.where(counts > 0, 2.0 * pre * rec / (pre + rec), 0.0)
    mapping = hungarian(scores, maximize=True)
    total = sum(scores[s, t] for s, t in mapping.items())
    return MatchResult(mapping=mapping, total_f=total / max(r, r_true))


def nmi(pred: Clustering, truth: Clustering) -> float:
    """Mutual information normalized by the arithmetic mean of the entropies.

    Natural-log entropies (the normalization cancels the base).  Noise labels
    count as one extra category.  Identical single-cluster labelings score 1;
    a constant labeling against anything else scores 0.
    """
    if pred.m != truth.m:
        raise MetricError(f"length mismatch: {pred.m} vs {truth.m}")
    if pred.m == 0:
        raise MetricError("empty clusterings")
    _, a = np.unique(pred.labels, return_inverse=True)
    _, b = np.unique(truth.labels, return_inverse=True)
    m = pred.m
    joint = np.zeros((a.max() + 1, b.max() + 1), dtype=np.int64)
    np.add.at(joint, (a, b), 1)
    pij = joint / m
    pi = pij.sum(axis=1)
    pj = pij.sum(axis=0)
    h_pred = -float(np.sum(pi[pi > 0] * np.log(pi[pi > 0])))
    h_truth = -float(np.sum(pj[pj > 0] * np.log(pj[pj > 0])))
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0
    nonzero = pij > 0
    outer = np.outer(pi, pj)
    info = float(np.sum(pij[nonzero] * np.log(pij[nonzero] / outer[nonzero])))
    value = info / ((h_pred + h_truth) / 2.0)
    return float(min(1.0, max(0.0, value)))


def hungarian(matrix: np.ndarray, maximize: bool = False) -> dict[int, int]:
    """Optimal injective row-to-column assignment of a rectangular score matrix.

    Equivalent to padding the smaller side with zero-score dummies; rows left
    unassigned on a wide-vs-tall mismatch are simply absent from the mapping.
    """
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise MetricError(f"score matrix must be 2-d, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise MetricError("score matrix has non-finite entries")
    from scipy.optimize import linear_sum_assignment  # deferred: only scoring needs scipy.optimize

    rows, cols = linear_sum_assignment(mat, maximize=maximize)
    return {int(s): int(t) for s, t in zip(rows, cols)}
