"""Clustering objectives and external agreement scores.

Objectives: per-cluster density (Rayleigh quotient of the membership
indicator) and the summed average-density objective.  External scores:
Hungarian-matched F-measure and normalized mutual information against a
ground-truth labeling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

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


def _joint_counts(pred: Clustering, truth: Clustering) -> np.ndarray:
    """Co-occurrence counts (int64) by label - NOISE on both sides: row and
    column 0 count the noise points, row s + 1 cluster s, column t + 1 class t."""
    if pred.m != truth.m:
        raise MetricError(f"length mismatch: {pred.m} vs {truth.m}")
    cols = truth.n_clusters + 1
    cells = (pred.n_clusters + 1) * cols
    flat = np.bincount((pred.labels - NOISE) * cols + (truth.labels - NOISE), minlength=cells)
    return flat.reshape(-1, cols)


def contingency_table(pred: Clustering, truth: Clustering) -> np.ndarray:
    """Co-occurrence counts (int64): non-noise predicted clusters (rows) crossed
    with truth classes (cols); a point that is noise on either side counts nowhere."""
    return _joint_counts(pred, truth)[1:, 1:]


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
    joint = _joint_counts(pred, truth)
    counts = joint[1:, 1:].astype(np.float64)
    pred_sizes = counts.sum(axis=1)
    truth_sizes = joint[:, 1:].sum(axis=0).astype(np.float64)  # pred noise included
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
    joint = _joint_counts(pred, truth)
    # occupied categories only, C-ordered so the sums below run in the same order
    joint = joint[np.ix_(joint.any(axis=1), joint.any(axis=0))]
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
    value = info / ((h_pred + h_truth) / 2.0)
    return float(min(1.0, max(0.0, value)))


def hungarian(matrix: np.ndarray, maximize: bool = False) -> dict[int, int]:
    """Optimal injective row-to-column assignment of a rectangular score matrix.

    Equivalent to padding the smaller side with zero-score dummies; rows left
    unassigned on a wide-vs-tall mismatch are simply absent from the mapping.
    scipy matches rectangular matrices in either orientation, in row order.

    Solved by scipy.sparse.csgraph's LAPJVsp (Jonker & Volgenant), which
    minimizes over nonzero weights only, so the costs C (the scores, negated
    when maximizing) are lifted to 0.5*C - 0.5*min(C) + 1 >= 1.  Every full
    matching of the smaller side has the same size, so the lift keeps the
    optimum, and halving first keeps finite scores finite.  The result is
    optimal up to rounding at the scale of the lifted costs: differences far
    below the matrix's range (entries near 1e-300 beside 1.0) are lost.
    """
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise MetricError(f"score matrix must be 2-d, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise MetricError("score matrix has non-finite entries")
    if mat.size == 0:
        return {}
    half = 0.5 * mat
    lifted = (half.max() - half if maximize else half - half.min()) + 1.0
    rows, cols = min_weight_full_bipartite_matching(sp.csr_matrix(lifted))
    return {int(s): int(t) for s, t in zip(rows, cols)}
