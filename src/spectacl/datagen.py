"""Seeded synthetic 2-d benchmark shapes: interleaving moons, concentric
circles, and Gaussian blobs, each with additive Gaussian coordinate noise and
ground-truth labels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import DataMatrix
from .kmeans import Clustering

SHAPES = ("moons", "circles", "blobs")

# blob centers are drawn uniformly from [0, BLOB_BOX]^2; each blob scatters
# with BLOB_SIGMA before the spec's noise is added on top
BLOB_BOX = 3.0
BLOB_SIGMA = 0.3


class DataGenError(ValueError):
    """Invalid synthetic-data specification."""


@dataclass(frozen=True)
class SyntheticSpec:
    shape: str
    m: int = 1500
    noise: float = 0.0
    seed: int = 0
    factor: float = 0.5  # circles only: inner radius / outer radius
    centers: int = 3  # blobs only

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise DataGenError(f"unknown shape {self.shape!r}, expected one of {SHAPES}")
        if self.m < 2:
            raise DataGenError(f"need m >= 2, got {self.m}")
        if self.noise < 0 or not np.isfinite(self.noise):
            raise DataGenError(f"noise must be a nonnegative real, got {self.noise}")
        if not 0.0 < self.factor < 1.0:
            raise DataGenError(f"circles factor must be in (0, 1), got {self.factor}")
        if self.centers < 1:
            raise DataGenError(f"need at least one blob center, got {self.centers}")
        if self.seed < 0:
            raise DataGenError(f"need seed >= 0, got {self.seed}")


def generate(spec: SyntheticSpec) -> tuple[DataMatrix, Clustering]:
    """Sample a dataset and its ground truth; identical specs give identical output.

    Base positions are drawn before the noise so that two specs differing only
    in the noise level share the same underlying points.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.shape == "moons":
        points, labels, r = _moons(spec.m, rng)
    elif spec.shape == "circles":
        points, labels, r = _circles(spec.m, spec.factor, rng)
    else:
        points, labels, r = _blobs(spec.m, spec.centers, rng)
    if spec.noise > 0:
        points = points + rng.normal(0.0, spec.noise, size=points.shape)
    return DataMatrix(points), Clustering(labels=labels, n_clusters=r)


def _moons(m, rng):
    """Two interleaving half-circles: upper unit arc, and its reflection shifted
    to (1, 0.5)."""
    n0 = m - m // 2
    n1 = m // 2
    t0 = rng.uniform(0.0, np.pi, n0)
    t1 = rng.uniform(0.0, np.pi, n1)
    upper = np.column_stack([np.cos(t0), np.sin(t0)])
    lower = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    points = np.vstack([upper, lower])
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return points, labels, 2


def _circles(m, factor, rng):
    """Two concentric circles, outer radius 1 and inner radius `factor`,
    with the same number of points on each."""
    n0 = m - m // 2
    n1 = m // 2
    a0 = rng.uniform(0.0, 2.0 * np.pi, n0)
    a1 = rng.uniform(0.0, 2.0 * np.pi, n1)
    outer = np.column_stack([np.cos(a0), np.sin(a0)])
    inner = factor * np.column_stack([np.cos(a1), np.sin(a1)])
    points = np.vstack([outer, inner])
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return points, labels, 2


def _blobs(m, centers, rng):
    """Isotropic Gaussian blobs around centers drawn uniformly in the blob box."""
    locs = rng.uniform(0.0, BLOB_BOX, size=(centers, 2))
    counts = np.full(centers, m // centers, dtype=np.int64)
    counts[: m % centers] += 1
    labels = np.repeat(np.arange(centers, dtype=np.int64), counts)
    offsets = rng.normal(0.0, BLOB_SIGMA, size=(m, 2))
    points = locs[labels] + offsets
    return points, labels, centers
