"""Nonnegative spectral embedding: entrywise-absolute eigenvectors scaled by
sqrt(|eigenvalue|).

Taking entrywise absolute values of an eigenvector cannot lower its Rayleigh
quotient below |eigenvalue| when the matrix is entrywise nonnegative, so each
embedding column is a fuzzy indicator of a subgraph at least that dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import EigenPairs

# |eigenvalue| below this produces an exactly-zero column instead of a noise
# column scaled by sqrt(tiny); keeps downstream shapes stable at width d.
ZERO_EIGENVALUE_CUTOFF = 1e-12


class EmbeddingError(ValueError):
    """Mismatched inputs to an embedding operation."""


@dataclass(frozen=True)
class Embedding:
    """m x d nonnegative embedding; column k has norm sqrt(|lambda_k|)."""

    points: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=np.float64)
        if arr.ndim != 2:
            raise EmbeddingError(f"embedding must be 2-d, got shape {arr.shape}")
        if arr.size and arr.min() < 0:
            raise EmbeddingError("embedding has negative entries")
        object.__setattr__(self, "points", arr)


def project_embedding(pairs: EigenPairs) -> Embedding:
    """U[j,k] = |V[j,k]| * |lambda_k|^(1/2), with near-zero eigenvalues zeroed."""
    scale = np.sqrt(np.abs(pairs.values))
    U = np.abs(pairs.vectors) * scale[None, :]
    U[:, np.abs(pairs.values) < ZERO_EIGENVALUE_CUTOFF] = 0.0
    return Embedding(U)

