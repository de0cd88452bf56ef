"""Nonnegative spectral embedding: entrywise-absolute eigenvectors scaled by
sqrt(|eigenvalue|).

Taking entrywise absolute values of an eigenvector cannot lower its Rayleigh
quotient below |eigenvalue| when the matrix is entrywise nonnegative, so each
embedding column is a fuzzy indicator of a subgraph at least that dense.
"""

from __future__ import annotations

import numpy as np

from .eigen import EigenPairs

# |eigenvalue| below this produces an exactly-zero column instead of a noise
# column scaled by sqrt(tiny); keeps downstream shapes stable at width d.
ZERO_EIGENVALUE_CUTOFF = 1e-12


def project_embedding(pairs: EigenPairs) -> np.ndarray:
    """The m x d array U[j,k] = |V[j,k]| * |lambda_k|^(1/2), with near-zero
    eigenvalues zeroed.

    Every entry is nonnegative and column k has norm sqrt(|lambda_k|) (or 0).
    """
    scale = np.sqrt(np.abs(pairs.values))
    U = np.abs(pairs.vectors) * scale[None, :]
    U[:, np.abs(pairs.values) < ZERO_EIGENVALUE_CUTOFF] = 0.0
    return U
