"""Truncated eigendecomposition of real symmetric matrices, ordered by |eigenvalue|.

The clustering pipelines need the d eigenpairs of largest *absolute* eigenvalue
of an indefinite adjacency matrix.  `truncated_eigs` gets them from one call
to ARPACK's implicitly restarted Lanczos (scipy's `eigsh` with which="LM"),
which targets |eigenvalue| directly, so both ends of the spectrum are served
by a single iteration.  The result is checked against explicit residuals
before it is returned.  Small problems skip the iteration and use the dense
path.

Determinism: the start vector comes from a fixed internal seed, and every
returned eigenvector is flipped so its largest-magnitude coordinate is
positive (ties to the lower index), so repeated calls give bit-identical
output for simple eigenvalues.  For repeated eigenvalues any orthonormal basis
of the eigenspace may come back; compare projectors, not vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackError, eigsh

from .graph import SparseSymmetricMatrix

# m at or below which truncated_eigs just calls the dense solver; read at
# call time, so setting it to 0 forces the iterative path.
DENSE_FALLBACK_DIM = 512
# Residual tolerance, relative to max(1, |lambda_1|), that every returned pair meets.
RESIDUAL_TOL = 1e-10
# Internal entropy prefix for the reproducible ARPACK start vector.
_START_SEED = 0x5EED


class EigenSolverError(RuntimeError):
    """Eigensolver failure; carries the best residual achieved, if known."""

    def __init__(self, message, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues ordered by descending |value| with unit-norm eigenvectors."""

    values: np.ndarray  # shape (d,)
    vectors: np.ndarray  # shape (m, d), column i pairs with values[i]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        vecs = np.asarray(self.vectors, dtype=np.float64)
        if vals.ndim != 1 or vecs.ndim != 2 or vecs.shape[1] != vals.shape[0]:
            raise EigenSolverError(
                f"inconsistent shapes: values {vals.shape}, vectors {vecs.shape}"
            )
        mags = np.abs(vals)
        if np.any(mags[:-1] < mags[1:]):
            raise EigenSolverError("eigenvalues not ordered by descending magnitude")
        norms = np.linalg.norm(vecs, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-10):
            raise EigenSolverError("eigenvector columns are not unit norm")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "vectors", vecs)

    @property
    def d(self) -> int:
        return self.values.shape[0]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-|entry| coordinate is positive (first on ties)."""
    out = vectors.copy()
    for i in range(out.shape[1]):
        j = int(np.argmax(np.abs(out[:, i])))
        if out[j, i] < 0:
            out[:, i] = -out[:, i]
    return out


def _abs_order(values: np.ndarray) -> np.ndarray:
    """Sort order: |value| descending, then value descending (deterministic ties)."""
    return np.lexsort((-values, -np.abs(values)))


def _dense_pairs(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, V = np.linalg.eigh(A)
    order = _abs_order(w)
    return w[order], V[:, order]


def truncated_eigs(W: SparseSymmetricMatrix, d: int) -> EigenPairs:
    """The d eigenpairs of largest |eigenvalue| of a symmetric matrix.

    Residuals ||W v - lambda v|| are verified against
    RESIDUAL_TOL * max(1, |lambda_1|) before returning; non-convergence raises
    EigenSolverError.
    The dense path is used for m <= DENSE_FALLBACK_DIM and whenever 2*d >= m:
    ARPACK keeps a Krylov basis of 2*d + 1 vectors, so beyond that the dense
    solver is no more expensive.
    """
    m = W.dim
    if not 1 <= d <= m:
        raise EigenSolverError(f"need 1 <= d <= m, got d={d}, m={m}")
    if m <= DENSE_FALLBACK_DIM or 2 * d >= m:
        vals, vecs = _dense_pairs(W.to_dense())
        return EigenPairs(vals[:d], _fix_signs(vecs[:, :d]))
    if W.nnz == 0:
        # every vector is an eigenvector of the zero matrix, and ARPACK
        # cannot start from the zero Krylov vector W @ v0
        return EigenPairs(np.zeros(d), np.eye(m, d))

    v0 = np.random.default_rng(np.random.SeedSequence([_START_SEED, m])).standard_normal(m)
    try:
        vals, vecs = eigsh(W.matrix, k=d, which="LM", tol=RESIDUAL_TOL, v0=v0)
    except ArpackError as exc:
        raise EigenSolverError(f"ARPACK failed: {exc}") from exc
    order = _abs_order(vals)
    vals, vecs = vals[order], vecs[:, order]

    # columns are unit norm up to roundoff; tighten before the residual check
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    residuals = np.linalg.norm(W.matrix @ vecs - vecs * vals, axis=0)
    bound = RESIDUAL_TOL * max(1.0, float(np.abs(vals).max()))
    worst = float(residuals.max())
    if worst > bound:
        raise EigenSolverError(
            f"eigensolver did not reach tol={RESIDUAL_TOL}: residual {worst:.3e} > {bound:.3e}",
            residual=worst,
        )
    return EigenPairs(vals, _fix_signs(vecs))
