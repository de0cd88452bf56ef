"""Truncated eigendecompositions of real symmetric matrices.

`truncated_eigs` serves spectacl: the d eigenpairs of largest *absolute*
eigenvalue of an indefinite adjacency matrix, from one call to ARPACK's
implicitly restarted Lanczos (scipy's `eigsh` with which="LM"), which targets
|eigenvalue| directly, so both ends of the spectrum are served by a single
iteration.

`laplacian_eigs` serves normalized spectral clustering: the r bottom
eigenpairs of the normalized Laplacian L = I - N.  Its null space is known
exactly, one vector per connected component with edges (von Luxburg, "A
Tutorial on Spectral Clustering", 2007, Prop. 4), so those vectors are
written down and only the remaining pairs are solved for, by shift-invert
Lanczos on the complement.  Lanczos sees one direction per distinct
eigenvalue, so alone it would drop copies of the repeated eigenvalue 0; past
the null space it can still drop copies of a repeated eigenvalue.

Every iterative result is checked against explicit residuals before it is
returned.  Small problems skip the iteration and use the dense path.

Determinism: the start vector comes from a fixed internal seed, and every
returned eigenvector is flipped so its largest-magnitude coordinate is
positive (ties to the lower index), so repeated calls give bit-identical
output for simple eigenvalues.  For repeated eigenvalues any orthonormal basis
of the eigenspace may come back; compare projectors, not vectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .graph import SparseSymmetricMatrix, components

# m at or below which truncated_eigs and laplacian_eigs just call the dense
# solver; read at call time, so setting it to 0 forces the iterative path.
DENSE_FALLBACK_DIM = 512
# Residual tolerance, relative to max(1, |lambda_1|), that every returned pair meets.
RESIDUAL_TOL = 1e-10
# Internal entropy prefix for the reproducible ARPACK start vector.
_START_SEED = 0x5EED
# Shift of laplacian_eigs's shift-invert solve: just below the Laplacian's
# spectrum [0, 2], so L - sigma*I is positive definite and the bottom
# eigenvalues are the best separated ones of its inverse.
_SIGMA = -1e-3
# Shift that lifts the known directions out of the dense Laplacian solve:
# above the spectrum [0, 2], so they are never among the bottom pairs.
_DEFLATE_SHIFT = 3.0


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

    vals, vecs = _arpack(W.matrix, k=d, which="LM", v0=_start_vector(m))
    order = _abs_order(vals)
    vals, vecs = vals[order], vecs[:, order]

    # columns are unit norm up to roundoff; tighten before the residual check
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    _check_residuals(W.matrix @ vecs - vecs * vals, vals)
    return EigenPairs(vals, _fix_signs(vecs))


def laplacian_eigs(W: SparseSymmetricMatrix, N: SparseSymmetricMatrix, r: int) -> EigenPairs:
    """The r bottom eigenpairs of the normalized Laplacian L = I - N of W.

    N is symmetric_normalize(W).  The values are those of I + N, 2 - lambda,
    so they come in descending order.  Per connected component C of W with
    edges, D^(1/2) 1_C / sqrt(vol C) spans L's null space; these come first,
    largest volume first (ties to the lowest member index).  When there are
    more than r, the r largest are kept, with a warning.  When there are fewer,
    the rest are L's bottom pairs on the complement of those vectors and of
    the isolated nodes, so isolated nodes get zero rows.  Only when that
    complement holds fewer than the missing pairs, as on an edgeless graph,
    does the result end with unit vectors of the lowest-index isolated nodes,
    L's eigenvalue 1 there.

    Residuals ||L v - lambda v|| of the solved pairs are verified against
    RESIDUAL_TOL * max(1, max |lambda|); non-convergence raises
    EigenSolverError.
    The remaining pairs are solved densely for m <= DENSE_FALLBACK_DIM and
    whenever 2 * (pairs to solve) >= m, as in truncated_eigs.
    """
    m = W.dim
    if not 1 <= r <= m:
        raise EigenSolverError(f"need 1 <= r <= m, got r={r}, m={m}")
    deg = W.degrees()
    isolated = deg == 0
    _, component = components(W.matrix)
    volume = np.bincount(component, weights=deg)
    # components with edges, by volume descending, then by lowest member
    kept = np.flatnonzero(volume > 0)
    kept = kept[np.argsort(-volume[kept], kind="stable")]
    c = kept.size
    if c > r:
        warnings.warn(
            f"the graph has {c} connected components with edges, more than r={r}; "
            f"the embedding keeps the {r} largest by volume",
            stacklevel=3,  # past the pipeline to its caller
        )
        kept = kept[:r]
    column = np.full(volume.size, -1)
    column[kept] = np.arange(kept.size)
    members = np.flatnonzero(column[component] >= 0)
    Q = np.zeros((m, kept.size))
    Q[members, column[component[members]]] = np.sqrt(deg[members] / volume[component[members]])
    if c >= r:
        return EigenPairs(np.full(r, 2.0), Q)

    def project(X):
        """X without its parts along Q and on the isolated nodes."""
        X = X - Q @ (Q.T @ X)
        X[isolated] = 0.0
        return X

    def laplacian(X):
        return X - N.matrix @ X

    solve = min(r - c, m - int(np.count_nonzero(isolated)) - c)
    lam, vecs = np.zeros(0), np.zeros((m, 0))
    if solve > 0:
        if m <= DENSE_FALLBACK_DIM or 2 * solve >= m:
            # L with the known directions lifted to _DEFLATE_SHIFT or above
            lifted = -N.to_dense()
            lifted[np.diag_indices(m)] += 1.0 + _DEFLATE_SHIFT * isolated
            lifted += (_DEFLATE_SHIFT * Q) @ Q.T
            lam, vecs = scipy.linalg.eigh(lifted, subset_by_index=(0, solve - 1),
                                          overwrite_a=True)
        else:
            # L - sigma*I is positive definite: symmetric ordering, no pivoting
            lu = splu((sp.identity(m, format="csc") * (1.0 - _SIGMA) - N.matrix).tocsc(),
                      permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
            OPinv = LinearOperator((m, m), matvec=lambda x: project(lu.solve(project(x))),
                                   dtype=np.float64)
            L = LinearOperator((m, m), matvec=laplacian, dtype=np.float64)
            lam, vecs = _arpack(L, k=solve, sigma=_SIGMA, OPinv=OPinv,
                                v0=project(_start_vector(m)))
        vecs = project(vecs)
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        _check_residuals(laplacian(vecs) - vecs * lam, lam)
    padding = np.flatnonzero(isolated)[: r - c - solve]
    values = np.concatenate([np.full(c, 2.0), 2.0 - lam, np.ones(padding.size)])
    vectors = np.hstack([Q, vecs, np.zeros((m, padding.size))])
    vectors[padding, c + solve + np.arange(padding.size)] = 1.0
    order = _abs_order(values)
    return EigenPairs(values[order], _fix_signs(vectors[:, order]))


def _start_vector(m: int) -> np.ndarray:
    """The reproducible ARPACK start vector of an m x m problem."""
    return np.random.default_rng(np.random.SeedSequence([_START_SEED, m])).standard_normal(m)


def _arpack(A, **kwargs) -> tuple[np.ndarray, np.ndarray]:
    try:
        return eigsh(A, tol=RESIDUAL_TOL, **kwargs)
    except ArpackError as exc:
        raise EigenSolverError(f"ARPACK failed: {exc}") from exc


def _check_residuals(residual: np.ndarray, values: np.ndarray) -> None:
    """Raise unless every column of the residual matrix is within
    RESIDUAL_TOL * max(1, |lambda|) of zero."""
    residuals = np.linalg.norm(residual, axis=0)
    bound = RESIDUAL_TOL * max(1.0, float(np.abs(values).max()))
    worst = float(residuals.max())
    if worst > bound:
        raise EigenSolverError(
            f"eigensolver did not reach tol={RESIDUAL_TOL}: residual {worst:.3e} > {bound:.3e}",
            residual=worst,
        )
