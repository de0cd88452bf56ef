import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

from spectacl import eigen
from spectacl.dataio import DataMatrix
from spectacl.eigen import EigenPairs, EigenSolverError, laplacian_eigs, truncated_eigs
from spectacl.graph import SparseSymmetricMatrix, epsilon_graph, symmetric_normalize

from conftest import cliques_graph, from_dense, full_dense_eigs


def random_symmetric(rng, m, density=1.0):
    B = rng.standard_normal((m, m))
    if density < 1.0:
        B = B * (rng.random((m, m)) < density)
    return (B + B.T) / 2.0


def test_dense_identity():
    pairs = full_dense_eigs(np.eye(3))
    assert np.allclose(pairs.values, 1.0)
    assert np.allclose(pairs.vectors.T @ pairs.vectors, np.eye(3), atol=1e-12)


def test_dense_diagonal_abs_order():
    pairs = full_dense_eigs(np.diag([3.0, -5.0, 1.0]))
    assert pairs.values.tolist() == [-5.0, 3.0, 1.0]


def test_dense_residual_self_check(rng):
    for _ in range(50):
        A = random_symmetric(rng, 10)
        pairs = full_dense_eigs(A)
        res = np.linalg.norm(A @ pairs.vectors - pairs.vectors * pairs.values, axis=0)
        assert res.max() <= 1e-9


def test_dense_rejects_asymmetric():
    with pytest.raises(EigenSolverError, match="symmetric"):
        full_dense_eigs(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_two_cycle_spectrum():
    W = from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    pairs = truncated_eigs(W, 2)
    assert sorted(pairs.values.tolist()) == [-1.0, 1.0]
    A = W.to_dense()
    res = np.linalg.norm(A @ pairs.vectors - pairs.vectors * pairs.values, axis=0)
    assert res.max() <= 1e-12


def test_clique_pair_degenerate_projector():
    W, _ = cliques_graph((3, 3))
    pairs = truncated_eigs(W, 2)
    assert np.allclose(pairs.values, 2.0, atol=1e-10)
    # compare projectors, not vectors: the eigenspace is the span of the
    # per-clique indicator directions
    e = np.zeros((6, 2))
    e[:3, 0] = 1 / np.sqrt(3)
    e[3:, 1] = 1 / np.sqrt(3)
    expected = e @ e.T
    got = pairs.vectors @ pairs.vectors.T
    assert np.allclose(got, expected, atol=1e-8)


def test_truncated_matches_dense_oracle(rng):
    A = random_symmetric(rng, 20)
    W = from_dense(A)
    pairs = truncated_eigs(W, 5)
    oracle = full_dense_eigs(A)
    assert np.allclose(np.abs(pairs.values), np.abs(oracle.values[:5]), atol=1e-8)


def test_lanczos_path_matches_dense_oracle(rng, no_dense_fallback):
    for _ in range(5):
        A = random_symmetric(rng, 90, density=0.2)
        W = from_dense(A)
        pairs = truncated_eigs(W, 7)
        oracle = full_dense_eigs(A)
        assert np.allclose(pairs.values, oracle.values[:7], atol=1e-8)
        res = np.linalg.norm(A @ pairs.vectors - pairs.vectors * pairs.values, axis=0)
        assert res.max() <= 1e-8 * max(1.0, abs(pairs.values[0]))


@pytest.mark.parametrize(
    "size, copies",
    [pytest.param(5, 8, id="8-cliques-of-5"), pytest.param(30, 20, id="20-cliques-of-30")],
)
def test_lanczos_resolves_multiplicity(size, copies, no_dense_fallback):
    # disjoint cliques: top eigenvalue size-1 with multiplicity `copies`
    W, _ = cliques_graph((size,) * copies)
    pairs = truncated_eigs(W, copies)
    assert np.allclose(pairs.values, size - 1.0, atol=1e-9)
    G = pairs.vectors.T @ pairs.vectors
    assert np.abs(G - np.eye(copies)).max() <= 1e-8


def test_sparse_graph_top_magnitudes_match_dense_oracle():
    # a sparse epsilon graph whose largest-|lambda| set mixes both spectral
    # ends; solving each end separately once missed some of these pairs
    data = DataMatrix(np.random.default_rng(0).uniform(size=(600, 2)))
    W = epsilon_graph(data, 0.02)
    pairs = truncated_eigs(W, 50)
    oracle = full_dense_eigs(W.to_dense())
    assert np.allclose(np.abs(pairs.values), np.abs(oracle.values[:50]), atol=1e-8)


def test_zero_matrix_returns_zero_pairs():
    # the dense size (m = 100) and the iterative one (m = 600) give the same pairs
    for m in (100, 600):
        pairs = truncated_eigs(SparseSymmetricMatrix(sp.csr_matrix((m, m))), 7)
        assert np.array_equal(pairs.values, np.zeros(7))
        assert np.array_equal(pairs.vectors, np.eye(m, 7))


def test_arpack_failure_is_eigen_solver_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((600, 0)))

    monkeypatch.setattr(eigen, "eigsh", no_convergence)
    W, _ = cliques_graph((30,) * 20)
    with pytest.raises(EigenSolverError, match="ARPACK"):
        truncated_eigs(W, 5)


def test_dense_fallback_dim_is_read_at_call_time(monkeypatch, no_dense_fallback):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((12, 0)))

    monkeypatch.setattr(eigen, "eigsh", no_convergence)
    W, _ = cliques_graph((6, 6))
    with pytest.raises(EigenSolverError, match="ARPACK"):
        truncated_eigs(W, 2)


def test_vectors_pairwise_orthogonal(rng, no_dense_fallback):
    A = random_symmetric(rng, 60, density=0.3)
    pairs = truncated_eigs(from_dense(A), 6)
    G = pairs.vectors.T @ pairs.vectors
    assert np.abs(G - np.eye(6)).max() <= 1e-8


def test_rayleigh_quotient_equals_eigenvalue(rng):
    A = random_symmetric(rng, 40)
    pairs = truncated_eigs(from_dense(A), 6)
    for i in range(6):
        v = pairs.vectors[:, i]
        assert abs(v @ A @ v / (v @ v) - pairs.values[i]) <= 1e-8


def test_translated_laplacian_top_is_componentwise_constant(rng):
    # difference Laplacian of a disconnected graph, shifted to be positive
    W, truth = cliques_graph((4, 5))
    A = W.to_dense()
    L = np.diag(A.sum(axis=1)) - A
    lam_max = np.linalg.eigvalsh(L).max()
    T = lam_max * np.eye(9) - L
    pairs = full_dense_eigs(T)
    assert pairs.values[0] == pytest.approx(lam_max, abs=1e-10)
    top = pairs.vectors[:, 0]
    for c in range(truth.n_clusters):
        vals = top[truth.labels == c]
        assert vals.max() - vals.min() <= 1e-8


def test_sign_convention_and_determinism(rng, no_dense_fallback):
    A = random_symmetric(rng, 80, density=0.25)
    W = from_dense(A)
    p1 = truncated_eigs(W, 5)
    p2 = truncated_eigs(W, 5)
    assert np.array_equal(p1.values, p2.values)
    assert np.array_equal(p1.vectors, p2.vectors)
    for i in range(5):
        j = int(np.argmax(np.abs(p1.vectors[:, i])))
        assert p1.vectors[j, i] > 0


def test_canonical_matches_the_column_loop(rng):
    # columns with |entry| ties, where the first of the tied coordinates decides
    values = np.array([0.5, -2.0, 2.0, 1.0, -0.5, 0.0])
    vectors = rng.standard_normal((7, 6))
    vectors[:, 0] = [0.0, -1.0, 1.0, 0.0, 0.5, 0.0, 0.0]
    vectors[:, 1] = [0.0, 1.0, -1.0, 0.0, 0.5, 0.0, 0.0]
    vectors /= np.linalg.norm(vectors, axis=0)
    order = np.lexsort((-values, -np.abs(values)))
    expect = vectors[:, order].copy()
    for i in range(expect.shape[1]):
        j = int(np.argmax(np.abs(expect[:, i])))
        if expect[j, i] < 0:
            expect[:, i] = -expect[:, i]
    pairs = eigen._canonical(values, vectors, 4)
    assert pairs.values.tolist() == [2.0, -2.0, 1.0, 0.5]
    assert np.array_equal(pairs.vectors, expect[:, :4])
    assert pairs.vectors.flags["C_CONTIGUOUS"]


def test_equal_magnitude_ties_prefer_positive():
    W = from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    pairs = truncated_eigs(W, 2)
    assert pairs.values[0] == 1.0 and pairs.values[1] == -1.0


def test_reconstruction_at_full_rank(rng):
    A = random_symmetric(rng, 12)
    W = from_dense(A)
    pairs = truncated_eigs(W, 12)
    recon = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
    assert np.abs(recon - A).max() <= 12 * 1e-10


def test_truncated_validates_d():
    W = from_dense(np.zeros((3, 3)))
    with pytest.raises(EigenSolverError):
        truncated_eigs(W, 0)
    with pytest.raises(EigenSolverError):
        truncated_eigs(W, 4)


def test_eigenpairs_validation():
    with pytest.raises(EigenSolverError, match="ordered"):
        EigenPairs(values=np.array([1.0, 2.0]), vectors=np.eye(2))
    with pytest.raises(EigenSolverError, match="unit"):
        EigenPairs(values=np.array([2.0, 1.0]), vectors=2 * np.eye(2))


def block_graph(seed, sizes, weighted):
    """Shuffled block-diagonal graph: each block of two or more nodes is a
    connected component (a random path plus random extra edges, weights 1 or
    uniform in [0.5, 2]), each block of one node is isolated.  Returns the
    graph and the node sets of its components."""
    rng = np.random.default_rng(seed)
    m = sum(sizes)
    perm = rng.permutation(m)
    A = np.zeros((m, m))
    blocks, off = [], 0
    for s in sizes:
        nodes = perm[off : off + s]
        off += s
        if s == 1:
            continue
        mask = np.triu(rng.random((s, s)) < 0.4, 1)
        mask[np.arange(s - 1), np.arange(1, s)] = True
        weight = rng.uniform(0.5, 2.0, (s, s)) if weighted else np.ones((s, s))
        block = np.where(mask, weight, 0.0)
        A[np.ix_(nodes, nodes)] = block + block.T
        blocks.append(nodes)
    return from_dense(A), blocks


def dense_laplacian_pairs(W):
    """Oracle for laplacian_eigs, in the order it chooses pairs: all
    eigenpairs of I + N on the nodes with edges (zero elsewhere) by
    descending value, then value 1 with the unit vector of each isolated node
    in index order.  Returns (values, vectors, number of nodes with edges)."""
    m = W.dim
    edged = np.flatnonzero(W.degrees() > 0)
    isolated = np.flatnonzero(W.degrees() == 0)
    M = np.eye(edged.size) + symmetric_normalize(W).to_dense()[np.ix_(edged, edged)]
    w, V = np.linalg.eigh(M)
    vectors = np.zeros((m, m))
    vectors[edged, : edged.size] = V[:, ::-1]
    vectors[isolated, edged.size + np.arange(isolated.size)] = 1.0
    return np.concatenate([w[::-1], np.ones(isolated.size)]), vectors, edged.size


@pytest.mark.parametrize("fallback", [0, eigen.DENSE_FALLBACK_DIM], ids=["iterative", "default"])
@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 14), min_size=1, max_size=8),
    st.booleans(),
    st.data(),
)
def test_laplacian_eigs_match_dense_oracle(fallback, seed, sizes, weighted, data):
    W, blocks = block_graph(seed, sizes, weighted)
    m, c = W.dim, len(blocks)
    r = data.draw(st.integers(1, m), label="r")
    with mock.patch.object(eigen, "DENSE_FALLBACK_DIM", fallback), \
            warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        got = laplacian_eigs(W, symmetric_normalize(W), r)
    assert [str(w.message) for w in record] == (
        [f"the graph has {c} connected components with edges, more than r={r}; "
         f"the embedding keeps the {r} largest by volume"] if c > r else []
    )

    # the null vectors, D^(1/2) 1_C / sqrt(vol C), by volume and lowest member
    deg = W.degrees()
    blocks.sort(key=lambda nodes: (-deg[nodes].sum(), nodes.min()))
    for i, nodes in enumerate(blocks[:r]):
        expect = np.zeros(m)
        expect[nodes] = np.sqrt(deg[nodes] / deg[nodes].sum())
        assert got.values[i] == 2.0
        assert np.allclose(got.vectors[:, i], expect, rtol=0, atol=1e-12)

    L = np.eye(m) - symmetric_normalize(W).to_dense()
    residuals = np.linalg.norm(L @ got.vectors - got.vectors * (2.0 - got.values), axis=0)
    assert residuals.max() <= 2 * eigen.RESIDUAL_TOL
    assert np.abs(got.vectors.T @ got.vectors - np.eye(r)).max() <= 1e-8
    values, vectors, edged = dense_laplacian_pairs(W)
    if r <= edged:
        assert not got.vectors[deg == 0].any()

    # Lanczos sees one direction per distinct eigenvalue, so past the null
    # space the iterative path may drop copies of a repeated eigenvalue
    solved = values[min(c, r) : min(r + 1, edged)]
    if fallback == 0 and np.any(np.diff(solved) > -1e-6):
        return
    assert np.allclose(got.values, np.sort(values[:r])[::-1], rtol=0, atol=1e-8)
    # projectors up to the last spectral gap at or before r: within a
    # repeated eigenvalue any orthonormal basis may come back.  Past the
    # nodes with edges every pair is taken, and the order is by value.
    cut = max(j for j in range(r + 1)
              if j == 0 or j >= edged or values[j - 1] - values[j] > 1e-6)
    assert np.allclose(got.vectors[:, :cut] @ got.vectors[:, :cut].T,
                       vectors[:, :cut] @ vectors[:, :cut].T, rtol=0, atol=1e-7)


def test_laplacian_eigs_without_edges_solves_nothing(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("an edgeless graph needs no eigensolve")

    monkeypatch.setattr(eigen, "eigsh", no_solve)
    monkeypatch.setattr(eigen, "splu", no_solve)
    W = SparseSymmetricMatrix(sp.csr_matrix((20000, 20000)))
    pairs = laplacian_eigs(W, symmetric_normalize(W), 3)
    assert np.array_equal(pairs.values, np.ones(3))
    assert np.array_equal(pairs.vectors, np.eye(20000, 3))


def test_laplacian_eigs_solver_failure_is_eigen_solver_error(monkeypatch, no_dense_fallback):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((60, 0)))

    monkeypatch.setattr(eigen, "eigsh", no_convergence)
    W, _ = cliques_graph((30, 30))
    with pytest.raises(EigenSolverError, match="ARPACK"):
        laplacian_eigs(W, symmetric_normalize(W), 3)


def test_truncated_eigs_checks_residuals(monkeypatch, no_dense_fallback):
    def inaccurate(A, k, **kwargs):
        vals, vecs = np.linalg.eigh(A.toarray())
        return vals[-k:], vecs[:, -k:] + 1e-6

    monkeypatch.setattr(eigen, "eigsh", inaccurate)
    W, _ = cliques_graph((6, 5, 4, 3))
    with pytest.raises(EigenSolverError, match="did not reach") as info:
        truncated_eigs(W, 3)
    assert info.value.residual > eigen.RESIDUAL_TOL


def test_laplacian_eigs_checks_residuals(monkeypatch, no_dense_fallback):
    def inaccurate(L, k, **kwargs):
        vals, vecs = np.linalg.eigh(L @ np.eye(L.shape[0]))
        return vals[1 : k + 1], vecs[:, 1 : k + 1] + 1e-6

    monkeypatch.setattr(eigen, "eigsh", inaccurate)
    W, _ = cliques_graph((6, 5, 4, 3))
    W = from_dense(W.to_dense() + np.diag(np.ones(17), 1) + np.diag(np.ones(17), -1))
    with pytest.raises(EigenSolverError, match="did not reach") as info:
        laplacian_eigs(W, symmetric_normalize(W), 3)
    assert info.value.residual > eigen.RESIDUAL_TOL


@pytest.mark.xfail(strict=False, reason=(
    "ARPACK on the projected, rank-deficient shift-invert operator varies its bytes from call "
    "to call, most likely through its restart vector after a Lanczos breakdown; whether this "
    "reproduces depends on the ARPACK build"))
def test_laplacian_eigs_repeats_its_bytes_on_a_triple_eigenvalue(no_dense_fallback):
    # 202 stored entries, 2 isolated nodes and 4 components with edges; L's
    # eigenvalue 1 is triple.  random_state=2 is the draw that shows it.
    A = sp.random(60, 60, density=8 / 60, random_state=2)
    D = (A + A.T).toarray()
    np.fill_diagonal(D, 0.0)
    block = np.repeat(np.arange(4), 15)
    D[block[:, None] != block[None, :]] = 0.0
    W = SparseSymmetricMatrix(sp.csr_matrix(D))
    N = symmetric_normalize(W)
    first, second = laplacian_eigs(W, N, 31), laplacian_eigs(W, N, 31)
    assert first.values.tobytes() == second.values.tobytes()
    assert first.vectors.tobytes() == second.vectors.tobytes()


@pytest.mark.parametrize("call, match", [
    (lambda: EigenPairs(values=np.ones(2), vectors=np.eye(3)), "inconsistent shapes"),
    (lambda: laplacian_eigs(*[cliques_graph((3,))[0]] * 2, 0), "need 1 <= r <= m, got r=0, m=3"),
    (lambda: laplacian_eigs(*[cliques_graph((3,))[0]] * 2, 4), "need 1 <= r <= m, got r=4, m=3"),
], ids=["pairs-shapes", "laplacian-r-zero", "laplacian-r-above-m"])
def test_eigen_rejects_bad_arguments(call, match):
    with pytest.raises(EigenSolverError, match=match):
        call()
