import numpy as np
import pytest

from spectacl.eigen import EigenPairs, truncated_eigs
from spectacl.embedding import project_embedding
from spectacl.metrics import density

from conftest import from_dense, full_dense_eigs, projected_density_check, random_epsilon_graph


def pairs_of(values, vectors):
    return EigenPairs(values=np.array(values, float), vectors=np.array(vectors, float))


def test_projection_removes_signs():
    s = 1 / np.sqrt(2)
    pairs = pairs_of([-1.0], [[s], [-s]])
    U = project_embedding(pairs)
    assert np.allclose(U, [[s], [s]])


def test_projection_zero_eigenvalue_column():
    pairs = pairs_of([0.0], [[0.6], [-0.8]])
    assert np.all(project_embedding(pairs) == 0.0)


def test_projection_scales_by_sqrt_abs():
    pairs = pairs_of([4.0], [[0.6], [-0.8]])
    U = project_embedding(pairs)
    assert np.allclose(U, [[1.2], [1.6]])


def test_column_norms_equal_sqrt_abs_eigenvalue(rng):
    data, W = random_epsilon_graph(rng, 40)
    pairs = truncated_eigs(W, 6)
    U = project_embedding(pairs)
    for i, lam in enumerate(pairs.values):
        expected = 0.0 if abs(lam) < 1e-12 else np.sqrt(abs(lam))
        assert np.linalg.norm(U[:, i]) == pytest.approx(expected, abs=1e-10)


def test_projection_idempotent_under_abs(rng):
    data, W = random_epsilon_graph(rng, 30)
    U = project_embedding(truncated_eigs(W, 5))
    assert np.array_equal(np.abs(U), U)


def test_perron_vector_density_is_top_eigenvalue():
    # nonnegative matrix whose top eigenvector is already nonnegative
    A = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    W = from_dense(A)
    pairs = full_dense_eigs(A)
    checks = projected_density_check(W, pairs)
    lam1, delta1 = checks[0]
    assert delta1 == pytest.approx(lam1, abs=1e-10)


def test_two_cycle_projection_bound():
    W = from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    pairs = truncated_eigs(W, 2)
    for lam_abs, delta in projected_density_check(W, pairs):
        assert lam_abs == pytest.approx(1.0)
        assert delta == pytest.approx(1.0, abs=1e-12)


def test_density_bound_on_random_epsilon_graphs(rng):
    for _ in range(30):
        m = int(rng.integers(12, 60))
        data, W = random_epsilon_graph(rng, m)
        d = min(8, m - 1)
        pairs = truncated_eigs(W, d)
        for lam_abs, delta in projected_density_check(W, pairs):
            assert delta >= lam_abs - 1e-8


def test_density_check_agrees_with_metric(rng):
    data, W = random_epsilon_graph(rng, 25)
    pairs = truncated_eigs(W, 4)
    checks = projected_density_check(W, pairs)
    for i, (lam_abs, delta) in enumerate(checks):
        u = np.abs(pairs.vectors[:, i])
        assert delta == pytest.approx(density(u, W), abs=1e-12)


def test_dimension_mismatch():
    W = from_dense(np.zeros((3, 3)))
    pairs = pairs_of([1.0], [[1.0], [0.0]])
    with pytest.raises(ValueError, match="mismatch"):
        projected_density_check(W, pairs)

