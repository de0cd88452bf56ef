import numpy as np
import pytest

from spectacl.datagen import BLOB_BOX, DataGenError, SyntheticSpec, generate


def test_circles_noise_free_radii():
    data, truth = generate(SyntheticSpec(shape="circles", m=40, noise=0.0, seed=1))
    norms = np.linalg.norm(data.values, axis=1)
    outer = norms[truth.labels == 0]
    inner = norms[truth.labels == 1]
    assert np.allclose(outer, 1.0, atol=1e-12)
    assert np.allclose(inner, 0.5, atol=1e-12)


def test_circles_factor_controls_radius_ratio():
    data, truth = generate(
        SyntheticSpec(shape="circles", m=40, noise=0.0, seed=1, factor=0.25)
    )
    norms = np.linalg.norm(data.values, axis=1)
    assert np.allclose(norms[truth.labels == 1], 0.25, atol=1e-12)


def test_moons_m4_noise_free():
    data, truth = generate(SyntheticSpec(shape="moons", m=4, noise=0.0, seed=3))
    assert truth.labels.tolist() == [0, 0, 1, 1]
    # upper moon on the unit circle around the origin, y >= 0
    upper = data.values[:2]
    assert np.allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)
    assert np.all(upper[:, 1] >= 0)
    # lower moon on the unit circle around (1, 0.5), y <= 0.5
    lower = data.values[2:]
    assert np.allclose(np.linalg.norm(lower - [1.0, 0.5], axis=1), 1.0, atol=1e-12)
    assert np.all(lower[:, 1] <= 0.5)


def test_determinism_bit_identical():
    spec = SyntheticSpec(shape="blobs", m=100, noise=0.05, seed=9)
    d1, t1 = generate(spec)
    d2, t2 = generate(spec)
    assert np.array_equal(d1.values, d2.values)
    assert np.array_equal(t1.labels, t2.labels)


@pytest.mark.parametrize("shape", ["moons", "circles"])
@pytest.mark.parametrize("m", [7, 100])
def test_class_balance(shape, m):
    _, truth = generate(SyntheticSpec(shape=shape, m=m, noise=0.1, seed=0))
    sizes = truth.sizes()
    assert abs(sizes[0] - sizes[1]) <= 1


def test_blobs_balanced_and_boxed():
    data, truth = generate(SyntheticSpec(shape="blobs", m=92, noise=0.0, seed=4))
    sizes = truth.sizes()
    assert sizes.max() - sizes.min() <= 1
    centers = np.array([data.values[truth.labels == c].mean(axis=0) for c in range(3)])
    assert np.all(centers >= -0.5) and np.all(centers <= BLOB_BOX + 0.5)


def test_noise_statistics():
    base_spec = SyntheticSpec(shape="circles", m=1500, noise=0.0, seed=11)
    noisy_spec = SyntheticSpec(shape="circles", m=1500, noise=0.1, seed=11)
    base, _ = generate(base_spec)
    noisy, _ = generate(noisy_spec)
    dev = (noisy.values - base.values).ravel()
    assert abs(dev.mean()) <= 0.01
    assert abs(dev.std() - 0.1) <= 0.01


def test_noise_statistics_moons():
    base, _ = generate(SyntheticSpec(shape="moons", m=1500, noise=0.0, seed=2))
    noisy, _ = generate(SyntheticSpec(shape="moons", m=1500, noise=0.2, seed=2))
    dev = (noisy.values - base.values).ravel()
    assert abs(dev.std() - 0.2) <= 0.02


def test_generated_matrix_is_two_dimensional():
    data, _ = generate(SyntheticSpec(shape="moons", m=10, noise=0.0, seed=0))
    assert data.n == 2


def test_spec_validation():
    with pytest.raises(DataGenError):
        SyntheticSpec(shape="spiral", m=10)
    with pytest.raises(DataGenError):
        SyntheticSpec(shape="moons", m=1)
    with pytest.raises(DataGenError):
        SyntheticSpec(shape="moons", m=10, noise=-0.1)
    with pytest.raises(DataGenError):
        SyntheticSpec(shape="circles", m=10, factor=1.5)
    with pytest.raises(DataGenError, match="at least one blob center"):
        SyntheticSpec(shape="blobs", m=10, centers=0)
    with pytest.raises(DataGenError, match="need seed >= 0, got -1"):
        SyntheticSpec(shape="moons", seed=-1)
