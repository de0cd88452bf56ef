import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectacl.kmeans import Clustering, ClusteringError, kmeans

import conftest
from conftest import (
    exhaustive_best_inertia,
    labeling_inertia,
    reference_kmeans,
    reference_restarts,
    trace_objective,
)

# the package attribute spectacl.kmeans is the function, not the module
kmeans_module = importlib.import_module("spectacl.kmeans")


def two_blob_points(rng, m=6, sep=5.0, sigma=0.01):
    half = m // 2
    a = rng.normal(0.0, sigma, size=(half, 2))
    b = rng.normal(0.0, sigma, size=(m - half, 2)) + np.array([sep, sep])
    return np.vstack([a, b]), np.array([0] * half + [1] * (m - half))


def test_coincident_pairs_zero_inertia():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0], [10.0, 10.0]])
    res = kmeans(X, 2, restarts=5, seed=0)
    assert res.inertia == 0.0
    got = {tuple(c) for c in res.centroids}
    assert got == {(0.0, 0.0), (10.0, 10.0)}


def test_single_cluster_closed_form(rng):
    X = rng.standard_normal((12, 3))
    res = kmeans(X, 1, restarts=1, seed=0)
    assert np.allclose(res.centroids[0], X.mean(axis=0))
    scatter = ((X - X.mean(axis=0)) ** 2).sum()
    assert res.inertia == pytest.approx(scatter, abs=1e-10)


def test_two_blobs_match_exhaustive_oracle(rng):
    X, labels = two_blob_points(rng)
    res = kmeans(X, 2, restarts=10, seed=0)
    best = exhaustive_best_inertia(X, 2)
    assert res.inertia == pytest.approx(best, abs=1e-8)
    # and the partition is the blob split
    out = res.clustering.labels
    assert len(set(out[:3])) == 1 and len(set(out[3:])) == 1 and out[0] != out[3]


def test_inertia_non_increasing_in_max_iter(rng, monkeypatch):
    X = rng.standard_normal((60, 4))
    inertias = []
    for max_iter in range(1, 15):
        monkeypatch.setattr(kmeans_module, "MAX_ITER", max_iter)
        inertias.append(kmeans(X, 5, restarts=1, seed=1).inertia)
    steps = np.diff(inertias)
    assert np.all(steps <= 1e-9)
    assert np.any(steps < 0)  # the cap really cut some runs short


def assert_same_result(got, want):
    assert np.array_equal(got.clustering.labels, want.clustering.labels)
    assert got.clustering.n_clusters == want.clustering.n_clusters
    assert np.array_equal(got.centroids, want.centroids)
    assert got.inertia == want.inertia
    assert got.iterations == want.iterations


def lattice_points(rng, m, side):
    """Points on a side x side integer lattice.  With fewer distinct points
    than clusters, seeding picks a point twice and a cluster starts empty."""
    return rng.integers(0, side, size=(m, 2)).astype(float)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["gaussian", "lattice"]),
       st.integers(1, 6), st.integers(1, 4))
@example(seed=28514, kind="gaussian", r=2, restarts=1)  # one column: numpy sums it pairwise
def test_kmeans_matches_reference(seed, kind, r, restarts):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(r, 40))
    if kind == "gaussian":
        X = rng.standard_normal((m, int(rng.integers(1, 5))))
    else:
        X = lattice_points(rng, m, int(rng.integers(2, 4)))
    want, _ = reference_kmeans(X, r, restarts=restarts, seed=seed)
    assert_same_result(kmeans(X, r, restarts=restarts, seed=seed), want)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["gaussian", "lattice"]), st.integers(1, 6))
def test_kmeanspp_seeding_matches_reference(seed, kind, r):
    """Seeding computes no distances after its last draw, and so makes the
    same random calls as the reference loop and draws the same centres; a
    one-point lattice takes the uniform draw of an all-zero distance sum."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(r, 40))
    if kind == "gaussian":
        X = rng.standard_normal((m, int(rng.integers(1, 5))))
    else:
        X = lattice_points(rng, m, int(rng.integers(1, 4)))
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = kmeans_module._kmeanspp_init(X, r, got_rng)
    want = conftest.reference_kmeanspp_init(X, r, want_rng)
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


# Inputs on which the one-product screen of the assignment step is inaccurate
# or not finite, so only the exact recheck reproduces the reference labels: an
# offset cancels most of |c|^2 - 2 c.x, an offset near 2^512 overflows it and
# tiny scales take it into subnormal numbers.  Without a tolerance the screen
# fails the 2^24 and 2^511 offsets; without its absolute term, the 2^-538 scale.
ILL_SCALED = [
    pytest.param(2.0**24, 1.0, id="offset-2^24"),
    pytest.param(2.0**511, 2.0**490, id="offset-2^511"),
    pytest.param(0.0, 2.0**500, id="scale-2^500"),
    pytest.param(0.0, 2.0**-500, id="scale-2^-500"),
    pytest.param(0.0, 2.0**-538, id="scale-2^-538"),
]


@pytest.mark.parametrize("shift, scale", ILL_SCALED)
def test_kmeans_matches_reference_on_ill_scaled_points(shift, scale):
    for seed in range(30):
        rng = np.random.default_rng(seed)
        m, r = int(rng.integers(20, 60)), int(rng.integers(2, 7))
        if seed % 2:
            X = rng.standard_normal((m, int(rng.integers(1, 5))))
        else:
            X = lattice_points(rng, m, 4)
        X = X * scale + shift
        want, _ = reference_kmeans(X, r, restarts=2, seed=seed)
        assert_same_result(kmeans(X, r, restarts=2, seed=seed), want)


_THREADED_RUN = """
import hashlib
import numpy as np
from spectacl import kmeans
rng = np.random.default_rng(0)
centres = 3.0 * rng.standard_normal((15, 50))
X = centres[rng.integers(15, size=3000)] + rng.standard_normal((3000, 50))
res = kmeans(X, 15, seed=0)
digest = hashlib.sha256()
for part in (res.clustering.labels, res.centroids, np.float64(res.inertia), np.int64(res.iterations)):
    digest.update(np.ascontiguousarray(part).tobytes())
print(digest.hexdigest())
"""


def test_kmeans_result_bytes_independent_of_blas_threads():
    src = str(Path(kmeans_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _THREADED_RUN], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def threaded_input():
    """The input of _THREADED_RUN: 3000 points in 50 dimensions around 15 centres."""
    rng = np.random.default_rng(0)
    centres = 3.0 * rng.standard_normal((15, 50))
    return centres[rng.integers(15, size=3000)] + rng.standard_normal((3000, 50))


@pytest.mark.parametrize("cap", [None, 6], ids=["converged", "capped"])
def test_lockstep_restarts_stopping_at_different_passes(monkeypatch, cap):
    """The restarts stop after 4 to 11 passes; capped at 6, some converge and
    the rest stop at the cap."""
    if cap is not None:
        monkeypatch.setattr(kmeans_module, "MAX_ITER", cap)
        monkeypatch.setattr(conftest, "MAX_ITER", cap)
    X = threaded_input()
    stops = [result.iterations for result, _ in reference_restarts(X, 15, restarts=10)]
    assert len(set(stops)) > 1
    if cap is not None:
        assert min(stops) < cap == max(stops)
    want, _ = reference_kmeans(X, 15, restarts=10, seed=0)
    assert_same_result(kmeans(X, 15, restarts=10, seed=0), want)


# (seed, r, x): points (x, 0) on the integer lattice where, of 4 restarts,
# exactly one empties a cluster in a Lloyd pass and needs the repair
ONE_RESTART_REPAIRED = [
    (1771, 7, [-704, -688, 684, -1684, 1086, -618, 978, -937, -310, 1184, 183, 324, -477,
               -406, -1231, -625, -1004, -306, -691]),
    (2071, 7, [411, 53, -360, 510, -122, 893, 1781, -625, -96, 139, 1322, 525, -418, 1985,
               -1299, -231, 980, 983, -406, 109]),
    (4858, 8, [1080, 999, -1406, -309, -1740, 765, 1082, 483, -1307, 752, 155, 708, 1312,
               1216, -44, -836, -1327, 114, 1308, -766, -1849]),
]


@pytest.mark.parametrize("seed, r, x", ONE_RESTART_REPAIRED,
                         ids=[f"seed-{case[0]}" for case in ONE_RESTART_REPAIRED])
def test_lockstep_repairs_one_restart_alone(seed, r, x):
    X = np.column_stack([x, np.zeros(len(x))])
    repaired = [reseeded > 0 for _, reseeded in reference_restarts(X, r, restarts=4, seed=seed)]
    assert sum(repaired) == 1
    want, _ = reference_kmeans(X, r, restarts=4, seed=seed)
    assert_same_result(kmeans(X, r, restarts=4, seed=seed), want)


@pytest.mark.parametrize("budget", [1, 8960], ids=["groups-of-one", "groups-of-two"])
def test_restart_groups_and_recheck_chunks_match_reference(monkeypatch, budget):
    """Restarts run in groups, and the exact recheck in chunks, under
    LOCKSTEP_BYTES: 8960 bytes hold the pass arrays of two restarts at r = 4
    and m = 40, and 1 byte makes groups and chunks of one.  The offset leaves
    rows to the recheck."""
    monkeypatch.setattr(kmeans_module, "LOCKSTEP_BYTES", budget)
    for seed in range(10):
        X = np.random.default_rng(seed).standard_normal((40, 3)) + 2.0**24
        want, _ = reference_kmeans(X, 4, restarts=5, seed=seed)
        assert_same_result(kmeans(X, 4, restarts=5, seed=seed), want)


def test_lattice_inputs_reach_repair():
    repairs = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = lattice_points(rng, 30, 2)
        want, reseeded = reference_kmeans(X, 6, restarts=3, seed=seed)
        assert_same_result(kmeans(X, 6, restarts=3, seed=seed), want)
        repairs += reseeded
    assert repairs > 0


def test_centroids_are_exact_means(rng):
    X = rng.standard_normal((40, 3))
    res = kmeans(X, 4, restarts=2, seed=3)
    for s in range(4):
        members = X[res.clustering.labels == s]
        assert members.shape[0] > 0
        assert np.array_equal(res.centroids[s], members.mean(axis=0))


def test_inertia_consistency(rng):
    X = rng.standard_normal((30, 2))
    res = kmeans(X, 3, restarts=2, seed=0)
    recomputed = sum(
        ((X[res.clustering.labels == s] - res.centroids[s]) ** 2).sum() for s in range(3)
    )
    assert res.inertia == pytest.approx(recomputed, abs=1e-8)


def test_determinism_same_seed(rng):
    X = rng.standard_normal((50, 3))
    a = kmeans(X, 4, restarts=5, seed=42)
    b = kmeans(X, 4, restarts=5, seed=42)
    assert np.array_equal(a.clustering.labels, b.clustering.labels)
    assert a.inertia == b.inertia


def test_restart_prefix_dominance(rng):
    X = rng.standard_normal((40, 6))
    inertias = [kmeans(X, 5, restarts=k, seed=7).inertia for k in range(1, 6)]
    assert all(b <= a + 1e-12 for a, b in zip(inertias, inertias[1:]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_scatter_identity(seed, r):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(r, 20))
    X = rng.standard_normal((m, 3))
    labels = np.zeros(m, dtype=np.int64)
    labels[rng.permutation(m)[:r]] = np.arange(r)  # guarantee non-empty clusters
    rest = labels == 0
    labels[rest] = rng.integers(0, r, size=int(rest.sum()))
    labels[rng.permutation(m)[:r]] = np.arange(r)
    cl = Clustering(labels=labels, n_clusters=r)
    total_scatter = float((X**2).sum())
    assert labeling_inertia(X, cl) + trace_objective(X, cl) == pytest.approx(
        total_scatter, abs=1e-8
    )


def test_trace_objective_single_cluster(rng):
    X = rng.standard_normal((9, 2))
    cl = Clustering(labels=np.zeros(9, dtype=np.int64), n_clusters=1)
    colsum = X.sum(axis=0)
    assert trace_objective(X, cl) == pytest.approx(colsum @ colsum / 9, abs=1e-10)


def test_trace_objective_one_hot_singletons():
    X = np.eye(4)
    cl = Clustering(labels=np.arange(4), n_clusters=4)
    assert trace_objective(X, cl) == pytest.approx(4.0)


def test_trace_objective_perfect_split_dominates(rng):
    X, labels = two_blob_points(rng, m=6)
    true_val = trace_objective(X, Clustering(labels=labels, n_clusters=2))
    for bits in range(1, 2**5):
        other = np.zeros(6, dtype=np.int64)
        for j in range(1, 6):
            other[j] = (bits >> (j - 1)) & 1
        if not (other == 1).any():
            continue
        if np.array_equal(other, labels) or np.array_equal(1 - other, labels):
            continue
        val = trace_objective(X, Clustering(labels=other, n_clusters=2))
        assert val <= true_val + 1e-9


def test_trace_objective_empty_cluster_errors(rng):
    X = rng.standard_normal((4, 2))
    cl = Clustering(labels=np.zeros(4, dtype=np.int64), n_clusters=2)
    with pytest.raises(ClusteringError, match="empty"):
        trace_objective(X, cl)


def test_kmeans_rejects_r_above_m():
    with pytest.raises(ClusteringError):
        kmeans(np.zeros((3, 2)), 4)


def test_kmeans_rejects_nonfinite():
    with pytest.raises(ClusteringError):
        kmeans(np.array([[np.inf, 0.0]]), 1)


def test_clustering_label_validation():
    with pytest.raises(ClusteringError):
        Clustering(labels=np.array([0, 3]), n_clusters=2)
    cl = Clustering(labels=np.array([0, -1]), n_clusters=1)
    assert cl.has_noise
    assert cl.sizes().tolist() == [1]


@pytest.mark.parametrize("call, match", [
    (lambda: Clustering(labels=np.zeros((2, 2)), n_clusters=1),
     r"labels must be 1-d, got shape \(2, 2\)"),
    (lambda: kmeans(np.zeros(3), 1), r"data must be 2-d, got shape \(3,\)"),
    (lambda: kmeans(np.zeros((3, 2)), 1, restarts=0), "need restarts >= 1, got 0"),
    (lambda: Clustering(labels=np.array([0.5, 1.2]), n_clusters=2),
     "labels must be integers, got 0.5"),
    (lambda: Clustering(labels=np.array([0.0, np.nan]), n_clusters=1),
     "labels must be integers, got nan"),
    (lambda: Clustering(labels=np.array([-1]), n_clusters=-3), "need n_clusters >= 0, got -3"),
    (lambda: Clustering(labels=np.array([0j]), n_clusters=1),
     "labels must be real numbers, got complex128"),
    (lambda: Clustering(labels=["0", "1"], n_clusters=2), "labels must be real numbers, got <U1"),
    (lambda: kmeans(np.array([[1 + 1j], [2]]), 1), "data must be real numbers, got complex128"),
    (lambda: kmeans([["1"], ["2"]], 1), "data must be real numbers, got <U1"),
    (lambda: kmeans(np.zeros((3, 2)), 1, seed=-1), "need seed >= 0, got -1"),
], ids=["labels-2d", "data-1d", "restarts-zero", "labels-fractional", "labels-nan",
        "n-clusters-negative", "labels-complex", "labels-strings", "data-complex", "data-strings",
        "seed-negative"])
def test_kmeans_rejects_bad_arguments(call, match):
    with pytest.raises(ClusteringError, match=match):
        call()
