"""Metamorphic properties: transformations of the input that must leave the
output unchanged, or change it in a known way."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spectacl.datagen import SHAPES, SyntheticSpec, generate
from spectacl.dataio import DataMatrix, load_edge_list
from spectacl.graph import (
    SparseSymmetricMatrix,
    adjacency_from_edge_list,
    choose_epsilon,
    epsilon_graph,
)
from spectacl.kmeans import Clustering
from spectacl.metrics import f_measure
from spectacl.pipelines import DbscanConfig, SpectaclConfig, dbscan, spectacl

from conftest import assert_same_csr, cliques_graph


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(SHAPES), st.integers(150, 400), st.floats(0.02, 0.15),
       st.integers(0, 2**32 - 1), st.integers(-8, 8))
def test_scaling_by_power_of_two(shape, m, noise, seed, k):
    """Scaling by 2^k is exact in floating point, and so are the distances,
    the quantile and its nudge: the radius scales by 2^k and the graphs and
    labels are the same."""
    data, _ = generate(SyntheticSpec(shape=shape, m=m, noise=noise, seed=seed))
    scaled = DataMatrix(data.values * 2.0**k)
    radius = choose_epsilon(data)
    assert choose_epsilon(scaled) == radius * 2.0**k
    assert_same_csr(epsilon_graph(scaled, radius * 2.0**k), epsilon_graph(data, radius))
    r = 3 if shape == "blobs" else 2
    config = SpectaclConfig(r=r, d=10, restarts=3)
    assert np.array_equal(spectacl(scaled, config).labels, spectacl(data, config).labels)
    config = DbscanConfig(min_pts=5)
    assert np.array_equal(dbscan(scaled, config).labels, dbscan(data, config).labels)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2**32 - 1))
def test_split_duplicate_edges_merge(tmp_path_factory, node_count, seed):
    """An edge list with every edge written as two half-weight lines, in
    either orientation and any order, gives the same adjacency."""
    rng = np.random.default_rng(seed)
    j, l = np.triu_indices(node_count, 1)
    keep = rng.random(j.size) < 0.3
    keep[node_count - 2] = True  # the edge (0, node_count - 1) fixes node_count
    j, l, w = j[keep], l[keep], rng.uniform(0.1, 10.0, size=keep.sum())
    flip = rng.random(2 * j.size) < 0.5
    hj, hl = np.repeat(j, 2), np.repeat(l, 2)
    hj, hl = np.where(flip, hl, hj), np.where(flip, hj, hl)
    order = rng.permutation(2 * j.size)
    files = {
        "whole.txt": zip(j, l, w),
        "halves.txt": zip(hj[order], hl[order], np.repeat(w / 2, 2)[order]),
    }
    paths = []
    for name, edges in files.items():
        path = tmp_path_factory.mktemp("edges") / name
        path.write_text("".join(f"{a} {b} {float(x)!r}\n" for a, b, x in edges))
        paths.append(path)
    a, b = (adjacency_from_edge_list(load_edge_list(p)) for p in paths)
    assert_same_csr(a, b)


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(32)))
def test_spectacl_recovers_permuted_cliques(perm):
    W, truth = cliques_graph((5, 7, 9, 11))
    perm = np.asarray(perm)
    permuted = SparseSymmetricMatrix(sp.csr_matrix(W.matrix[perm][:, perm]))
    permuted_truth = Clustering(truth.labels[perm], truth.n_clusters)
    result = spectacl(permuted, SpectaclConfig(r=4, d=4))
    assert f_measure(result, permuted_truth).total_f == 1.0
