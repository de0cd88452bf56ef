"""Label and graph fingerprints of a fixed corpus, and the table that keeps them.

The corpus is every pipeline (spectacl, spectacl-norm, sc, dbscan) on moons,
circles and blobs at m = 1500, noise 0 and 0.1, seeds 0-2, each with its
default parameters, plus spectacl and sc on a weighted planted-partition
edge list built here.  A labels row holds the SHA-256 of the int64 labels,
the cluster sizes (and the noise count, when there is noise) and F to 6
digits.  A graph row holds the SHA-256 of the CSR arrays of the epsilon
graph at the automatic radius, the 10-NN graph and its normalization on each
dataset, and of the edge list's adjacency.

Rewrite the table after a change that moves a fingerprint on purpose, and
list every changed id in CHANGES.md:

    PYTHONPATH=src python tests/fingerprints.py
"""

from __future__ import annotations

import csv
import hashlib
import io
import platform
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy

from spectacl.datagen import SyntheticSpec, generate
from spectacl.dataio import EdgeList
from spectacl.graph import (
    adjacency_from_edge_list,
    choose_epsilon,
    epsilon_graph,
    knn_graph,
    symmetric_normalize,
)
from spectacl.kmeans import NOISE, Clustering
from spectacl.metrics import f_measure
from spectacl.pipelines import (
    DbscanConfig,
    SpectaclConfig,
    dbscan,
    spectacl,
    spectral_clustering,
)

TABLE = Path(__file__).with_name("fingerprints.csv")
HEADER = ("id", "sha256", "sizes", "f")
SHAPES = {"moons": 2, "circles": 2, "blobs": 3}
NOISES = (0.0, 0.1)
SEEDS = (0, 1, 2)
M = 1500
ALGORITHMS = {
    "spectacl": lambda data, r: spectacl(data, SpectaclConfig(r=r)),
    "spectacl-norm": lambda data, r: spectacl(data, SpectaclConfig(r=r, variant="normalized")),
    "sc": lambda data, r: spectral_clustering(data, r),
    "dbscan": lambda data, r: dbscan(data, DbscanConfig()),
}


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(arr.dtype.str.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def graph_row(row_id, W) -> tuple[str, str, str, str]:
    mat = W.matrix
    return row_id, _sha256(np.array(mat.shape), mat.indptr, mat.indices, mat.data), "", ""


def labels_row(row_id, clustering, truth) -> tuple[str, str, str, str]:
    labels = clustering.labels.astype(np.int64)
    sizes = " ".join(map(str, np.bincount(labels[labels != NOISE],
                                          minlength=clustering.n_clusters)))
    noise = int(np.count_nonzero(labels == NOISE))
    if noise:
        sizes += f" noise:{noise}"
    return row_id, _sha256(labels), sizes, f"{f_measure(clustering, truth).total_f:.6f}"


def planted_edge_list():
    """(EdgeList, truth): 300 nodes in 3 blocks, edges inside a block with
    probability 0.1 and across with 0.01, weights uniform in [0.5, 2)."""
    rng = np.random.default_rng(0)
    block = np.arange(300) // 100
    j, l = np.triu_indices(300, 1)
    keep = rng.random(j.size) < np.where(block[j] == block[l], 0.1, 0.01)
    pairs = np.column_stack([j[keep], l[keep]])
    weights = rng.uniform(0.5, 2.0, size=len(pairs))
    return (EdgeList(node_count=300, pairs=pairs, weights=weights),
            Clustering(labels=block, n_clusters=3))


def fingerprints():
    """The corpus's rows, in table order."""
    with warnings.catch_warnings():
        # noise-free datasets leave isolated points and extra components;
        # the pipelines warn about them, and the fingerprints pin what they do
        warnings.simplefilter("ignore", UserWarning)
        return _fingerprints()


def _fingerprints():
    rows = []
    for shape, r in SHAPES.items():
        for noise in NOISES:
            for seed in SEEDS:
                data, truth = generate(SyntheticSpec(shape=shape, m=M, noise=noise, seed=seed))
                tag = f"{shape}/{noise:g}/{seed}"
                for name, run in ALGORITHMS.items():
                    rows.append(labels_row(f"{name}/{tag}", run(data, r), truth))
                knn = knn_graph(data, 10)
                rows.append(graph_row(f"graph/epsilon/{tag}",
                                      epsilon_graph(data, choose_epsilon(data))))
                rows.append(graph_row(f"graph/knn/{tag}", knn))
                rows.append(graph_row(f"graph/normalized/{tag}", symmetric_normalize(knn)))
    edges, truth = planted_edge_list()
    W = adjacency_from_edge_list(edges)
    rows.append(graph_row("graph/edge-list", W))
    rows.append(labels_row("spectacl/edge-list", spectacl(W, SpectaclConfig(r=3)), truth))
    rows.append(labels_row("sc/edge-list", spectral_clustering(W, 3), truth))
    return rows


def format_table(rows, recorded_with) -> str:
    out = io.StringIO()
    out.write("# " + ", ".join(f"{k} {v}" for k, v in recorded_with.items()) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows(rows)
    return out.getvalue()


def read_table(path=TABLE):
    """(rows, versions) of a table written by format_table."""
    first, *rest = Path(path).read_text(encoding="utf-8").splitlines()
    recorded_with = dict(item.split(" ", 1) for item in first.removeprefix("# ").split(", "))
    header, *rows = csv.reader(rest)
    assert tuple(header) == HEADER, header
    return [tuple(row) for row in rows], recorded_with


if __name__ == "__main__":
    TABLE.write_text(format_table(fingerprints(), versions()), encoding="utf-8")
    print(f"wrote {TABLE}", file=sys.stderr)
