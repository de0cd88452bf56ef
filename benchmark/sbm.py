"""Seeded planted-partition graphs with ground truth, written as edge lists.

The package's own generators only make point clouds; the graph-native
workload needs a graph whose clusters are known.  Nodes fall into equal
blocks; each within-block pair is an edge with probability
deg_in / (block_size - 1) and each cross-block pair with probability
deg_out / (nodes - block_size), so the expected within- and cross-block
degrees are deg_in and deg_out.  Node ids are shuffled so that blocks are not
contiguous index ranges.
"""

from __future__ import annotations

import numpy as np


def planted_partition(seed: int, nodes: int = 3000, blocks: int = 15,
                      deg_in: float = 16.0, deg_out: float = 2.0):
    """Return (edges, truth): an (E, 2) int array of pairs j < l, sorted, and
    the block of every node.  The same arguments give the same graph."""
    if nodes % blocks or nodes // blocks < 2:
        raise ValueError(f"need equal blocks of at least 2 nodes, got {nodes}/{blocks}")
    size = nodes // blocks
    rng = np.random.default_rng(seed)
    p_in = deg_in / (size - 1)
    p_out = deg_out / (nodes - size)

    rows, cols = np.triu_indices(size, 1)
    parts = []
    for b in range(blocks):
        hit = rng.random(rows.size) < p_in
        parts.append(np.column_stack([rows[hit], cols[hit]]) + b * size)
    for a in range(blocks):
        for b in range(a + 1, blocks):
            hit = np.flatnonzero(rng.random(size * size) < p_out)
            parts.append(np.column_stack([a * size + hit // size, b * size + hit % size]))
    edges = np.vstack(parts)
    block = np.repeat(np.arange(blocks), size)

    # an isolated node would shrink the node count read back from the file,
    # so each one gets an edge to a random member of its own block
    degree = np.bincount(edges.ravel(), minlength=nodes)
    extra = []
    for v in np.flatnonzero(degree == 0):
        mate = int(rng.integers(size - 1))
        base = block[v] * size
        mate += base + (mate + base >= v)
        extra.append((v, mate))
    if extra:
        edges = np.vstack([edges, np.array(extra)])

    perm = rng.permutation(nodes)
    edges = np.unique(np.sort(perm[edges], axis=1), axis=0)
    truth = np.empty(nodes, dtype=np.int64)
    truth[perm] = block
    return edges, truth


def write_edge_list(path, edges) -> int:
    """Write one "j l" line per edge; returns the bytes written."""
    text = "".join(f"{j} {l}\n" for j, l in edges.tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return len(text)
