"""The benchmark's workloads: op definitions, input generation and output checks.

Every workload cycles through a fixed pool of inputs: op i runs input
i % pool, and that input's seed derives from the workload seed and its pool
index.  The timed loop always runs at least `min_ops` ops, whole cycles of the
workload's shapes, and f_measure is the mean over those ops only, so it
depends on the seed and not on how many ops fit in the run.  `f_floor` is
the lowest F an op may score; it sits well below every op seen at the
commit that defined the benchmark.  Each op is one call into the package, made the way a user would make
it; `check` then validates what the op produced and returns the number of
points clustered and the op's F-measure against ground truth.

This module must be imported before the tracer is installed: it keeps
references to the unwrapped package functions it uses for its own scoring
and input generation, so that they never appear as spans.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

import numpy as np

import spectacl
from spectacl import cli
from spectacl.datagen import SyntheticSpec, generate
from spectacl.kmeans import NOISE, Clustering
from spectacl.metrics import f_measure

from sbm import planted_partition, write_edge_list


class CheckError(AssertionError):
    """An op produced output that fails the benchmark's checks."""


def op_seed(seed: int, index: int) -> int:
    """Dataset seed of pool input `index` under workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _distinct_clusters(labels) -> int:
    return int(np.unique(labels[labels != NOISE]).size)


def check_captures(captures, expected_calls: int) -> int:
    """Check every clustering call of an op; returns the points clustered.

    A call fails when its label vector does not have one entry per input
    point, or, for the spectral pipelines, when it does not use exactly r
    clusters.
    """
    if len(captures) != expected_calls:
        raise CheckError(f"expected {expected_calls} clustering calls, saw {len(captures)}")
    for cap in captures:
        if cap.labels.shape != (cap.points,):
            raise CheckError(f"{cap.name}: {cap.labels.shape[0]} labels for {cap.points} points")
        if cap.r is not None and _distinct_clusters(cap.labels) != cap.r:
            raise CheckError(
                f"{cap.name}: {_distinct_clusters(cap.labels)} clusters, requested {cap.r}")
    return sum(cap.points for cap in captures)


def _quiet_cli(argv) -> None:
    """cli.main with its one-line report swallowed; a nonzero exit fails the op."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise CheckError(f"cluster exited with code {code}")


def _read_labels(path, points: int) -> np.ndarray:
    table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    if table.shape != (points, 2) or not np.array_equal(table[:, 0], np.arange(points)):
        raise CheckError(f"{path}: expected {points} 'point,label' rows, got shape {table.shape}")
    return table[:, 1]


class PointsEps:
    """Library call spectacl(data, SpectaclConfig(r, d=50)) with automatic epsilon."""

    name = "points-eps"
    shapes = (("moons", 2), ("circles", 2), ("blobs", 3))
    m = 6000
    noise = 0.1
    pool = 12
    min_ops = 6
    f_floor = 0.35

    def setup(self, workdir: Path, seed: int) -> None:
        self.inputs = []
        for k in range(self.pool):
            shape, r = self.shapes[k % len(self.shapes)]
            spec = SyntheticSpec(shape=shape, m=self.m, noise=self.noise, seed=op_seed(seed, k))
            data, truth = generate(spec)
            self.inputs.append((data, truth, r))

    def warm_up(self, workdir: Path) -> None:
        data, _ = generate(SyntheticSpec(shape="moons", m=600, noise=self.noise, seed=0))
        spectacl.spectacl(data, spectacl.SpectaclConfig(r=2, d=50))

    def run(self, i: int):
        data, _, r = self.inputs[i % self.pool]
        return spectacl.spectacl(data, spectacl.SpectaclConfig(r=r, d=50))

    def check(self, i: int, result, captures) -> tuple[int, float]:
        _, truth, r = self.inputs[i % self.pool]
        points = check_captures(captures, 1)
        if not np.array_equal(captures[0].labels, result.labels):
            raise CheckError("returned labels differ from the pipeline's")
        return points, f_measure(result, truth).total_f


class GraphSbm:
    """`cluster --graph FILE --algo spectacl -r 15 -d 50` on a planted partition."""

    name = "graph-sbm"
    nodes = 3000
    blocks = 15
    pool = 6
    min_ops = 4
    f_floor = 0.5

    def setup(self, workdir: Path, seed: int) -> None:
        self.out = workdir / "sbm-labels.csv"
        self.inputs = []
        for k in range(self.pool):
            input_seed = op_seed(seed, k)
            edges, truth = planted_partition(input_seed, self.nodes, self.blocks)
            path = workdir / f"sbm-{k}.txt"
            write_edge_list(path, edges)
            self.inputs.append((path, input_seed, truth))

    def _argv(self, path, r, seed):
        return ["--graph", str(path), "--algo", "spectacl", "-r", str(r), "-d", "50",
                "--seed", str(seed), "--out", str(self.out)]

    def warm_up(self, workdir: Path) -> None:
        edges, _ = planted_partition(0, nodes=600, blocks=3)
        path = workdir / "sbm-warm-up.txt"
        write_edge_list(path, edges)
        _quiet_cli(self._argv(path, 3, 0))

    def run(self, i: int):
        path, seed, _ = self.inputs[i % self.pool]
        _quiet_cli(self._argv(path, self.blocks, seed))

    def check(self, i: int, result, captures) -> tuple[int, float]:
        _, _, truth = self.inputs[i % self.pool]
        points = check_captures(captures, 1)
        labels = _read_labels(self.out, self.nodes)
        if not np.array_equal(labels, captures[0].labels):
            raise CheckError("--out labels differ from the pipeline's")
        pred = Clustering(labels=labels, n_clusters=self.blocks)
        truth = Clustering(labels=truth, n_clusters=self.blocks)
        return points, f_measure(pred, truth).total_f


class SweepBaselines:
    """`cluster --sweep noise` over five noise levels with the sc and dbscan baselines."""

    name = "sweep-baselines"
    shapes = ("moons", "circles")
    values = ("0", "0.05", "0.1", "0.15", "0.2")
    algorithms = ("sc", "dbscan")
    m = 1500
    pool = 8
    min_ops = 6
    f_floor = 0.3

    def setup(self, workdir: Path, seed: int) -> None:
        self.out = workdir / "sweep.csv"
        self.seeds = [op_seed(seed, k) for k in range(self.pool)]

    def _argv(self, shape, m, seed, values):
        return ["--gen", shape, "--m", str(m), "--seed", str(seed), "--sweep", "noise",
                "--values", ",".join(values), "--repeats", "1",
                "--algo", ",".join(self.algorithms), "-r", "2", "--out", str(self.out)]

    def warm_up(self, workdir: Path) -> None:
        _quiet_cli(self._argv("moons", 300, 0, self.values[:2]))

    def run(self, i: int):
        k = i % self.pool
        _quiet_cli(self._argv(self.shapes[k % len(self.shapes)], self.m, self.seeds[k],
                              self.values))

    def check(self, i: int, result, captures) -> tuple[int, float]:
        calls = len(self.values) * len(self.algorithms)
        points = check_captures(captures, calls)
        if any(cap.points != self.m for cap in captures):
            raise CheckError("a sweep call clustered the wrong number of points")
        with open(self.out, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.DictReader(fh) if row["repeat"] == "0"]
        grid = [(float(row["axis_value"]), row["algorithm"]) for row in rows]
        expected = [(float(v), a) for v in self.values for a in self.algorithms]
        if grid != expected:
            raise CheckError(f"sweep grid {grid} differs from {expected}")
        scores = [float(row["f_measure"]) for row in rows]
        if not all(0.0 <= f <= 1.0 for f in scores):
            raise CheckError(f"F-measure outside [0, 1]: {scores}")
        return points, math.fsum(scores) / len(scores)


WORKLOADS = {w.name: w for w in (PointsEps, GraphSbm, SweepBaselines)}
