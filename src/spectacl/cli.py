"""Command-line harness: single clustering runs and parameter/noise sweeps.

The pipelines build the graph and report it with its radius; the CLI only
dispatches to them and scores the objective on the graph they return.  A
sweep axis is the dest of the argument it sweeps (`noise`, `epsilon`, `k`,
`d`): each grid point is the parsed arguments of a single run with that one
replaced.  A sweep is single-run calls: the call of every (grid point,
algorithm) is built and checked before the first clustering, then run and
scored by the code of a single run.  Usage errors write no CSV; a runtime
failure writes the rows so far and a closing `incomplete` row.

Exit codes: 0 success, 1 runtime failure, 2 usage error or invalid parameters.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import dataio, metrics, svg
from .datagen import SHAPES, DataGenError, SyntheticSpec, generate
from .dataio import DataMatrix
from .graph import adjacency_from_edge_list
from .kmeans import NOISE, Clustering
from .pipelines import (
    DbscanConfig,
    PipelineError,
    SpectaclConfig,
    check_cluster_count,
    check_spectral_clustering,
    dbscan,
    spectacl,
    spectral_clustering,
)

ALGORITHMS = ("spectacl", "spectacl-norm", "sc", "dbscan")
SWEEP_AXES = ("noise", "epsilon", "k", "d")
# which algorithms consume which swept parameter
AXIS_ALGORITHMS = {
    "noise": ALGORITHMS,
    "epsilon": ("spectacl", "dbscan"),
    "k": ("spectacl-norm", "sc"),
    "d": ("spectacl", "spectacl-norm"),
}


class UsageError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cluster",
        description="Run averagely-dense spectral clustering and baselines on "
        "generated shapes, CSV point files, or edge-list graphs.",
    )
    src = p.add_argument_group("data source (choose one)")
    src.add_argument("--gen", choices=SHAPES, help="generate a synthetic dataset")
    src.add_argument("--in", dest="infile", metavar="FILE", help="CSV of points, one row per point")
    src.add_argument("--graph", metavar="FILE", help="whitespace edge list 'j l [w]'")
    p.add_argument("--labeled", action="store_true",
                   help="the CSV's trailing column is the ground-truth class")
    p.add_argument("--delimiter", default=",", help="CSV field delimiter (default ,)")
    p.add_argument("--header", action="store_true", help="CSV has a header row")

    p.add_argument("--algo", default=None,
                   help="algorithm (default spectacl), or a comma list of "
                        "%s when sweeping (default: all for the axis)" % ",".join(ALGORITHMS))
    p.add_argument("-r", type=int, default=None, help="number of clusters")
    p.add_argument("-d", type=int, default=50, help="embedding dimension (default 50)")
    p.add_argument("--eps", default="auto", dest="epsilon",
                   help="ball radius, or 'auto' for the 90%%/10-neighbor rule (default auto)")
    p.add_argument("--knn", type=int, default=10, dest="k",
                   help="nearest-neighbor count (default 10)")
    p.add_argument("--min-pts", type=int, default=10, dest="min_pts",
                   help="dbscan core threshold (default 10)")
    p.add_argument("--noise", type=float, default=0.1,
                   help="generator noise sigma (default 0.1)")
    p.add_argument("--m", type=int, default=1500, help="generated point count (default 1500)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--restarts", type=int, default=10, help="k-means restarts (default 10)")
    p.add_argument("--repeats", type=int, default=5, help="datasets per sweep point (default 5)")
    p.add_argument("--sweep", choices=SWEEP_AXES, help="sweep this axis instead of a single run")
    p.add_argument("--values", help="comma-separated sweep values")
    p.add_argument("--out", metavar="FILE", help="labels CSV (run) or sweep CSV (sweep)")
    p.add_argument("--plot", metavar="FILE.svg", help="scatter (run) or F-curve chart (sweep)")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise UsageError(f"--seed must be nonnegative, got {args.seed}")
        if not args.delimiter:
            raise UsageError("--delimiter must not be empty")
        args.epsilon = _parse_eps(args.epsilon)
        if args.sweep:
            run_sweep(args)
        else:
            run_cluster(args)
    except (UsageError, PipelineError, DataGenError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _parse_eps(text):
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"--eps expects 'auto' or a number, got {text!r}") from None
    if not np.isfinite(value) or value <= 0:
        raise UsageError(f"--eps must be positive and finite, got {value}")
    return value


def _load_input(args):
    """Returns (source, truth): the DataMatrix or SparseSymmetricMatrix to
    cluster, and the ground truth if the input carries one."""
    sources = [s for s in (args.gen, args.infile, args.graph) if s]
    if len(sources) != 1:
        raise UsageError("choose exactly one of --gen, --in, --graph")
    if args.gen:
        spec = SyntheticSpec(shape=args.gen, m=args.m, noise=args.noise, seed=args.seed)
        return generate(spec)
    if args.infile:
        if args.labeled:
            data, labels = dataio.load_labeled_points(
                args.infile, delimiter=args.delimiter, has_header=args.header
            )
            classes, class_index = np.unique(labels, return_inverse=True)
            truth = Clustering(labels=class_index, n_clusters=len(classes))
            return data, truth
        data = dataio.load_points(args.infile, delimiter=args.delimiter, has_header=args.header)
        return data, None
    return adjacency_from_edge_list(dataio.load_edge_list(args.graph)), None


def _build_run(name, args):
    """The call that clusters points or a graph with the named algorithm and
    the parameters of the parsed arguments `args`.  Every check the run's
    config makes is made here, before any clustering.  The pipeline is looked
    up in this module when the call runs, so a wrapper patched onto its name
    after import (as benchmark/tracer.py does) is the one called."""
    if name not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {name!r}, expected one of {ALGORITHMS}")
    if name == "dbscan":
        config = DbscanConfig(epsilon=args.epsilon, min_pts=args.min_pts)
        return lambda source: dbscan(source, config)
    if args.r is None:
        raise UsageError(f"{name} requires -r")
    if name == "sc":
        check_spectral_clustering(args.r, args.restarts)
        return lambda source: spectral_clustering(source, args.r, k=args.k, seed=args.seed,
                                                  restarts=args.restarts)
    variant = "normalized" if name == "spectacl-norm" else "unnormalized"
    config = SpectaclConfig(
        r=args.r, variant=variant, epsilon=args.epsilon, knn=args.k, d=args.d,
        seed=args.seed, restarts=args.restarts,
    )
    return lambda source: spectacl(source, config)


def _run_and_score(run, source, truth):
    """(clustering, runtime_ms, F, NMI) of run(source); F and NMI are None
    without ground truth."""
    start = time.perf_counter()
    clustering = run(source)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    if truth is None:
        return clustering, runtime_ms, None, None
    return (clustering, runtime_ms, metrics.f_measure(clustering, truth).total_f,
            metrics.nmi(clustering, truth))


def run_cluster(args) -> None:
    source, truth = _load_input(args)
    algo = args.algo or "spectacl"
    if "," in algo:
        raise UsageError("a single run takes one --algo; comma lists are for --sweep")
    run = _build_run(algo, args)
    points = isinstance(source, DataMatrix)
    if args.epsilon is not None and (not points or algo not in AXIS_ALGORITHMS["epsilon"]):
        raise UsageError(f"--eps {args.epsilon:g} is unused: {algo} on this input builds no "
                         "epsilon graph")
    if algo == "dbscan" and not points:
        raise UsageError("dbscan needs point data, not a graph")
    if args.plot and not points:
        raise UsageError("--plot needs point data")
    if args.plot and source.n < 2:
        raise UsageError(f"--plot needs at least two coordinates per point, got {source.n}")
    clustering, runtime_ms, f_val, nmi_val = _run_and_score(run, source, truth)

    fields = [f"algorithm={algo}", f"m={clustering.m}", f"clusters={clustering.n_clusters}"]
    if clustering.epsilon is not None:
        tag = " (auto)" if args.epsilon is None else ""
        fields.append(f"epsilon={clustering.epsilon:.6g}{tag}")
    objective = metrics.average_density_objective(clustering, clustering.graph)
    fields.append(f"objective={objective:.6g}")
    if truth is not None:
        fields.append(f"F={f_val:.6g}")
        fields.append(f"NMI={nmi_val:.6g}")
    if clustering.has_noise:
        fields.append(f"noise_points={int(np.sum(clustering.labels == NOISE))}")
    fields.append(f"runtime_ms={runtime_ms:.1f}")
    print(" ".join(fields))

    if args.out:
        dataio.write_clustering(args.out, clustering)
    if args.plot:
        svg.scatter_svg(args.plot, source.values, clustering.labels,
                        title=f"{algo} ({clustering.n_clusters} clusters)")


def _sweep_grid(args):
    """The (values, algorithms, grid) of a `--sweep` run: grid[i] is the
    parsed arguments of values[i]'s single runs, with the call of each
    algorithm.  The sweep's own arguments, the dataset and `k` of every grid
    point and every call are checked here, so a swept and a fixed value fail
    alike, before any clustering or file write."""
    if not args.gen:
        raise UsageError("--sweep requires --gen (sweeps run on generated data)")
    if not args.values:
        raise UsageError("--sweep requires --values")
    try:
        values = tuple(float(v) for v in args.values.split(","))
    except ValueError:
        raise UsageError(f"bad --values list: {args.values!r}") from None
    if not np.all(np.isfinite(values)):
        raise UsageError(f"--values must be finite numbers: {args.values!r}")
    if args.sweep in ("k", "d"):
        if any(v != int(v) for v in values):
            raise UsageError(f"axis {args.sweep!r} takes integer values")
        values = tuple(int(v) for v in values)
    if len(set(values)) != len(values):
        raise UsageError(f"--values lists a value more than once: {args.values!r}")
    algorithms = tuple(args.algo.split(",")) if args.algo else AXIS_ALGORITHMS[args.sweep]
    bad = [a for a in algorithms if a not in AXIS_ALGORITHMS[args.sweep]]
    if bad:
        raise UsageError(f"algorithms {bad} do not consume the swept parameter {args.sweep!r}")
    if args.repeats < 1:
        raise UsageError("repeats must be >= 1")
    if args.out is None:
        raise UsageError("--sweep requires --out FILE for the result table")
    points = [argparse.Namespace(**{**vars(args), args.sweep: value}) for value in values]
    # k and r are checked against the data by the graph and the pipeline,
    # so no config owns these checks
    uses_k = any(a in AXIS_ALGORITHMS["k"] for a in algorithms)
    spectral = any(a != "dbscan" for a in algorithms)
    for point in points:
        SyntheticSpec(shape=args.gen, m=args.m, noise=point.noise, seed=args.seed)
        if uses_k and not 1 <= point.k < args.m:
            raise UsageError(f"need 1 <= k < m, got k={point.k}, m={args.m}")
        if spectral and point.r is not None:
            check_cluster_count(point.r, args.m)
    grid = [(point, [_build_run(a, point) for a in algorithms]) for point in points]
    return values, algorithms, grid


def dataset_seed(base_seed: int, axis: str, axis_index: int, repeat: int) -> int:
    """Seed for the dataset at one sweep grid point.

    The noise axis changes the data itself, so its datasets vary with the axis
    index; parameter axes (epsilon, k, d) reuse the same `repeats` datasets at
    every axis value so that curves reflect the parameter, not resampling.
    """
    if axis == "noise":
        entropy = [base_seed, axis_index, repeat]
    else:
        entropy = [base_seed, repeat]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


SWEEP_HEADER = ("axis", "axis_value", "algorithm", "repeat", "f_measure", "nmi", "runtime_ms")


def run_sweep(args) -> list[tuple]:
    """Run the sweep grid and write its CSV: one row per (axis value,
    algorithm, repeat), then a mean and a std row per (axis value, algorithm)."""
    values, algorithms, grid = _sweep_grid(args)
    rows, datasets = [], []
    try:
        for axis_index, (value, (point, runs)) in enumerate(zip(values, grid)):
            # a parameter axis reuses the first grid point's datasets (their
            # seeds ignore the axis index); a noise grid point frees the last
            # point's datasets before it generates its own
            if args.sweep == "noise" or not datasets:
                datasets.clear()
                datasets.extend(generate(SyntheticSpec(
                    shape=args.gen, m=args.m, noise=point.noise,
                    seed=dataset_seed(args.seed, args.sweep, axis_index, repeat),
                )) for repeat in range(args.repeats))
            for algo, run in zip(algorithms, runs):
                # no loop variable of this scope is left holding a dataset
                scored = (_run_and_score(run, data, truth) for data, truth in datasets)
                for repeat, (_, runtime_ms, f_val, nmi_val) in enumerate(scored):
                    rows.append((args.sweep, value, algo, repeat, f_val, nmi_val, runtime_ms))
    except (UsageError, PipelineError, DataGenError):
        raise
    except Exception:
        partial = rows + [(args.sweep, "", "incomplete", "", "", "", "")]
        dataio.write_csv_table(args.out, SWEEP_HEADER, partial)
        raise
    # (values, algorithms, columns, repeats): each block is reduced along its
    # contiguous last axis, so in the order np.mean and np.std of it would be
    blocks = np.array([row[4:] for row in rows]).reshape(
        len(values), len(algorithms), args.repeats, 3).transpose(0, 1, 3, 2).copy()
    means, stds = blocks.mean(axis=3), blocks.std(axis=3)
    for i, value in enumerate(values):
        for j, algo in enumerate(algorithms):
            rows.append((args.sweep, value, algo, "mean", *means[i, j].tolist()))
            rows.append((args.sweep, value, algo, "std", *stds[i, j].tolist()))
    dataio.write_csv_table(args.out, SWEEP_HEADER, rows)
    if args.plot:
        series = {algo: (means[:, j, 0].tolist(), stds[:, j, 0].tolist())
                  for j, algo in enumerate(algorithms)}
        svg.line_chart_svg(
            args.plot, list(values), series,
            x_label=args.sweep, y_label="F-measure",
            title=f"{args.gen}: F vs {args.sweep} ({args.repeats} repeats)",
        )
    return rows


if __name__ == "__main__":
    sys.exit(main())
