"""Command-line harness: single clustering runs and parameter/noise sweeps.

The pipelines build the graph and report it with its radius; the CLI only
dispatches to them and scores the objective on the graph they return.  A
sweep axis is the dest of the argument it sweeps (`noise`, `epsilon`, `k`,
`d`): each grid point is the parsed arguments of a single run with that one
replaced, so a sweep clusters exactly as the matching single runs do.

Exit codes: 0 success, 1 runtime failure, 2 usage error or invalid parameters.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings

import numpy as np

from . import dataio, metrics, svg
from .datagen import SHAPES, DataGenError, SyntheticSpec, generate
from .dataio import DataMatrix
from .graph import adjacency_from_edge_list
from .kmeans import Clustering
from .pipelines import (
    DbscanConfig,
    PipelineError,
    SpectaclConfig,
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
    if value <= 0:
        raise UsageError(f"--eps must be positive, got {value}")
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


def _run_algorithm(name, source, args):
    """The PipelineResult of the named algorithm on the points or the graph,
    with the parameters of the parsed arguments `args`."""
    if name not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {name!r}, expected one of {ALGORITHMS}")
    if name != "dbscan" and args.r is None:
        raise UsageError(f"{name} requires -r")
    if name == "dbscan":
        if not isinstance(source, DataMatrix):
            raise UsageError("dbscan needs point data, not a graph")
        return dbscan(source, DbscanConfig(epsilon=args.epsilon, min_pts=args.min_pts))
    if name == "sc":
        return spectral_clustering(source, args.r, k=args.k, seed=args.seed,
                                   restarts=args.restarts)
    variant = "normalized" if name == "spectacl-norm" else "unnormalized"
    config = SpectaclConfig(
        r=args.r, variant=variant, epsilon=args.epsilon, knn=args.k, d=args.d,
        seed=args.seed, restarts=args.restarts,
    )
    return spectacl(source, config)


def run_cluster(args) -> None:
    source, truth = _load_input(args)
    algo = args.algo or "spectacl"
    if "," in algo:
        raise UsageError("a single run takes one --algo; comma lists are for --sweep")
    if args.epsilon is not None and (
        not isinstance(source, DataMatrix) or algo not in AXIS_ALGORITHMS["epsilon"]
    ):
        raise UsageError(f"--eps {args.epsilon:g} is unused: {algo} on this input builds no "
                         "epsilon graph")
    if args.plot and not isinstance(source, DataMatrix):
        raise UsageError("--plot needs point data")
    start = time.perf_counter()
    clustering = _run_algorithm(algo, source, args)
    runtime_ms = (time.perf_counter() - start) * 1000.0

    fields = [f"algorithm={algo}", f"m={clustering.m}", f"clusters={clustering.n_clusters}"]
    if clustering.epsilon is not None:
        tag = " (auto)" if args.epsilon is None else ""
        fields.append(f"epsilon={clustering.epsilon:.6g}{tag}")
    objective = metrics.average_density_objective(clustering, clustering.graph)
    fields.append(f"objective={objective:.6g}")
    if truth is not None:
        fields.append(f"F={metrics.f_measure(clustering, truth).total_f:.6g}")
        fields.append(f"NMI={metrics.nmi(clustering, truth):.6g}")
    if clustering.has_noise:
        fields.append(f"noise_points={int(np.sum(clustering.labels == -1))}")
    fields.append(f"runtime_ms={runtime_ms:.1f}")
    print(" ".join(fields))

    if args.out:
        dataio.write_clustering(args.out, clustering)
    if args.plot:
        svg.scatter_svg(args.plot, source.values, clustering.labels,
                        title=f"{algo} ({clustering.n_clusters} clusters)")


def _sweep_grid(args):
    """The (values, algorithms) of a `--sweep` run. The sweep's own arguments,
    the dataset of every grid point and the range of every swept value are
    checked here, before any clustering or file write."""
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
    for noise in values if args.sweep == "noise" else (args.noise,):
        SyntheticSpec(shape=args.gen, m=args.m, noise=noise, seed=args.seed)
    if args.r is None and any(a != "dbscan" for a in algorithms):
        raise UsageError("sweeping a spectral algorithm requires -r")
    for value in values:
        if args.sweep == "epsilon":
            DbscanConfig(epsilon=value)
        elif args.sweep == "d":
            with warnings.catch_warnings():  # each run warns about d < r itself
                warnings.simplefilter("ignore")
                SpectaclConfig(r=args.r, d=value)
        elif args.sweep == "k" and not 1 <= value < args.m:
            raise UsageError(f"need 1 <= k < m, got k={value}, m={args.m}")
    if args.repeats < 1:
        raise UsageError("repeats must be >= 1")
    if args.out is None:
        raise UsageError("--sweep requires --out FILE for the result table")
    return values, algorithms


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


def sweep_rows(args, values, algorithms):
    """Run the sweep grid; yields one row per (axis value, algorithm, repeat)."""
    for axis_index, value in enumerate(values):
        point = argparse.Namespace(**{**vars(args), args.sweep: value})
        for algo in algorithms:
            for repeat in range(args.repeats):
                data, truth = generate(SyntheticSpec(
                    shape=args.gen, m=args.m, noise=point.noise,
                    seed=dataset_seed(args.seed, args.sweep, axis_index, repeat),
                ))
                start = time.perf_counter()
                clustering = _run_algorithm(algo, data, point)
                runtime_ms = (time.perf_counter() - start) * 1000.0
                f_val = metrics.f_measure(clustering, truth).total_f
                nmi_val = metrics.nmi(clustering, truth)
                yield (args.sweep, value, algo, repeat, f_val, nmi_val, runtime_ms)


SWEEP_HEADER = ("axis", "axis_value", "algorithm", "repeat", "f_measure", "nmi", "runtime_ms")


def run_sweep(args) -> list[tuple]:
    values, algorithms = _sweep_grid(args)
    rows = []
    try:
        for row in sweep_rows(args, values, algorithms):
            rows.append(row)
    except Exception:
        partial = rows + [(args.sweep, "", "incomplete", "", "", "", "")]
        dataio.write_csv_table(args.out, SWEEP_HEADER, partial)
        raise
    rows.extend(_aggregate_rows(args.sweep, values, algorithms, rows))
    dataio.write_csv_table(args.out, SWEEP_HEADER, rows)
    if args.plot:
        _plot_sweep(args, values, algorithms, rows)
    return rows


def _aggregate_rows(axis, values, algorithms, rows):
    extra = []
    for value in values:
        for algo in algorithms:
            sel = [r for r in rows if r[1] == value and r[2] == algo]
            fs = np.array([r[4] for r in sel])
            nmis = np.array([r[5] for r in sel])
            times = np.array([r[6] for r in sel])
            extra.append((axis, value, algo, "mean",
                          float(fs.mean()), float(nmis.mean()), float(times.mean())))
            extra.append((axis, value, algo, "std",
                          float(fs.std()), float(nmis.std()), float(times.std())))
    return extra


def _plot_sweep(args, values, algorithms, rows):
    series = {}
    for algo in algorithms:
        means = [r[4] for r in rows if r[2] == algo and r[3] == "mean"]
        stds = [r[4] for r in rows if r[2] == algo and r[3] == "std"]
        series[algo] = (means, stds)
    svg.line_chart_svg(
        args.plot, list(values), series,
        x_label=args.sweep, y_label="F-measure",
        title=f"{args.gen}: F vs {args.sweep} ({args.repeats} repeats)",
    )


if __name__ == "__main__":
    sys.exit(main())
