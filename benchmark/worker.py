"""One workload in one fresh process: set-up, the timed closed loop, and the
traced pass.  Started by run.py; prints one JSON report as its last line.

Set-up time runs from the first line of this file, so it covers importing the
package, generating the inputs and a warm-up op on a small input.

With --trace 1 the op sequence of the untraced loop is run a second time with
the tracer installed, and every op's labels must match the untraced run.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "spectacl"


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import spectacl

    if Path(spectacl.__file__).resolve().parent != src / PACKAGE:
        raise ImportError(f"{PACKAGE} imported from {spectacl.__file__}, not from {src}")


def _run_op(wl, i, rec, clock=time.perf_counter):
    """Run and check op i; returns (seconds, points, f, error)."""
    rec.op = i
    span = rec.begin("op") if rec.trace else None
    start = clock()
    try:
        result = wl.run(i)
    except Exception:  # noqa: BLE001 - a failing op is counted, not fatal
        return clock() - start, 0, None, traceback.format_exc(limit=3)
    finally:
        if span is not None:
            rec.end(span)
    elapsed = clock() - start
    try:
        points, f = wl.check(i, result, rec.captures[i])
        if f < wl.f_floor:
            raise AssertionError(f"F-measure {f:.4f} below the floor {wl.f_floor}")
    except Exception:  # noqa: BLE001
        return elapsed, 0, None, traceback.format_exc(limit=3)
    return elapsed, points, f, None


def _environment(seed):
    import numpy
    import scipy

    def blas(config):
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload_seed": seed,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    from stats import median
    from tracer import Recorder, install, per_layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    wl.setup(args.workdir, args.seed)
    wl.warm_up(args.workdir)
    setup_s = time.perf_counter() - T0
    report = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    untraced = Recorder(trace=False)
    restore = install(PACKAGE, untraced)
    times, f_by_op, errors = [], [], []
    points = 0
    loop_start = time.perf_counter()
    try:
        while len(f_by_op) < wl.min_ops or time.perf_counter() - loop_start < args.seconds:
            i = len(f_by_op)
            elapsed, n, f, error = _run_op(wl, i, untraced)
            f_by_op.append(f)
            if error is None:
                times.append(elapsed)
                points += n
            else:
                errors.append(f"op {i}: {error}")
    finally:
        restore()
    loop_s = time.perf_counter() - loop_start
    ops = len(f_by_op)
    report.update({
        "op_s": times,
        "loop_s": loop_s,
        "points": points,
        "f_by_op": f_by_op,
        "f_ops": wl.min_ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": _environment(args.seed),
    })

    if args.trace:
        traced = Recorder(trace=True)
        restore = install(PACKAGE, traced)
        traced_times = []
        try:
            for i in range(ops):
                elapsed, _, _, error = _run_op(wl, i, traced)
                if error is None and not _same_labels(untraced.captures[i], traced.captures[i]):
                    error = "labels differ from the untraced run"
                if error is None:
                    traced_times.append(elapsed)
                else:
                    errors.append(f"traced op {i}: {error}")
        finally:
            restore()
        overhead = median(traced_times) - median(times) if traced_times and times else 0.0
        report["per_layer"] = per_layer_metrics(traced, ops, overhead)
        report["spans"] = [vars(s) for s in traced.spans]

    report["attempted"] = ops * (2 if args.trace else 1)
    report["errors"] = errors
    print(json.dumps(report))
    return 0


def _same_labels(a, b) -> bool:
    return len(a) == len(b) and all(
        x.name == y.name and x.labels.shape == y.labels.shape
        and (x.labels == y.labels).all() for x, y in zip(a, b)
    )


if __name__ == "__main__":
    sys.exit(main())
