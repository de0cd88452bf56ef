"""spectacl benchmark: one workload, one caller in a closed loop.

    python3 benchmark/run.py --workload points-eps --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  Workloads (see workloads.py):

  points-eps       library spectacl() with automatic epsilon, m = 6000 points
  graph-sbm        `cluster --graph` on a 3000-node planted partition, r = 15
  sweep-baselines  `cluster --sweep noise` with sc and dbscan, m = 1500

Each run starts fresh worker processes (worker.py): SETUP_SAMPLES - 1 that
only set up, then one that sets up and runs the timed loop for --seconds
(at least one cycle of the workload's inputs).  setup_s is the median set-up
time of all of them; peak_rss_mb is that of the loop's process.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same op
sequence again under the layer tracer and reports the per-layer metrics,
means per op, including the tracing overhead (traced minus untraced
op_s.p50); its spans go to .bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  An op fails if it raises, if an output check
fails, or if its F-measure is below the workload's floor.  A run that cannot
set up (say, no `src/spectacl` next to this directory) exits nonzero and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from stats import median, throughput
from tracer import PER_LAYER

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOAD_NAMES = ("points-eps", "graph-sbm", "sweep-baselines")
SETUP_SAMPLES = 3
# every process of a run must have ended this long after the run started
DEADLINE_S = 170.0


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int:
    """BLAS threads for the workers: the caller's setting, capped at nproc."""
    nproc = len(os.sched_getaffinity(0))
    try:
        asked = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        asked = nproc
    return max(1, min(asked, nproc))


def run_worker(args, workdir: Path, setup_only: bool, deadline: float) -> dict:
    threads = str(blas_threads())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def f_measure(f_by_op, count: int) -> float:
    """Mean F of the first `count` ops, the ones every run makes, so the value
    depends on the seed only; ops that failed before scoring are skipped."""
    scored = [f for f in f_by_op[:count] if f is not None]
    return sum(scored) / len(scored) if scored else 0.0


def end_to_end(report: dict, setups: list[float]) -> dict:
    metrics = {
        "setup_s": (median(setups), "s"),
        "op_s.p50": (median(report["op_s"]), "s"),
        "points_per_s": (throughput(report["points"], report["loop_s"]), "points/s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "f_measure": (f_measure(report["f_by_op"], report["f_ops"]), "1"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "spectacl" / "__init__.py").is_file():
        print(f"error: no spectacl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups = [run_worker(args, workdir, True, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        report = run_worker(args, workdir, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(report["setup_s"])

    failed = len(report["errors"])
    for error in report["errors"]:
        print(f"failed {error}", file=sys.stderr)
    if not report["op_s"]:
        print("error: no op succeeded, so there is nothing to report", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {name: {"value": report["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = end_to_end(report, setups)
    result = {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": metrics,
    }

    environment = dict(report["environment"], git_commit=git_commit(ROOT))
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, environment=environment, workload=args.workload,
                  seconds=args.seconds, op_s=report["op_s"], f_by_op=report["f_by_op"],
                  setup_samples_s=setups)
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(out / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in report["spans"]:
                fh.write(json.dumps(span) + "\n")

    print("environment " + json.dumps(environment))
    print(f"{args.workload}: {len(report['op_s'])} ops timed, {failed} failed")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
