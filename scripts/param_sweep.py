"""Sensitivity sweeps: F-measure against the generator noise, the embedding
dimension, the ball radius and the neighbor count, one CSV and chart per
shape and axis.

Each sweep is one `cluster --sweep` run over the algorithms that consume its
axis, so `--seed` seeds both the datasets and k-means."""

import argparse
import sys
from pathlib import Path

from spectacl.cli import main as cluster

AXES = {
    "noise": "0,0.05,0.1,0.15,0.2",
    "d": "2,10,25,50,75,100",
    "epsilon": "0.1,0.2,0.3,0.4,0.6,0.8",
    "k": "2,5,10,20,40",
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="sweep_out")
    ap.add_argument("--shapes", default="moons,circles,blobs")
    ap.add_argument("--axes", default="d,epsilon,k")
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--m", type=int, default=1500)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for shape in args.shapes.split(","):
        r = 3 if shape == "blobs" else 2
        for axis in args.axes.split(","):
            csv_path = out / f"{axis}_{shape}.csv"
            svg_path = out / f"{axis}_{shape}.svg"
            code = cluster([
                "--gen", shape, "--m", str(args.m), "--noise", str(args.noise),
                "--seed", str(args.seed), "-r", str(r), "--sweep", axis,
                "--values", AXES[axis], "--repeats", str(args.repeats),
                "--out", str(csv_path), "--plot", str(svg_path),
            ])
            if code:
                return code
            print(f"{shape}/{axis}: wrote {csv_path} and {svg_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
