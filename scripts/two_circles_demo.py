"""Cluster the two-circles benchmark instance with every algorithm and write
one SVG panel per run.

Each panel is one `cluster` command line on the same generated rings, so
`--seed` seeds both the dataset and k-means.  At the defaults the density
pipelines separate the rings (F 0.991), the cut-based baseline halves them
(F 0.500), and DBSCAN at its automatic radius fragments them: raising minPts
from 25 to 26 takes it from 8 clusters to 6, both far from the two rings.
"""

import argparse
import sys
from pathlib import Path

from spectacl.cli import main as cluster

PANELS = {
    "spectacl": ["--algo", "spectacl", "-r", "2", "-d", "50"],
    "spectacl_normalized": ["--algo", "spectacl-norm", "-r", "2", "-d", "50"],
    "spectral_clustering": ["--algo", "sc", "-r", "2", "--knn", "10"],
    # DBSCAN on the raw coverage-quantile radius, its default
    "dbscan_minpts25": ["--algo", "dbscan", "--min-pts", "25"],
    "dbscan_minpts26": ["--algo", "dbscan", "--min-pts", "26"],
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="demo_out", help="directory for SVGs")
    ap.add_argument("--m", type=int, default=1500)
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, flags in PANELS.items():
        path = out / f"{name}.svg"
        code = cluster(["--gen", "circles", "--m", str(args.m), "--noise", str(args.noise),
                        "--seed", str(args.seed), *flags, "--plot", str(path)])
        if code:
            return code
        print(f"{name} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
