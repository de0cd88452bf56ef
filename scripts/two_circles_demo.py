"""Run every algorithm on the two-circles benchmark instance and render SVGs.

Reproduces the qualitative comparison: the density pipeline separates the
rings, the cut-based baseline halves them, and DBSCAN flips between one
cluster and fragments as minPts crosses its instability window.
"""

import argparse
from pathlib import Path

from spectacl import (
    SpectaclConfig,
    DbscanConfig,
    SyntheticSpec,
    dbscan,
    f_measure,
    generate,
    spectacl,
    spectral_clustering,
)
from spectacl.svg import scatter_svg


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="demo_out", help="directory for SVGs")
    ap.add_argument("--m", type=int, default=1500)
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data, truth = generate(
        SyntheticSpec(shape="circles", m=args.m, noise=args.noise, seed=args.seed)
    )
    runs = {
        "spectacl": lambda: spectacl(data, SpectaclConfig(r=2, d=50, seed=0)),
        "spectacl_normalized": lambda: spectacl(
            data, SpectaclConfig(r=2, variant="normalized", d=50, seed=0)
        ),
        "spectral_clustering": lambda: spectral_clustering(data, 2, k=10, seed=0),
        # DBSCAN on the raw coverage-quantile radius, its default
        "dbscan_minpts25": lambda: dbscan(data, DbscanConfig(min_pts=25)),
        "dbscan_minpts26": lambda: dbscan(data, DbscanConfig(min_pts=26)),
    }
    for name, run in runs.items():
        clustering = run()
        f = f_measure(clustering, truth).total_f
        path = out / f"{name}.svg"
        scatter_svg(
            path, data.values, clustering.labels,
            title=f"{name}: {clustering.n_clusters} clusters, F={f:.3f}",
        )
        print(f"{name:22s} clusters={clustering.n_clusters:3d} F={f:.3f} -> {path}")


if __name__ == "__main__":
    main()
