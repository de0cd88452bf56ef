"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; the full suite takes several minutes (dominated by the noise and
dimension sweeps at m=1500).
"""

import time

import numpy as np

from spectacl.cli import main as cli_main
from spectacl.datagen import SyntheticSpec, generate
from spectacl.eigen import truncated_eigs
from spectacl.graph import choose_epsilon, symmetric_normalize
from spectacl.kmeans import Clustering, kmeans
from spectacl.metrics import average_density_objective, f_measure, hungarian
from spectacl.pipelines import (
    DbscanConfig,
    SpectaclConfig,
    dbscan,
    spectacl,
    spectral_clustering,
)

from conftest import (
    brute_force_assignment,
    cliques_graph,
    exhaustive_best_density,
    exhaustive_best_inertia,
    from_dense,
    full_dense_eigs,
    projected_density_check,
    random_epsilon_graph,
    trace_objective,
)

MOONS_CIRCLES_NOISE_GRID = (0.05, 0.1, 0.15)
PLATEAU_DIMENSIONS = (25, 50, 75, 100)


def report(number, name, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(
        f"ACCEPTANCE {number} {name}: {status} ({detail}) "
        f"[{elapsed:.1f}s / budget {budget}]"
    )
    assert passed, f"criterion {number} {name}: {detail}"


def test_acceptance_1_two_circles_robustness():
    start = time.perf_counter()
    seeds = range(5)
    f_dense, f_sc = [], []
    for seed in seeds:
        data, truth = generate(SyntheticSpec(shape="circles", m=1500, noise=0.1, seed=seed))
        cl = spectacl(data, SpectaclConfig(r=2, d=50, seed=0))
        f_dense.append(f_measure(cl, truth).total_f)
        f_sc.append(f_measure(spectral_clustering(data, 2, k=10, seed=0), truth).total_f)
    mean_dense, mean_sc = float(np.mean(f_dense)), float(np.mean(f_sc))
    elapsed = time.perf_counter() - start
    passed = mean_dense >= 0.95 and mean_dense - mean_sc >= 0.2
    report(
        1, "two-circles robustness", passed,
        f"mean F={mean_dense:.4f} (need >=0.95), baseline={mean_sc:.4f}, "
        f"gap={mean_dense - mean_sc:.4f} (need >=0.2)",
        elapsed, "60s",
    )


def test_acceptance_2_noise_sweep_dominance():
    start = time.perf_counter()
    worst_margin = np.inf
    worst_point = None
    for shape in ("moons", "circles"):
        for noise in MOONS_CIRCLES_NOISE_GRID:
            scores = {"spectacl": [], "spectacl-norm": [], "sc": [], "dbscan": []}
            for rep in range(5):
                data, truth = generate(
                    SyntheticSpec(shape=shape, m=1500, noise=noise, seed=2000 + rep)
                )
                raw_eps = choose_epsilon(data)
                scores["spectacl"].append(
                    f_measure(spectacl(data, SpectaclConfig(r=2, d=50, seed=0)), truth).total_f
                )
                scores["spectacl-norm"].append(
                    f_measure(
                        spectacl(data, SpectaclConfig(r=2, variant="normalized", d=50, seed=0)),
                        truth,
                    ).total_f
                )
                scores["sc"].append(
                    f_measure(spectral_clustering(data, 2, k=10, seed=0), truth).total_f
                )
                scores["dbscan"].append(
                    f_measure(
                        dbscan(data, DbscanConfig(epsilon=raw_eps, min_pts=10)), truth
                    ).total_f
                )
            means = {k: float(np.mean(v)) for k, v in scores.items()}
            competitor_best = max(means["spectacl-norm"], means["sc"], means["dbscan"])
            margin = means["spectacl"] - (competitor_best - 0.02)
            if margin < worst_margin:
                worst_margin = margin
                worst_point = (shape, noise, means)
    elapsed = time.perf_counter() - start
    passed = worst_margin >= 0.0
    shape, noise, means = worst_point
    report(
        2, "noise-sweep dominance", passed,
        f"tightest point {shape}@noise={noise}: "
        + " ".join(f"{k}={v:.3f}" for k, v in means.items())
        + f", slack={worst_margin:+.4f}",
        elapsed, "10min",
    )


def test_acceptance_3_dimension_plateau():
    start = time.perf_counter()
    worst_spread, worst_shape = -1.0, None
    for shape in ("moons", "circles", "blobs"):
        r = 3 if shape == "blobs" else 2
        means = {}
        for d in PLATEAU_DIMENSIONS:
            fs = []
            for rep in range(5):
                data, truth = generate(
                    SyntheticSpec(shape=shape, m=1500, noise=0.1, seed=1000 + rep)
                )
                cl = spectacl(data, SpectaclConfig(r=r, d=d, seed=0))
                fs.append(f_measure(cl, truth).total_f)
            means[d] = float(np.mean(fs))
        spread = max(means.values()) - min(means.values())
        if spread > worst_spread:
            worst_spread, worst_shape = spread, (shape, means)
    elapsed = time.perf_counter() - start
    passed = worst_spread <= 0.05
    shape, means = worst_shape
    report(
        3, "embedding-dimension plateau", passed,
        f"largest spread {worst_spread:.4f} (allowed 0.05) on {shape}: "
        + " ".join(f"d{d}={v:.3f}" for d, v in means.items()),
        elapsed, "10min",
    )


def test_acceptance_4_dbscan_instability():
    start = time.perf_counter()
    data, truth = generate(SyntheticSpec(shape="circles", m=1500, noise=0.1, seed=0))
    eps = choose_epsilon(data)
    outcomes = []
    for min_pts in range(20, 31):
        cl = dbscan(data, DbscanConfig(epsilon=eps, min_pts=min_pts))
        outcomes.append((min_pts, cl.n_clusters, f_measure(cl, truth).total_f))
    pairs = [
        (a, b)
        for a, b in zip(outcomes, outcomes[1:])
        if a[1] != b[1] and a[2] < 0.8 and b[2] < 0.8
    ]
    elapsed = time.perf_counter() - start
    passed = len(pairs) > 0
    sample = pairs[0] if pairs else None
    detail = (
        f"{len(pairs)} adjacent minPts pairs flip the cluster count with F<0.8"
        + (
            f"; e.g. minPts {sample[0][0]}->{sample[1][0]} gives "
            f"{sample[0][1]}->{sample[1][1]} clusters (F={sample[0][2]:.2f}/{sample[1][2]:.2f})"
            if sample
            else ""
        )
    )
    report(4, "dbscan minPts instability", passed, detail, elapsed, "2min")


def test_acceptance_5_projected_density_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(5150)
    worst = np.inf
    for _ in range(30):
        m = int(rng.integers(12, 101))
        _, W = random_epsilon_graph(rng, m)
        pairs = truncated_eigs(W, 10)
        for lam_abs, delta in projected_density_check(W, pairs):
            worst = min(worst, delta - lam_abs)
    elapsed = time.perf_counter() - start
    passed = worst >= -1e-8
    report(
        5, "projected-eigenvector density bound", passed,
        f"min(density - |eigenvalue|) = {worst:.3e} (allowed >= -1e-8) over 30 graphs x 10 pairs",
        elapsed, "30s",
    )


def _random_nonempty_labels(rng, m, r):
    labels = rng.integers(0, r, size=m)
    labels[rng.permutation(m)[:r]] = np.arange(r)
    return Clustering(labels=labels, n_clusters=r)


def test_acceptance_6_objective_equivalences():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    worst_a = worst_b = worst_c = 0.0
    for _ in range(100):
        m = int(rng.integers(8, 30))
        r = int(rng.integers(2, 5))
        # (a) summed densities equal the trace form
        _, W = random_epsilon_graph(rng, m)
        cl = _random_nonempty_labels(rng, m, r)
        A = W.to_dense()
        Y = np.zeros((m, r))
        Y[np.arange(m), cl.labels] = 1.0
        trace_form = float(np.trace(Y.T @ A @ Y @ np.linalg.inv(Y.T @ Y)))
        worst_a = max(worst_a, abs(average_density_objective(cl, W) - trace_form))
        # (b) total scatter = k-means inertia + between-cluster trace
        X = rng.standard_normal((m, 3))
        res = kmeans(X, r, restarts=2, seed=int(rng.integers(2**31)))
        scatter = float((X**2).sum())
        worst_b = max(
            worst_b,
            abs(scatter - (res.inertia + trace_objective(X, res.clustering))),
        )
        # (c) on a degree-normalized adjacency the objective is r minus the
        # normalized-Laplacian trace
        if np.all(W.degrees() > 0):
            Wn = symmetric_normalize(W)
            L_sym = np.eye(m) - Wn.to_dense()
            lap_trace = sum(
                (cl.indicator(s) @ L_sym @ cl.indicator(s)) / cl.indicator(s).sum()
                for s in range(r)
            )
            worst_c = max(
                worst_c,
                abs(average_density_objective(cl, Wn) - (r - lap_trace)),
            )
    elapsed = time.perf_counter() - start
    passed = worst_a <= 1e-10 and worst_b <= 1e-8 and worst_c <= 1e-8
    report(
        6, "objective equivalences", passed,
        f"max errors: density-vs-trace {worst_a:.2e} (<=1e-10), "
        f"scatter split {worst_b:.2e} (<=1e-8), normalized shift {worst_c:.2e} (<=1e-8)",
        elapsed, "30s",
    )


def test_acceptance_7_exhaustive_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    # (a) the pipeline objective never beats exhaustive search, and matches it
    # on disjoint clique pairs
    never_exceeds = True
    max_slack = 0.0
    for _ in range(15):
        m = int(rng.integers(5, 13))
        B = (rng.random((m, m)) < 0.4).astype(float)
        A = np.triu(B, 1)
        A = A + A.T
        W = from_dense(A)
        cl = spectacl(W, SpectaclConfig(r=2, d=m, seed=0))
        obj = average_density_objective(cl, W)
        best = exhaustive_best_density(A, 2)
        if obj > best + 1e-9:
            never_exceeds = False
        max_slack = max(max_slack, best - obj)
    reaches = True
    for sizes in ((3, 3), (4, 3), (5, 4), (6, 6)):
        W, _ = cliques_graph(sizes)
        cl = spectacl(W, SpectaclConfig(r=2, d=W.dim, seed=0))
        obj = average_density_objective(cl, W)
        best = exhaustive_best_density(W.to_dense(), 2)
        if abs(obj - best) > 1e-9:
            reaches = False
    # (b) assignment vs brute force on 200 random rectangular score matrices
    hungarian_ok = True
    for _ in range(200):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 8))
        scores = rng.uniform(0, 1, size=(rows, cols))
        mapping = hungarian(scores, maximize=True)
        got = sum(scores[s, t] for s, t in mapping.items())
        best, _ = brute_force_assignment(scores, maximize=True)
        if abs(got - best) > 1e-12:
            hungarian_ok = False
    # (c) restarted k-means attains the exhaustive optimum on tiny blob pairs
    kmeans_ok = True
    for _ in range(50):
        sep = rng.uniform(1.0, 6.0)
        half = np.array([sep, 0.0])
        X = np.vstack([
            rng.normal(0.0, 0.01, size=(3, 2)) - half / 2,
            rng.normal(0.0, 0.01, size=(3, 2)) + half / 2,
        ])
        res = kmeans(X, 2, restarts=10, seed=int(rng.integers(2**31)))
        if abs(res.inertia - exhaustive_best_inertia(X, 2)) > 1e-8:
            kmeans_ok = False
    elapsed = time.perf_counter() - start
    passed = never_exceeds and reaches and hungarian_ok and kmeans_ok
    report(
        7, "exhaustive oracles", passed,
        f"objective bounded: {never_exceeds} (max slack below optimum {max_slack:.3f}), "
        f"clique optimum reached: {reaches}, "
        f"assignment exact on 200 matrices: {hungarian_ok}, "
        f"k-means exact on 50 blob pairs: {kmeans_ok}",
        elapsed, "2min",
    )


def test_acceptance_8_eigensolver_correctness(no_dense_fallback):
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    worst_val, worst_res = 0.0, 0.0
    for _ in range(50):
        m = int(rng.integers(45, 201))
        d = int(rng.integers(1, 21))
        B = rng.standard_normal((m, m)) * (rng.random((m, m)) < 0.3)
        A = (B + B.T) / 2.0
        W = from_dense(A)
        pairs = truncated_eigs(W, d)
        oracle = full_dense_eigs(A)
        worst_val = max(
            worst_val,
            float(np.abs(np.abs(pairs.values) - np.abs(oracle.values[:d])).max()),
        )
        res = np.linalg.norm(A @ pairs.vectors - pairs.vectors * pairs.values, axis=0)
        worst_res = max(worst_res, float(res.max()))
    elapsed = time.perf_counter() - start
    passed = worst_val <= 1e-8 and worst_res <= 1e-8
    report(
        8, "iterative eigensolver vs dense oracle", passed,
        f"max |eigenvalue| error {worst_val:.2e} (<=1e-8), max residual {worst_res:.2e} (<=1e-8) "
        "over 50 matrices",
        elapsed, "1min",
    )


def test_acceptance_9_graph_native_end_to_end(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    m = 1000
    lines = []
    # sparse random graph with a heavier community backbone, SNAP-shaped
    for j in range(m):
        for l in rng.choice(m, size=6, replace=False):
            if j != l:
                lines.append(f"{j} {int(l)}")
    lines.append(f"0 {m - 1}")  # pin the node count
    graph_file = tmp_path / "network.txt"
    graph_file.write_text("\n".join(lines) + "\n")
    out = tmp_path / "labels.csv"
    code = cli_main([
        "--graph", str(graph_file), "--algo", "spectacl", "-r", "42", "-d", "50",
        "--out", str(out),
    ])
    rows = out.read_text().splitlines()[1:]
    labels = [int(r.split(",")[1]) for r in rows]
    elapsed = time.perf_counter() - start
    passed = code == 0 and len(labels) == m and len(set(labels)) == 42
    report(
        9, "1000-node edge-list end-to-end", passed,
        f"exit={code}, points={len(labels)}, clusters={len(set(labels))} (need 42)",
        elapsed, "2min",
    )
