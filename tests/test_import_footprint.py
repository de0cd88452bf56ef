"""Which scipy subpackages a run loads: `import spectacl`, graph runs and the
scores alone load neither scipy.optimize nor scipy.spatial, and a point run,
scored or not, loads only scipy.spatial.

Each case runs in a fresh interpreter, because pytest and hypothesis load
scipy themselves."""

import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEFERRED = ("scipy.optimize", "scipy.spatial")
# the scipy modules the package imports when it is imported
EAGER = ("scipy.linalg", "scipy.sparse", "scipy.sparse.csgraph", "scipy.sparse.linalg")

PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()) as out:
    import spectacl, spectacl.cli
    code = spectacl.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "out": out.getvalue(),
                  "loaded": [m for m in %r if m in sys.modules]}))
""" % (DEFERRED,)


def run_fresh(source, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", source, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@cache
def loaded_by_scipy_alone():
    """The deferred subpackages this scipy build loads with the package's
    eager scipy imports alone; no run can avoid those."""
    source = ("import json, sys\nimport %s\nprint(json.dumps({'loaded': [m for m in %r "
              "if m in sys.modules]}))" % (", ".join(EAGER), DEFERRED))
    return set(run_fresh(source)["loaded"])


def skip_if_scipy_loads(*modules):
    early = loaded_by_scipy_alone().intersection(modules)
    if early:
        pytest.skip(f"this scipy build loads {sorted(early)} from {', '.join(EAGER)} alone")


def weighted_edge_list(path):
    """Two 6-node cliques joined by one light edge, as 'j l w' lines."""
    lines = [f"{b + j} {b + l} {1 + (j + l) % 3}"
             for b in (0, 6) for j in range(6) for l in range(j + 1, 6)]
    path.write_text("\n".join(lines + ["5 6 0.1"]) + "\n")
    return path


@pytest.mark.parametrize("algo", ["spectacl", "sc"])
def test_graph_run_loads_neither(tmp_path, algo):
    skip_if_scipy_loads(*DEFERRED)
    graph = weighted_edge_list(tmp_path / "g.txt")
    result = run_fresh(PROBE, "--graph", str(graph), "--algo", algo, "-r", "2", "-d", "4")
    assert result["code"] == 0 and "clusters=2" in result["out"]
    assert result["loaded"] == []


def test_unlabeled_point_run_loads_no_optimize(tmp_path):
    skip_if_scipy_loads("scipy.optimize")
    points = tmp_path / "p.csv"
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 0.1, (20, 2)), rng.normal(3, 0.1, (20, 2))])
    points.write_text("\n".join(f"{x!r},{y!r}" for x, y in X.tolist()) + "\n")
    result = run_fresh(PROBE, "--in", str(points), "--algo", "spectacl", "-r", "2", "-d", "4")
    assert result["code"] == 0 and "F=" not in result["out"]
    assert result["loaded"] == ["scipy.spatial"]


@pytest.mark.parametrize("mode", ["run", "sweep"])
def test_scored_run_loads_only_spatial(tmp_path, mode):
    skip_if_scipy_loads("scipy.optimize")
    argv = ["--gen", "moons", "--m", "80", "--algo", "spectacl", "-r", "2", "-d", "4"]
    if mode == "sweep":
        argv += ["--sweep", "noise", "--values", "0.05,0.1", "--repeats", "2",
                 "--out", str(tmp_path / "s.csv")]
    result = run_fresh(PROBE, *argv)
    assert result["code"] == 0
    if mode == "run":
        assert "F=" in result["out"]
    else:
        assert len((tmp_path / "s.csv").read_text().splitlines()) > 4
    assert result["loaded"] == ["scipy.spatial"]


def test_scores_load_neither():
    skip_if_scipy_loads(*DEFERRED)
    source = """
import json, sys
import numpy as np
import spectacl
from spectacl.kmeans import Clustering
truth = Clustering(np.array([0, 0, 1, 1, 2]), 3)
pred = Clustering(np.array([1, 1, 0, -1, 0]), 2)
print(json.dumps({"f": spectacl.f_measure(pred, truth).total_f, "nmi": spectacl.nmi(pred, truth),
                  "loaded": [m for m in %r if m in sys.modules]}))
""" % (DEFERRED,)
    result = run_fresh(source)
    assert 0.0 < result["f"] < 1.0 and 0.0 < result["nmi"] < 1.0
    assert result["loaded"] == []
