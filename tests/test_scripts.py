"""Smoke tests of the experiment scripts: each runs at a tiny size and writes
its CSV and SVG files.  The sweep script's tables equal those of the
`cluster --sweep` command line it stands for."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from spectacl.cli import main

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = [
    pytest.param(
        "param_sweep.py",
        ["--axes", "noise", "--shapes", "moons", "--m", "60", "--repeats", "1"],
        ["noise_moons.csv", "noise_moons.svg"],
        id="noise_sweep",
    ),
    pytest.param(
        "param_sweep.py",
        ["--shapes", "moons", "--m", "60", "--repeats", "1"],
        [f"{axis}_moons.{ext}" for axis in ("d", "epsilon", "k") for ext in ("csv", "svg")],
        id="param_sweep",
    ),
    pytest.param(
        "two_circles_demo.py",
        ["--m", "150"],
        [f"{name}.svg" for name in ("spectacl", "spectacl_normalized", "spectral_clustering",
                                    "dbscan_minpts25", "dbscan_minpts26")],
        id="two_circles_demo",
    ),
]


def run_script(script, out_dir, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out-dir", str(out_dir), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("script, args, outputs", SCRIPTS)
def test_script_writes_its_outputs(tmp_path, script, args, outputs):
    proc = run_script(script, tmp_path, args)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        path = tmp_path / name
        if name.endswith(".csv"):
            lines = path.read_text().splitlines()
            assert lines[0] == "axis,axis_value,algorithm,repeat,f_measure,nmi,runtime_ms"
            assert len(lines) > 1 and "incomplete" not in path.read_text()
        else:
            assert ET.parse(path).getroot().tag.endswith("svg")


def test_param_sweep_equals_cluster_sweep(tmp_path):
    proc = run_script("param_sweep.py", tmp_path, [
        "--shapes", "moons", "--axes", "d", "--m", "60", "--repeats", "1", "--seed", "3"])
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "cluster.csv"
    assert main([
        "--gen", "moons", "--m", "60", "--noise", "0.1", "--seed", "3", "--sweep", "d",
        "--values", "2,10,25,50,75,100", "--repeats", "1", "-r", "2", "--out", str(out),
    ]) == 0

    def without_runtime(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    assert without_runtime(tmp_path / "d_moons.csv") == without_runtime(out)
