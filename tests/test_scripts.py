"""Smoke tests of the experiment scripts: each runs at a tiny size and writes
its CSV and SVG files."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = [
    pytest.param(
        "noise_sweep.py",
        ["--shapes", "moons", "--values", "0,0.1", "--m", "60", "--repeats", "1"],
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


@pytest.mark.parametrize("script, args, outputs", SCRIPTS)
def test_script_writes_its_outputs(tmp_path, script, args, outputs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out-dir", str(tmp_path), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        path = tmp_path / name
        if name.endswith(".csv"):
            lines = path.read_text().splitlines()
            assert lines[0] == "axis,axis_value,algorithm,repeat,f_measure,nmi,runtime_ms"
            assert len(lines) > 1 and "incomplete" not in path.read_text()
        else:
            assert ET.parse(path).getroot().tag.endswith("svg")
