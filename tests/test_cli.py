import csv
import hashlib
import sys
import weakref
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from spectacl import cli, graph, svg
from spectacl.cli import main
from spectacl.kmeans import NOISE


def run_cli(args):
    return main(args)


def test_generated_run_writes_labels_and_metrics(tmp_path, capsys):
    out = tmp_path / "labels.csv"
    code = run_cli([
        "--gen", "circles", "--noise", "0.1", "--m", "150",
        "--algo", "spectacl", "-r", "2", "-d", "15", "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "point,label"
    assert len(lines) == 151
    printed = capsys.readouterr().out
    assert "F=" in printed and "NMI=" in printed and "objective=" in printed
    assert "epsilon=" in printed and "(auto)" in printed


def test_csv_input_dbscan_auto_epsilon(tmp_path, capsys):
    pts = tmp_path / "points.csv"
    rng = np.random.default_rng(0)
    rows = rng.normal(0, 0.2, size=(40, 2))
    pts.write_text("\n".join(f"{x},{y}" for x, y in rows) + "\n")
    code = run_cli([
        "--in", str(pts), "--algo", "dbscan", "--eps", "auto", "--min-pts", "3",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "epsilon=" in printed and "(auto)" in printed


@pytest.mark.parametrize("algo", ["spectacl", "dbscan"])
def test_auto_epsilon_on_ten_points_is_usage_error(tmp_path, capsys, algo):
    pts = tmp_path / "points.csv"
    rows = np.random.default_rng(0).normal(0, 0.2, size=(10, 2))
    pts.write_text("\n".join(f"{x},{y}" for x, y in rows) + "\n")
    code = run_cli(["--in", str(pts), "--algo", algo, "-r", "2", "--eps", "auto"])
    assert code == 2
    assert "at least 11 points" in capsys.readouterr().err


@pytest.mark.parametrize("algo,eps", [("spectacl", "auto"), ("sc", "auto"), ("dbscan", "auto"),
                                      ("dbscan", "1e160")])
def test_points_whose_squared_distances_overflow_are_usage_error(tmp_path, capsys, algo, eps):
    pts = tmp_path / "points.csv"
    np.savetxt(pts, np.random.default_rng(0).standard_normal((200, 2)) * 1e160, delimiter=",")
    code = run_cli(["--in", str(pts), "--algo", algo, "-r", "2", "--eps", eps])
    assert code == 2
    assert "rescale the data" in capsys.readouterr().err


def test_missing_r_is_usage_error(capsys):
    code = run_cli(["--gen", "moons", "--m", "50", "--algo", "spectacl"])
    assert code == 2
    assert "requires -r" in capsys.readouterr().err


def test_two_sources_is_usage_error(tmp_path, capsys):
    code = run_cli(["--gen", "moons", "--in", "x.csv", "--algo", "dbscan"])
    assert code == 2


def test_unknown_algorithm_is_usage_error(capsys):
    code = run_cli(["--gen", "moons", "--m", "40", "--algo", "meanshift", "-r", "2"])
    assert code == 2


def test_missing_input_file_is_runtime_error(capsys):
    code = run_cli(["--in", "/nonexistent/points.csv", "--algo", "dbscan", "--eps", "1.0"])
    assert code == 1


def test_graph_directory_is_runtime_error(tmp_path, capsys):
    code = run_cli(["--graph", str(tmp_path), "--algo", "spectacl", "-r", "2"])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_graph_node_id_beyond_32_bit_index_is_runtime_error(tmp_path, capsys):
    g = tmp_path / "graph.txt"
    g.write_text("0 1\n1 3000000000\n")
    code = run_cli(["--graph", str(g), "--algo", "spectacl", "-r", "2"])
    assert code == 1
    assert "edge (1,3000000000,1.0) has a node index of 2**31 - 1 or more" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--algo", "spectacl", "-r", "0"],
    ["--algo", "spectacl", "-r", "61", "-d", "61"],
    ["--algo", "spectacl", "-r", "2", "-d", "0"],
    ["--algo", "dbscan", "--min-pts", "0"],
    ["--algo", "sc", "-r", "1"],
    ["--algo", "sc", "-r", "2", "--knn", "0"],
    ["--algo", "spectacl-norm", "-r", "2", "--knn", "60"],
    ["--algo", "spectacl", "-r", "2", "--restarts", "0"],
    ["--algo", "dbscan", "--m", "1"],
    ["--algo", "dbscan", "--noise", "-1"],
    ["--algo", "dbscan", "--noise", "nan"],
    ["--algo", "dbscan", "--seed", "-1"],
], ids=["r-zero", "r-above-m", "d-zero", "min-pts-zero", "sc-r-one", "knn-zero", "knn-at-m",
        "restarts-zero", "gen-m-one", "gen-noise-negative", "gen-noise-nan", "seed-negative"])
def test_invalid_pipeline_parameter_is_usage_error(capsys, args):
    code = run_cli(["--gen", "moons", "--m", "60"] + args)
    assert code == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_empty_delimiter_is_usage_error(tmp_path, capsys):
    pts = tmp_path / "points.csv"
    pts.write_text("0,0\n1,1\n")
    code = run_cli(["--in", str(pts), "--delimiter", "", "--algo", "dbscan", "--eps", "1"])
    assert code == 2
    assert "--delimiter" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--gen", "moons", "--m", "60", "--algo", "sc"],
    ["--gen", "moons", "--m", "60", "--algo", "spectacl-norm"],
    ["--graph", "GRAPH", "--algo", "spectacl"],
], ids=["sc", "spectacl-norm", "graph-spectacl"])
def test_eps_without_epsilon_graph_is_usage_error(tmp_path, capsys, args):
    edges = tmp_path / "graph.txt"
    edges.write_text("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")
    args = [str(edges) if a == "GRAPH" else a for a in args]
    code = run_cli(args + ["-r", "2", "--eps", "0.2"])
    assert code == 2
    assert "builds no epsilon graph" in capsys.readouterr().err


def test_plot_on_graph_is_usage_error_before_clustering(tmp_path, capsys):
    edges = tmp_path / "graph.txt"
    edges.write_text("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")
    out = tmp_path / "labels.csv"
    code = run_cli(["--graph", str(edges), "--algo", "spectacl", "-r", "2",
                    "--out", str(out), "--plot", str(tmp_path / "plot.svg")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--plot needs point data" in captured.err
    assert not out.exists()


def test_plot_on_one_coordinate_is_usage_error_before_clustering(tmp_path, capsys):
    pts = tmp_path / "one_col.csv"
    pts.write_text("\n".join(str(x) for x in np.random.default_rng(0).normal(size=40)) + "\n")
    out = tmp_path / "labels.csv"
    code = run_cli(["--in", str(pts), "--algo", "spectacl", "-r", "2", "-d", "5",
                    "--out", str(out), "--plot", str(tmp_path / "plot.svg")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least two coordinates" in captured.err
    assert not out.exists()


def test_scatter_plot_svg(tmp_path):
    plot = tmp_path / "scatter.svg"
    code = run_cli([
        "--gen", "blobs", "--noise", "0.0", "--m", "60",
        "--algo", "dbscan", "--eps", "0.5", "--min-pts", "3",
        "--plot", str(plot),
    ])
    assert code == 0
    root = ET.parse(plot).getroot()
    assert root.tag.endswith("svg")
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 60


def test_dbscan_noise_is_counted_and_plotted_grey(tmp_path, capsys):
    out, plot = tmp_path / "labels.csv", tmp_path / "scatter.svg"
    code = run_cli([
        "--gen", "moons", "--noise", "0.1", "--m", "200", "--algo", "dbscan",
        "--eps", "0.25", "--min-pts", "10", "--out", str(out), "--plot", str(plot),
    ])
    assert code == 0
    labels = [int(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    noise = labels.count(NOISE)
    assert 0 < noise < len(labels)
    assert f" noise_points={noise} " in capsys.readouterr().out
    fills = [el.get("fill") for el in ET.parse(plot).getroot().iter() if el.tag.endswith("circle")]
    assert [fill == "#bbbbbb" for fill in fills] == [label == NOISE for label in labels]


def test_scatter_of_coincident_points_is_centred(tmp_path):
    plot = tmp_path / "one_spot.svg"
    svg.scatter_svg(plot, np.ones((3, 2)), [0, 1, NOISE])
    circles = [el for el in ET.parse(plot).getroot().iter() if el.tag.endswith("circle")]
    assert {(c.get("cx"), c.get("cy")) for c in circles} == {("320.00", "320.00")}
    assert [c.get("fill") for c in circles] == [*svg.PALETTE[:2], svg.NOISE_COLOR]


@pytest.mark.parametrize("args", [
    ["--algo", "dbscan", "--eps", "0.3"],
    ["--sweep", "noise", "--values", "0.1", "--repeats", "1", "--algo", "dbscan",
     "--out", "CSV"],
], ids=["run", "sweep"])
def test_plot_into_missing_directory_is_runtime_error(tmp_path, capsys, args):
    plot = tmp_path / "missing" / "plot.svg"
    args = [str(tmp_path / "s.csv") if a == "CSV" else a for a in args]
    code = run_cli(["--gen", "moons", "--m", "60", "--plot", str(plot)] + args)
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {plot}")


def test_figures_are_byte_stable(tmp_path):
    # both figures on fixed inputs, every optional part drawn: a title, noise
    # labels, two series and both axis labels
    points = [[0.0, 0.0], [1.0, 0.5], [0.25, 2.0], [3.0, -1.0], [2.0, 2.0]]
    svg.scatter_svg(tmp_path / "s.svg", points, [0, 1, NOISE, 1, 2], title="sc (3 clusters)")
    svg.line_chart_svg(tmp_path / "c.svg", [0.05, 0.1, 0.2],
                       {"sc": ([0.9, 0.75, 0.5], [0.0, 0.05, 0.1]),
                        "dbscan": ([1.0, 0.6, 0.3], [0.02, 0.2, 0.15])},
                       x_label="noise", y_label="F-measure", title="moons: F vs noise")
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("s.svg", "c.svg")]
    assert digests == ["22b0ba808945b137663ea50325bea8ed68bbc8dcdee4a53bf7510b5da6351db8",
                       "977715532f5db8bed2faff75918daecfe693f98b5b6ebed50ed8e1afe6ac9246"]


def test_labeled_csv_input_reports_f(tmp_path, capsys):
    pts = tmp_path / "points.csv"
    rng = np.random.default_rng(1)
    a = rng.normal((0, 0), 0.05, size=(20, 2))
    b = rng.normal((5, 5), 0.05, size=(20, 2))
    lines = [f"{x},{y},0" for x, y in a] + [f"{x},{y},1" for x, y in b]
    pts.write_text("\n".join(lines) + "\n")
    code = run_cli([
        "--in", str(pts), "--labeled", "--algo", "dbscan", "--eps", "0.5",
        "--min-pts", "3",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "F=1" in printed


def test_graph_input_runs_spectral_pipeline(tmp_path, capsys):
    g = tmp_path / "graph.txt"
    lines = []
    for block, offset in enumerate((0, 6)):
        for i in range(6):
            for j in range(i + 1, 6):
                lines.append(f"{offset + i} {offset + j}")
    g.write_text("\n".join(lines) + "\n")
    out = tmp_path / "labels.csv"
    code = run_cli([
        "--graph", str(g), "--algo", "spectacl", "-r", "2", "-d", "2",
        "--out", str(out),
    ])
    assert code == 0
    labels = [int(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert len(set(labels[:6])) == 1 and len(set(labels[6:])) == 1
    assert labels[0] != labels[6]


@pytest.mark.parametrize("algo", ["spectacl", "spectacl-norm", "sc"])
def test_zero_weight_edge_list_is_edgeless(tmp_path, capsys, algo):
    g = tmp_path / "graph.txt"
    # 601 nodes, above the dense eigensolver's size
    g.write_text("".join(f"{j} {j + 1} 0\n" for j in range(600)))
    with pytest.warns(UserWarning, match="601 of 601 points have no neighbors"):
        code = run_cli(["--graph", str(g), "--algo", algo, "-r", "2"])
    assert code == 0
    assert "clusters=2" in capsys.readouterr().out


def test_sweep_csv_shape_and_aggregates(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli([
        "--gen", "circles", "--m", "100", "--sweep", "noise",
        "--values", "0.05,0.1", "--repeats", "2",
        "--algo", "spectacl,dbscan", "-r", "2", "-d", "10",
        "--out", str(out), "--plot", str(tmp_path / "sweep.svg"),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "axis,axis_value,algorithm,repeat,f_measure,nmi,runtime_ms"
    body = lines[1:]
    # 2 values x 2 algorithms x 2 repeats + 2 aggregate rows per (value, algorithm)
    assert len(body) == 8 + 8
    assert sum(1 for ln in body if ",mean," in ln) == 4
    assert sum(1 for ln in body if ",std," in ln) == 4
    root = ET.parse(tmp_path / "sweep.svg").getroot()
    assert root.tag.endswith("svg")


def test_sweep_reproducible_modulo_runtime(tmp_path):
    args = [
        "--gen", "moons", "--m", "80", "--sweep", "noise",
        "--values", "0.05,0.1", "--repeats", "2",
        "--algo", "spectacl", "-r", "2", "-d", "8", "--seed", "3",
    ]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0

    def strip_runtime(path):
        return [",".join(line.split(",")[:-1]) for line in path.read_text().splitlines()]

    assert strip_runtime(out1) == strip_runtime(out2)


def test_sweep_requires_out(capsys):
    code = run_cli([
        "--gen", "moons", "--m", "60", "--sweep", "noise", "--values", "0.1",
        "--algo", "spectacl", "-r", "2",
    ])
    assert code == 2


@pytest.mark.parametrize("args", [["--seed", "-1"], ["--values", "-0.1"]],
                         ids=["seed-negative", "noise-negative"])
def test_sweep_invalid_parameter_is_usage_error(tmp_path, capsys, args):
    code = run_cli([
        "--gen", "moons", "--m", "60", "--sweep", "noise", "--values", "0.1",
        "--algo", "dbscan", "--out", str(tmp_path / "s.csv"),
    ] + args)
    assert code == 2
    assert capsys.readouterr().err.startswith("usage error:")


def test_sweep_duplicate_values_is_usage_error(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = run_cli([
        "--gen", "moons", "--m", "60", "--sweep", "noise", "--values", "0.1,0.1",
        "--repeats", "2", "--algo", "dbscan", "--out", str(out),
    ])
    assert code == 2
    assert "more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis, values", [("d", "nan"), ("k", "10,inf"), ("noise", "0.1,nan"),
                                          ("epsilon", "0.2,-inf")])
def test_sweep_nonfinite_values_is_usage_error(tmp_path, capsys, axis, values):
    out = tmp_path / "s.csv"
    code = run_cli([
        "--gen", "moons", "--m", "60", "--sweep", axis, "--values", values,
        "--repeats", "1", "-r", "2", "--out", str(out),
    ])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_checks_every_noise_value_before_clustering(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = run_cli([
        "--gen", "moons", "--m", "60", "--sweep", "noise", "--values", "0.1,-0.1",
        "--repeats", "1", "--algo", "dbscan", "--out", str(out),
    ])
    assert code == 2
    assert "noise must be a nonnegative real" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis, values, message", [
    ("epsilon", "0.2,-0.1", "epsilon must be positive"),
    ("d", "0", "need d >= 1"),
    ("k", "0", "need 1 <= k < m"),
    ("k", "10,60", "need 1 <= k < m"),
], ids=["epsilon-negative", "d-zero", "k-zero", "k-equals-m"])
def test_sweep_checks_every_value_range_before_clustering(tmp_path, capsys, axis, values,
                                                          message):
    out = tmp_path / "s.csv"
    code = run_cli([
        "--gen", "moons", "--m", "60", "--sweep", axis, "--values", values,
        "--repeats", "1", "-r", "2", "--out", str(out),
    ])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def count_pipeline_calls(monkeypatch):
    """Counts of calls to the pipelines, made through the names cli binds."""
    calls = {}
    for name in ("spectacl", "spectral_clustering", "dbscan"):
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    return calls


@pytest.mark.parametrize("args", [
    ["--algo", "spectacl,sc", "-r", "1"],
    ["--algo", "sc,dbscan", "-r", "2", "--min-pts", "0"],
    ["--algo", "dbscan,sc", "-r", "2", "--knn", "60"],
    ["--algo", "spectacl", "-r", "2", "--restarts", "0"],
    ["--algo", "spectacl", "-r", "61", "-d", "61"],
    ["--algo", "dbscan,sc", "-r", "2", "--restarts", "0"],
    ["--algo", "dbscan,sc", "-r", "100"],
    ["--algo", "sc", "-r", "2", "--eps", "0.3"],
    ["--algo", "sc,spectacl-norm", "-r", "2", "--eps", "0.3"],
    ["--sweep", "epsilon", "--values", "0.2,0.3", "--algo", "dbscan", "--eps", "0.5"],
    ["--sweep", "epsilon", "--values", "0.2,0.3", "-r", "2", "--eps", "0.5"],
], ids=["sc-r-one", "min-pts-zero", "knn-at-m", "restarts-zero", "r-above-m",
        "sc-restarts-zero", "sc-r-above-m", "sc-eps-unused", "knn-algorithms-eps-unused",
        "dbscan-eps-swept", "all-eps-swept"])
def test_sweep_invalid_fixed_parameter_writes_no_csv(monkeypatch, tmp_path, capsys, args):
    calls = count_pipeline_calls(monkeypatch)
    out = tmp_path / "s.csv"
    code = run_cli([
        "--gen", "moons", "--m", "60", "--sweep", "noise", "--values", "0.1,0.2",
        "--repeats", "2", "--out", str(out),
    ] + args)
    assert code == 2
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()
    assert calls == {}


@pytest.mark.parametrize("args, message", [
    (["--algo", "sc", "-r", "2", "--knn", "60"], "need 1 <= k < m, got k=60, m=60"),
    (["--algo", "spectacl-norm", "-r", "2", "--knn", "0"], "need 1 <= k < m, got k=0, m=60"),
    (["--algo", "spectacl", "-r", "61"], "r=61 exceeds the number of points 60"),
    (["--algo", "sc", "-r", "61"], "r=61 exceeds the number of points 60"),
], ids=["sc-knn-at-m", "spectacl-norm-knn-zero", "spectacl-r-above-m", "sc-r-above-m"])
def test_single_run_checks_r_and_k_before_clustering(monkeypatch, capsys, args, message):
    calls = count_pipeline_calls(monkeypatch)
    code = run_cli(["--gen", "moons", "--m", "60"] + args)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err
    assert calls == {}


@pytest.mark.parametrize("pipeline, args", [
    ("dbscan", ["--sweep", "noise", "--values", "0.1", "--algo", "sc,dbscan", "-r", "2"]),
    ("spectacl", ["--sweep", "d", "--values", "4,8", "--algo", "spectacl", "-r", "2"]),
], ids=["noise-sc-dbscan", "d-spectacl"])
def test_sweep_passes_eps_to_the_algorithms_that_use_it(monkeypatch, tmp_path, pipeline, args):
    radii, original = [], getattr(cli, pipeline)

    def record(data, config):
        radii.append(config.epsilon)
        return original(data, config)

    monkeypatch.setattr(cli, pipeline, record)
    code = run_cli(["--gen", "moons", "--m", "60", "--repeats", "1", "--eps", "0.3",
                    "--out", str(tmp_path / "s.csv")] + args)
    assert code == 0
    assert radii and set(radii) == {0.3}


def test_sweep_runtime_failure_writes_partial_csv(monkeypatch, tmp_path, capsys):
    original, calls = cli.dbscan, []

    def fails_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("simulated failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "dbscan", fails_third)
    out = tmp_path / "s.csv"
    code = run_cli([
        "--gen", "moons", "--m", "60", "--sweep", "noise", "--values", "0.1,0.2",
        "--repeats", "2", "--algo", "dbscan", "--out", str(out),
    ])
    assert code == 1
    assert "simulated failure" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert [line.split(",")[:4] for line in lines[1:3]] == [
        ["noise", "0.10000000000000001", "dbscan", "0"],
        ["noise", "0.10000000000000001", "dbscan", "1"]]
    assert lines[3:] == ["noise,,incomplete,,,,"]


def test_sweep_aggregates_are_mean_and_std_of_each_block(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli([
        "--gen", "moons", "--m", "60", "--sweep", "noise", "--values", "0.1,0.3",
        "--repeats", "10", "--algo", "sc,dbscan", "-r", "2", "--min-pts", "5",
        "--out", str(out),
    ])
    assert code == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    columns = ("f_measure", "nmi", "runtime_ms")
    blocks = {}
    for row in rows:
        if row["repeat"] not in ("mean", "std"):
            blocks.setdefault((row["axis_value"], row["algorithm"]), []).append(row)
    aggregates = [row for row in rows if row["repeat"] in ("mean", "std")]
    assert len(aggregates) == 2 * len(blocks) == 8
    for row in aggregates:
        block = blocks[row["axis_value"], row["algorithm"]]
        reduce = np.mean if row["repeat"] == "mean" else np.std
        for column in columns:
            cells = np.array([float(r[column]) for r in block])
            assert float(row[column]) == float(reduce(cells)), (row, column)


def test_sweep_axis_algorithm_mismatch(capsys):
    code = run_cli([
        "--gen", "moons", "--m", "60", "--sweep", "epsilon", "--values", "0.1,0.2",
        "--algo", "sc", "-r", "2", "--out", "x.csv",
    ])
    assert code == 2
    assert "do not consume" in capsys.readouterr().err


def test_sweep_d_axis_shares_datasets(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli([
        "--gen", "circles", "--m", "90", "--noise", "0.05", "--sweep", "d",
        "--values", "6,10", "--repeats", "2", "--algo", "spectacl", "-r", "2",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 4 + 4


def test_eps_flag_rejects_garbage(capsys):
    code = run_cli(["--gen", "moons", "--m", "50", "--algo", "dbscan", "--eps", "soon"])
    assert code == 2


@pytest.mark.parametrize("args, message", [
    (["--gen", "moons", "--algo", "dbscan", "--eps", "-1"],
     "--eps must be positive and finite, got -1.0"),
    *[(["--gen", "moons", "--algo", algo, "-r", "2", "--eps", eps],
       f"--eps must be positive and finite, got {eps}")
      for algo in ("spectacl", "sc", "dbscan") for eps in ("inf", "nan")],
    (["--gen", "moons", "--algo", "spectacl,sc", "-r", "2"], "comma lists are for --sweep"),
    (["--graph", "GRAPH", "--algo", "dbscan"], "dbscan needs point data, not a graph"),
    (["--graph", "GRAPH", "--sweep", "noise", "--values", "0.1", "--algo", "dbscan"],
     "--sweep requires --gen"),
    (["--gen", "moons", "--sweep", "noise", "--algo", "dbscan"], "--sweep requires --values"),
    (["--gen", "moons", "--sweep", "noise", "--values", "0.1,x", "--algo", "dbscan"],
     "bad --values list: '0.1,x'"),
    (["--gen", "moons", "--sweep", "k", "--values", "5,7.5", "--algo", "sc", "-r", "2"],
     "axis 'k' takes integer values"),
    (["--gen", "moons", "--sweep", "d", "--values", "10.5", "--algo", "spectacl", "-r", "2"],
     "axis 'd' takes integer values"),
    (["--gen", "moons", "--sweep", "noise", "--values", "0.1", "--algo", "dbscan",
      "--repeats", "0"], "repeats must be >= 1"),
], ids=["eps-negative", "spectacl-eps-inf", "spectacl-eps-nan", "sc-eps-inf", "sc-eps-nan",
        "dbscan-eps-inf", "dbscan-eps-nan", "comma-list-run", "dbscan-on-graph",
        "sweep-without-gen", "sweep-without-values", "sweep-bad-values", "sweep-k-fraction",
        "sweep-d-fraction", "sweep-repeats-zero"])
def test_usage_error_names_the_problem_and_writes_no_output(tmp_path, capsys, args, message):
    edges = tmp_path / "graph.txt"
    edges.write_text("0 1\n1 2\n2 0\n")
    out = tmp_path / "out.csv"
    args = [str(edges) if a == "GRAPH" else a for a in args]
    code = run_cli(args + ["--m", "60", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err
    assert not out.exists()


def count_calls(monkeypatch, *names):
    """Counts of calls to the named spectacl.graph functions, made through any
    spectacl module that binds them."""
    calls = dict.fromkeys(names, 0)
    modules = [m for n, m in sys.modules.items() if n.startswith("spectacl.")]
    for name in names:
        original = getattr(graph, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("algo, builder", [
    ("spectacl", "epsilon_graph"), ("spectacl-norm", "knn_graph"), ("sc", "knn_graph"),
    ("dbscan", "epsilon_graph"),
])
def test_single_run_builds_one_graph(monkeypatch, capsys, algo, builder):
    calls = count_calls(monkeypatch, "epsilon_graph", "knn_graph")
    code = run_cli(["--gen", "moons", "--m", "120", "--algo", algo, "-r", "2", "-d", "8"])
    assert code == 0
    assert "objective=" in capsys.readouterr().out
    assert calls == {name: int(name == builder) for name in calls}


@pytest.mark.parametrize("algo", ["sc", "spectacl-norm"])
def test_single_run_normalizes_once(monkeypatch, capsys, algo):
    calls = count_calls(monkeypatch, "symmetric_normalize")
    code = run_cli(["--gen", "moons", "--m", "120", "--algo", algo, "-r", "2", "-d", "8"])
    assert code == 0
    assert "objective=" in capsys.readouterr().out
    assert calls == {"symmetric_normalize": 1}


def test_sweep_builds_one_graph_per_clustering(monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, "epsilon_graph", "knn_graph")
    code = run_cli([
        "--gen", "moons", "--m", "120", "--sweep", "noise", "--values", "0.05,0.1",
        "--repeats", "2", "--algo", "sc,dbscan", "-r", "2", "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 0
    # 2 values x 2 repeats per algorithm: sc builds kNN graphs, dbscan epsilon graphs
    assert calls == {"epsilon_graph": 4, "knn_graph": 4}


@pytest.mark.parametrize("algo", [["--algo", "sc,dbscan"], []], ids=["sc-dbscan", "all"])
def test_noise_sweep_queries_each_dataset_once(tree_calls, tmp_path, algo):
    code = run_cli([
        "--gen", "moons", "--m", "120", "--sweep", "noise", "--values", "0.05,0.1",
        "--repeats", "2", "-r", "2", "-d", "8", "--out", str(tmp_path / "s.csv"),
    ] + algo)
    assert code == 0
    # every algorithm's neighbor query asks for k = 10 on the same 4 datasets
    assert tree_calls["query"] == 4


def track_generated(monkeypatch):
    """Weak references to every DataMatrix cli.generate makes, and the number
    of them alive when each generate call starts."""
    datasets, live_at_call, original = [], [], cli.generate

    def tracked(spec):
        live_at_call.append(sum(ref() is not None for ref in datasets))
        data, truth = original(spec)
        datasets.append(weakref.ref(data))
        return data, truth

    monkeypatch.setattr(cli, "generate", tracked)
    return datasets, live_at_call


def test_sweep_keeps_no_dataset_or_neighbor_table_after_it_ends(monkeypatch, tmp_path):
    datasets, live_at_call = track_generated(monkeypatch)
    code = run_cli([
        "--gen", "moons", "--m", "120", "--sweep", "noise", "--values", "0.05,0.1",
        "--repeats", "2", "--algo", "sc,dbscan", "-r", "2", "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 0
    assert len(datasets) == 4
    # a grid point's datasets are released before the next grid point's are made
    assert live_at_call == [0, 1, 0, 1]
    assert all(ref() is None for ref in datasets)


# the kNN queries: one per dataset for spectacl's automatic radius, none for
# dbscan's given one, and one per dataset and k for sc's graph
@pytest.mark.parametrize("axis, values, algo, queries", [
    ("d", "5,10,20", "spectacl", 2), ("epsilon", "0.2,0.3,0.4", "dbscan", 0),
    ("k", "5,10,20", "sc", 6),
])
def test_parameter_sweep_generates_each_dataset_once(
        monkeypatch, tree_calls, tmp_path, axis, values, algo, queries):
    datasets, _ = track_generated(monkeypatch)
    code = run_cli([
        "--gen", "moons", "--m", "300", "--sweep", axis, "--values", values,
        "--repeats", "2", "--algo", algo, "-r", "2", "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 0
    assert len(datasets) == 2
    assert tree_calls["query"] == queries
    assert all(ref() is None for ref in datasets)
