import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectacl.dataio import (
    DataIOError,
    DataMatrix,
    EdgeList,
    load_edge_list,
    load_labeled_points,
    load_points,
    write_clustering,
    write_csv_table,
)
from spectacl.graph import adjacency_from_edge_list
from spectacl.kmeans import Clustering

from conftest import assert_same_csr, from_dense


def test_load_points_basic(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0,0\n1,0\n0,1\n")
    data = load_points(p)
    assert data.m == 3 and data.n == 2
    assert np.array_equal(data.values, [[0, 0], [1, 0], [0, 1]])


def test_data_matrix_keeps_a_read_only_copy_of_its_values():
    X = np.arange(6.0).reshape(3, 2)
    data = DataMatrix(X)
    X[0, 0] = np.nan
    assert np.array_equal(data.values, np.arange(6.0).reshape(3, 2))
    assert not data.values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        data.values[0, 0] = 1.0


def test_load_points_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(DataIOError, match="no rows"):
        load_points(p)


def test_load_points_bad_field_named(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,x\n")
    with pytest.raises(DataIOError, match="row 1, col 2"):
        load_points(p)


def test_load_points_ragged(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(DataIOError, match="ragged row 2"):
        load_points(p)


def test_load_points_missing_file(tmp_path):
    with pytest.raises(DataIOError, match="missing file"):
        load_points(tmp_path / "nope.csv")


@pytest.mark.parametrize("loader", [load_points, load_edge_list])
@pytest.mark.parametrize("content", [None, b"0 1\n\xff 2\n"], ids=["directory", "non-utf8"])
def test_unreadable_file_is_data_io_error(tmp_path, loader, content):
    path = tmp_path
    if content is not None:
        path = tmp_path / "data.txt"
        path.write_bytes(content)
    with pytest.raises(DataIOError, match="cannot read"):
        loader(path)


def test_load_points_header_and_delimiter(tmp_path):
    p = tmp_path / "pts.tsv"
    p.write_text("a\tb\n1\t2\n")
    data = load_points(p, delimiter="\t", has_header=True)
    assert data.values.tolist() == [[1.0, 2.0]]


def test_load_labeled_points(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0.5,1.5,0\n2.5,3.5,1\n")
    data, labels = load_labeled_points(p)
    assert data.n == 2
    assert labels.tolist() == [0, 1]


@pytest.mark.parametrize("label", ["2.7", "inf", "1e30"])
def test_load_labeled_points_rejects_non_integer_label(tmp_path, label):
    p = tmp_path / "pts.csv"
    p.write_text(f"0.5,1\n1.5,{label}\n")
    with pytest.raises(DataIOError, match="row 2: label"):
        load_labeled_points(p)


def test_edge_list_basic(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 2\n")
    el = load_edge_list(p)
    assert el.node_count == 3
    assert el.pairs.dtype == np.int64 and el.weights.dtype == np.float64
    assert el.pairs.tolist() == [[0, 1], [1, 2]]
    assert el.weights.tolist() == [1.0, 1.0]


def test_edge_list_duplicates_sum(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1 0.5\n0 1 0.5\n1 0 0.5\n")
    el = load_edge_list(p)
    assert el.pairs.tolist() == [[0, 1]]
    assert el.weights.tolist() == [1.5]


def test_edge_list_self_loop(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("2 2\n")
    with pytest.raises(DataIOError, match="self-loop"):
        load_edge_list(p)


def test_edge_list_negative_weight(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1 -2\n")
    with pytest.raises(DataIOError, match="negative"):
        load_edge_list(p)


def test_edge_list_comments_and_blank_lines(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# header comment\n\n0 3 2.0\n")
    el = load_edge_list(p)
    assert el.node_count == 4
    assert el.pairs.tolist() == [[0, 3]]
    assert el.weights.tolist() == [2.0]


def test_edge_list_matches_line_accumulation(tmp_path, rng):
    # 150 distinct pairs over 2000 nodes, each mentioned about three times in
    # either orientation, plus one pair whose only weight is 0
    pool = [rng.choice(2000, size=2, replace=False).tolist() for _ in range(150)]
    lines = ["1999 17 0"]
    acc = {(17, 1999): 0.0}
    for _ in range(450):
        j, l = pool[rng.integers(len(pool))]
        if rng.random() < 0.5:
            j, l = l, j
        w = float(np.round(rng.uniform(0.1, 2.0), 3))
        lines.append(f"{j} {l} {w}")
        key = (min(j, l), max(j, l))
        acc[key] = acc.get(key, 0.0) + w
    p = tmp_path / "g.txt"
    p.write_text("\n".join(lines) + "\n")
    el = load_edge_list(p)
    assert [tuple(pair) for pair in el.pairs.tolist()] == sorted(acc)
    # sums in file order, exactly as the line-by-line accumulation
    assert dict(zip(map(tuple, el.pairs.tolist()), el.weights.tolist())) == acc
    dense = np.zeros((2000, 2000))
    for (j, l), w in acc.items():
        dense[j, l] = dense[l, j] = w
    W, expect = adjacency_from_edge_list(el), from_dense(dense)
    assert_same_csr(W, expect)
    for attr in ("indptr", "indices"):
        assert getattr(W.matrix, attr).dtype == getattr(expect.matrix, attr).dtype


@pytest.mark.parametrize(
    "pairs, weights, match",
    [
        ([[0, 1], [2, 2]], [1.0, 1.0], r"edge \(2,2,1.0\) is a self-loop"),
        ([[0, 1], [1, 3]], [1.0, 1.0], r"edge \(1,3,1.0\) has a node outside \[0,3\)"),
        ([[0, 1], [-1, 2]], [1.0, 1.0], r"edge \(-1,2,1.0\) has a node outside"),
        ([[0, 1], [1, 0]], [-2.0, 3.0], r"edge \(0,1,-2.0\) has a negative weight"),
        ([[0, 1], [1, 2]], [1.0, np.nan], r"edge \(1,2,nan\) has a non-finite weight"),
        ([[0, 1], [1, 0]], [1e308, 1e308], r"edge \(0,1,inf\) has a non-finite weight"),
        ([[0, 1], [1, 2**31 - 1]], [1.0, 1.0],
         r"edge \(1,2147483647,1.0\) has a node index of 2\*\*31 - 1 or more"),
    ],
)
def test_edge_list_rejects(pairs, weights, match):
    with pytest.raises(DataIOError, match=match):
        EdgeList(node_count=3, pairs=pairs, weights=weights)


def test_edge_list_node_ids_fit_a_32_bit_index():
    top = EdgeList(node_count=2**31 - 1, pairs=[[2**31 - 2, 2**31 - 3]], weights=[1.0])
    assert top.pairs.tolist() == [[2**31 - 3, 2**31 - 2]]
    with pytest.raises(DataIOError, match=r"node_count 2147483648 is above 2\*\*31 - 1"):
        EdgeList(node_count=2**31, pairs=[[0, 1]], weights=[1.0])


def test_write_clustering_rows(tmp_path):
    p = tmp_path / "labels.csv"
    write_clustering(p, Clustering(labels=np.array([0, 0, 1]), n_clusters=2))
    assert p.read_text() == "point,label\n0,0\n1,0\n2,1\n"


def test_write_clustering_noise(tmp_path):
    p = tmp_path / "labels.csv"
    write_clustering(p, Clustering(labels=np.array([-1]), n_clusters=0))
    assert p.read_text() == "point,label\n0,-1\n"


def test_write_clustering_empty(tmp_path):
    p = tmp_path / "labels.csv"
    write_clustering(p, Clustering(labels=np.array([], dtype=np.int64), n_clusters=0))
    assert p.read_text() == "point,label\n"


finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(finite_floats, finite_floats, finite_floats), min_size=1, max_size=20))
def test_points_round_trip_exact(tmp_path_factory, rows):
    p = tmp_path_factory.mktemp("rt") / "pts.csv"
    data = DataMatrix(np.array(rows, dtype=np.float64))
    write_csv_table(p, ["x0", "x1", "x2"], data.values.tolist())
    back = load_points(p, has_header=True)
    assert np.array_equal(back.values, data.values)


def test_points_round_trip_with_labels(tmp_path):
    p = tmp_path / "pts.csv"
    data = DataMatrix(np.array([[0.1, 0.2], [0.3, 0.4]]))
    write_csv_table(p, ["x0", "x1", "label"],
                    [[*row, label] for row, label in zip(data.values.tolist(), [1, 0])])
    back, labels = load_labeled_points(p, has_header=True)
    assert np.array_equal(back.values, data.values)
    assert labels.tolist() == [1, 0]


def test_data_matrix_rejects_nan():
    with pytest.raises(DataIOError, match="non-finite"):
        DataMatrix(np.array([[np.nan, 1.0]]))


def test_data_matrix_rejects_empty():
    with pytest.raises(DataIOError):
        DataMatrix(np.zeros((0, 2)))


# Tokens the edge-list loader must load or reject with a DataIOError: signs,
# underscores, a float as a node id, non-ASCII digits and whitespace,
# non-finite numbers, node ids beyond int64, comment marks and junk.
TOKENS = ["0", "1", "2", "17", "+1", "-1", "-0", "007", "1_0", "1__0", "_1", "1_", "1.0",
          "1e3", "2.5", "0.5", "1_0.5", ".5", "5.", "nan", "-nan", "NaN", "inf", "-inf",
          "Infinity", "1e400", "\u0661", "\u0663\u0662", "\uff11", "\u00b2", "0x10", "x", "",
          "#", "#c", "99999999999999999999", "9223372036854775808"]
PLAIN = st.sampled_from(["0", "1", "2", "17", "0.5"])
SEPARATORS = [" ", "  ", "\t", " \t", "\u00a0", "\u2003", "\x1f"]
LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\u2028"]


@st.composite
def token_lines(draw, widths, delimiters):
    """Text whose lines mostly share one field count, with comment and
    blank lines, padding and mixed line ends."""
    width = draw(st.sampled_from(widths))
    delimiter = draw(st.sampled_from(delimiters))
    text = ""
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["other width", "comment", "blank"]))
        if kind == "comment":
            line = draw(st.sampled_from(["#", "# c", "  #x 1 2"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t"]))
        else:
            count = width if kind == "row" else draw(st.integers(1, 4))
            fields = draw(st.lists(PLAIN | st.sampled_from(TOKENS), min_size=count,
                                   max_size=count))
            pad = draw(st.sampled_from(["", " ", "\t"]))
            line = pad + delimiter.join(fields) + pad
        text += line + draw(st.sampled_from(LINE_ENDS))
    return text


@settings(max_examples=300, deadline=None)
@given(token_lines(widths=[2, 3], delimiters=SEPARATORS))
def test_edge_list_loads_or_raises_data_io_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("edges") / "g.txt"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        assert isinstance(load_edge_list(path), EdgeList)
    except DataIOError as exc:
        # an error names the first bad line, or the first bad edge
        assert re.match(r"line \d+: |edge \(", str(exc)), str(exc)


def test_edge_list_node_id_beyond_int64_names_its_line(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n# ids\n1 99999999999999999999\n")
    with pytest.raises(DataIOError, match=r"line 3: node index outside the int64 range"):
        load_edge_list(p)
    p.write_text(f"0 1\n1 {2**63 - 1}\n")
    with pytest.raises(DataIOError, match=r"has a node index of 2\*\*31 - 1 or more"):
        load_edge_list(p)


def test_graph_file_loads_the_pairs_and_weights_written(tmp_path, rng):
    # about 40000 distinct pairs over 3000 nodes, as a planted-partition file
    # holds, written in shuffled order and orientation, then with weights,
    # each file once as it is and once after a comment and a blank line
    keys = np.unique(rng.integers(0, 3000 * 3000, size=40000))
    j, l = np.divmod(keys, 3000)
    pairs = np.column_stack([j, l])[j < l]
    weights = rng.uniform(0.0, 2.0, size=len(pairs))
    order = rng.permutation(len(pairs))
    flip = rng.random(len(pairs)) < 0.5
    written = pairs[order]
    written[flip] = written[flip, ::-1]
    for name, body, expect in [
        ("plain", [f"{a} {b}" for a, b in written.tolist()], np.ones(len(pairs))),
        ("weighted", [f"{a}\t{b} {w!r}" for (a, b), w
                      in zip(written.tolist(), weights[order].tolist())], weights),
    ]:
        for header in ("", "# j l [w]\n\n"):
            path = tmp_path / f"{name}.txt"
            path.write_text(header + "\n".join(body) + "\n")
            edges = load_edge_list(path)
            assert edges.node_count == pairs.max() + 1
            assert np.array_equal(edges.pairs, pairs)
            assert edges.weights.tobytes() == expect.tobytes()


@pytest.mark.parametrize("call, match", [
    (lambda tmp: DataMatrix(np.zeros(3)), r"expected a 2-d matrix, got shape \(3,\)"),
    (lambda tmp: load_labeled_points(tmp / "one_column.csv"), "at least one feature column"),
    (lambda tmp: write_clustering(tmp, Clustering(labels=np.zeros(1), n_clusters=1)),
     "cannot write"),
    (lambda tmp: write_csv_table(tmp / "missing" / "t.csv", ("a",), [(1,)]), "cannot write"),
], ids=["matrix-1d", "labeled-one-column", "write-to-directory", "write-to-missing-directory"])
def test_data_io_rejects(tmp_path, call, match):
    (tmp_path / "one_column.csv").write_text("0\n1\n")
    with pytest.raises(DataIOError, match=match):
        call(tmp_path)
