"""Labels, eigenpairs and graphs of a fixed corpus (tests/fingerprints.py)
against the checked-in table tests/fingerprints.csv.

Graph rows need no BLAS or LAPACK and must match everywhere.  Label and eigen
rows go through ARPACK and BLAS, and no determinism contract spans numpy and
scipy builds yet, so they must match under the numpy and scipy versions the
table was written with; under other versions a mismatch is an expected
failure whose reason lists every changed id.
"""

import pytest

from fingerprints import fingerprints, read_table, versions


@pytest.fixture(scope="module")
def tables():
    recorded, recorded_with = read_table()
    return recorded, fingerprints(), recorded_with


def changes(recorded, current, kind) -> list[str]:
    """One line per id of the given kind whose row differs, with old and new F."""
    old = {row[0]: row for row in recorded if row[0].startswith("graph/") == (kind == "graph")}
    new = {row[0]: row for row in current if row[0].startswith("graph/") == (kind == "graph")}
    lines = []
    for row_id in sorted(old.keys() | new.keys()):
        if old.get(row_id) != new.get(row_id):
            before = old[row_id][3] if row_id in old else "(absent)"
            after = new[row_id][3] if row_id in new else "(absent)"
            lines.append(f"{row_id}: F {before or '-'} -> {after or '-'}")
    return lines


def test_graph_fingerprints_match_the_table(tables):
    recorded, current, _ = tables
    changed = changes(recorded, current, "graph")
    assert not changed, "changed fingerprints:\n" + "\n".join(changed)


def test_label_fingerprints_match_the_table(tables):
    recorded, current, recorded_with = tables
    changed = changes(recorded, current, "labels")
    if not changed:
        return
    message = "changed fingerprints:\n" + "\n".join(changed)
    builds = {name: versions()[name] for name in ("numpy", "scipy")}
    if any(recorded_with[name] != version for name, version in builds.items()):
        pytest.xfail(f"numpy/scipy {builds} differ from the table's {recorded_with}; "
                     + message)
    pytest.fail(message)


def test_changes_name_each_moved_id_with_its_old_and_new_f():
    old = [("sc/a", "1" * 64, "2 2", "0.900000"), ("graph/a", "2" * 64, "", "")]
    new = [("sc/a", "3" * 64, "3 1", "0.700000"), ("graph/a", "2" * 64, "", ""),
           ("dbscan/b", "4" * 64, "4 noise:1", "0.500000")]
    assert changes(old, new, "labels") == [
        "dbscan/b: F (absent) -> 0.500000", "sc/a: F 0.900000 -> 0.700000"]
    assert changes(old, new, "graph") == []
    assert changes(new, old, "graph") == []
