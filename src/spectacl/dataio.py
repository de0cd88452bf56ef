"""CSV and edge-list I/O for point clouds, graphs, and clustering results,
and the immutable point matrix and canonical edge list they load into.
Every file the package writes, CSV or SVG, is written by `write_text`."""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass, field

import numpy as np

# 17 significant digits round-trip any float64 exactly.
FLOAT_FORMAT = "%.17g"


class DataIOError(ValueError):
    """Unreadable, malformed, or unwritable data file."""


@dataclass(frozen=True)
class DataMatrix:
    """Dense m x n real feature matrix; point j is row j.

    Immutable: values is a read-only float64 copy of the array given, so a
    later write to that array does not reach it.  That makes it sound for
    `graph._nearest` to keep each k's nearest-neighbor table on the matrix,
    read-only, in a slot that is neither compared nor shown: m * k * 12 bytes
    (int32 indices and float64 distances) per distinct k asked for, freed
    with the matrix.
    """

    values: np.ndarray
    _neighbors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise DataIOError(f"expected a 2-d matrix, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DataIOError("matrix needs at least one row and one column")
        if not np.all(np.isfinite(arr)):
            raise DataIOError("matrix contains non-finite entries")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class EdgeList:
    """Undirected weighted edges over nodes 0..node_count-1, stored canonically:
    pairs holds the sorted, unique int64 rows (j, l) with j < l, and weights the
    float64 sum of the weights given for each pair (either orientation, in order).
    node_count must be an integer in [0, 2**31 - 1].  The pairs given must be
    an E x 2 array of integral node ids (an empty one may have any shape), with
    one real weight each.  Node ids must be below 2**31 - 1, the largest a
    32-bit sparse index holds.  Every rejected input raises DataIOError.
    """

    node_count: int
    pairs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        try:
            n = operator.index(self.node_count)
        except TypeError:
            raise DataIOError(f"node_count must be an integer, got {self.node_count!r}") from None
        try:
            given, weights = np.asarray(self.pairs), np.asarray(self.weights)
        except ValueError as exc:  # ragged nesting
            raise DataIOError(f"pairs and weights must be arrays: {exc}") from None
        if given.size == 0:
            given = given.reshape(0, 2)
        if given.ndim != 2 or given.shape[1] != 2 or given.dtype.kind not in "iuf":
            raise DataIOError("pairs must be an E x 2 array of node ids, got shape "
                              f"{given.shape} of {given.dtype}")
        if weights.dtype.kind not in "biuf":
            raise DataIOError(f"weights must be real numbers, got {weights.dtype}")
        weights = weights.astype(np.float64, copy=False)
        if weights.shape != (len(given),):
            raise DataIOError(f"need one weight per pair: {len(given)} pairs, "
                              f"weights of shape {weights.shape}")
        # every check reads the ids as given, so none can wrap in a cast
        off = ~np.isfinite(given) | (np.round(given) != given)
        _reject_first(off[:, 0] | off[:, 1], given, weights, "has a non-integer node id")
        j, l = given.T
        _reject_first(j == l, given, weights, "is a self-loop")
        lo, hi = np.minimum(j, l), np.maximum(j, l)
        # node ids fit a 32-bit sparse index, and the key lo * n + hi below is exact
        _reject_first(hi >= 2**31 - 1, given, weights, "has a node index of 2**31 - 1 or more")
        if n > 2**31 - 1:
            raise DataIOError(f"node_count {n} is above 2**31 - 1")
        _reject_first((lo < 0) | (hi >= n), given, weights, f"has a node outside [0,{n})")
        if n < 0:  # only an empty edge list gets here with a negative count
            raise DataIOError(f"node_count {n} is negative")
        _reject_first(weights < 0, given, weights, "has a negative weight")
        keys, which = np.unique(lo.astype(np.int64) * n + hi.astype(np.int64),
                                return_inverse=True)
        pairs = np.column_stack(np.divmod(keys, n))
        summed = np.bincount(which, weights, len(pairs)).astype(np.float64, copy=False)
        _reject_first(~np.isfinite(summed), pairs, summed, "has a non-finite weight")
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "weights", summed)


def _reject_first(bad, pairs, weights, problem):
    """DataIOError naming the first flagged edge as (j,l,w), if any edge is flagged."""
    if bad.any():
        (j, l), w = pairs[bad][0], weights[bad][0]
        raise DataIOError(f"edge ({j},{l},{w}) {problem}")


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise DataIOError(f"missing file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataIOError(f"cannot read {path}: {exc}") from None


def _read_table(path, delimiter, has_header) -> np.ndarray:
    """The non-blank rows of a delimited text file as a float64 matrix.

    Every row must have the width of the first; errors name the row and column.
    """
    lines = _read_text(path).splitlines()
    if has_header:
        lines = lines[1:]
    rows = [line.split(delimiter) for line in lines if line.strip()]
    if not rows:
        raise DataIOError(f"no rows in {path}")
    width = len(rows[0])
    out = np.empty((len(rows), width), dtype=np.float64)
    for i, fields in enumerate(rows, start=1):
        if len(fields) != width:
            raise DataIOError(f"ragged row {i}: expected {width} fields, got {len(fields)}")
        for j, field in enumerate(fields, start=1):
            try:
                out[i - 1, j - 1] = float(field)
            except ValueError:
                raise DataIOError(f"parse error at row {i}, col {j}: {field!r}") from None
    return out


def load_points(path, delimiter: str = ",", has_header: bool = False) -> DataMatrix:
    """Load an m x n point matrix from a delimited text file."""
    return DataMatrix(_read_table(path, delimiter, has_header))


def load_labeled_points(path, delimiter: str = ",", has_header: bool = False):
    """Like load_points, but the trailing column holds integer class labels.

    A label must be an integer of magnitude below 2**53, where float64 holds
    every integer exactly.  Returns (DataMatrix, labels ndarray).
    """
    table = _read_table(path, delimiter, has_header)
    if table.shape[1] < 2:
        raise DataIOError("labeled file needs at least one feature column plus the label column")
    labels = table[:, -1]
    bad = ~(np.abs(labels) < 2.0**53) | (labels != np.round(labels))
    if bad.any():
        row = int(np.argmax(bad))
        raise DataIOError(f"row {row + 1}: label {labels[row]} is not an integer in (-2**53, 2**53)")
    return DataMatrix(table[:, :-1]), labels.astype(np.int64)


def load_edge_list(path) -> EdgeList:
    """Load a whitespace-separated "j l [w]" edge list; '#' lines are comments.

    Duplicate mentions of the same node pair (either orientation) sum their
    weights in file order; a missing weight counts as 1.  The file is parsed
    one line at a time, so an error names the first bad line.
    """
    # int64 and float64 buffers: an id beyond int64 fails on the line that
    # holds it, and no Python object is kept per edge
    ends, weights = array("q"), array("d")
    for i, line in enumerate(_read_text(path).splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) not in (2, 3):
            raise DataIOError(f"line {i}: expected 'j l [w]', got {line!r}")
        try:
            ends.extend((int(parts[0]), int(parts[1])))
        except ValueError:
            raise DataIOError(f"line {i}: non-integer node index in {line!r}") from None
        except OverflowError:
            raise DataIOError(f"line {i}: node index outside the int64 range in {line!r}") from None
        try:
            weights.append(float(parts[2]) if len(parts) == 3 else 1.0)
        except ValueError:
            raise DataIOError(f"line {i}: bad weight in {line!r}") from None
    ends = np.array(ends, dtype=np.int64).reshape(-1, 2)
    return EdgeList(node_count=int(ends.max(initial=-1)) + 1, pairs=ends, weights=weights)


def write_clustering(path, clustering) -> None:
    """Write one "index,label" line per point after a header; noise is -1."""
    write_csv_table(path, ("point", "label"), enumerate(clustering.labels.tolist()))


def write_csv_table(path, header, rows) -> None:
    """Write a generic CSV table; floats get 17 significant digits."""
    def cell(v):
        return FLOAT_FORMAT % v if isinstance(v, (float, np.floating)) else str(v)

    lines = [",".join(header), *(",".join(map(cell, row)) for row in rows)]
    write_text(path, "\n".join(lines) + "\n")


def write_text(path, text: str) -> None:
    """Write text to a UTF-8 file, the one way this package writes a file;
    an OSError becomes a DataIOError naming the file."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataIOError(f"cannot write {path}: {exc}") from None
