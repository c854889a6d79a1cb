"""Coefficient grids and the transforms between samples and coefficients.

A :class:`CoeffGrid` is an immutable finite table of expansion coefficients
a[k, j] against the orthonormal tensor Chebyshev basis; absent indices are
exact zeros.  The table is stored as one read-only dense array covering the
enclosing (max_k+1) x (max_j+1) box, so the bounds are the array's shape.

File formats
------------
CSV:   header line ``k,j,coeff``, one nonzero entry per line, coefficient
       printed with 17 significant digits (lossless round trip).  Readers
       accept fields quoted with ``"`` or padded with spaces, and skip blank
       lines.
JSON:  ``{"max_k": int, "max_j": int, "entries": [[k, j, value], ...]}``;
       indices and bounds are JSON integers.
Omitted index pairs are zero in both formats; a repeated pair is an error.
Both readers parse and validate whole arrays at once.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math

import numpy as np

from .basis import basis_matrix, gauss_chebyshev_nodes

#: Largest coefficient table built from outside input: 2**26 entries, that
#: is 512 MiB of float64.
MAX_TABLE_ENTRIES = 2 ** 26

_CSV_HEADER = ["k", "j", "coeff"]
_CSV_ROW = np.dtype([("k", np.int64), ("j", np.int64), ("value", np.float64)])


class CoeffFileError(ValueError):
    """Malformed coefficient file; the message names the line or entry."""


def _first(mask) -> int | None:
    """Position of the first True in a boolean vector, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _check_table_size(max_k: int, max_j: int) -> None:
    """Refuse a (max_k + 1) x (max_j + 1) table above MAX_TABLE_ENTRIES."""
    rows, cols = int(max_k) + 1, int(max_j) + 1
    if rows * cols > MAX_TABLE_ENTRIES:
        raise ValueError(f"a {rows} x {cols} coefficient table exceeds the "
                         f"limit MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES}")


def _entry_table(ks, js, values, max_k, max_j, where) -> np.ndarray:
    """Validate entries given as parallel (k, j, value) arrays and scatter
    them into a dense (max_k + 1) x (max_j + 1) table.

    Indices must be integral and nonnegative, values finite, and pairs
    distinct and inside the bounds, which default to the largest indices.
    An error names the first offending entry i as ``where(i)``.
    """
    keys = np.column_stack((ks, js))
    values = np.asarray(values, dtype=float)
    if keys.dtype.kind not in "biuf" or values.shape != (len(keys),):
        raise ValueError("entries must be (k, j, value) with numeric k and j")
    valid = keys >= 0
    if keys.dtype.kind == "f":
        valid &= np.isfinite(keys) & (np.floor(keys) == keys)
    bad = _first(~valid.all(axis=1))
    if bad is not None:
        k, j = keys[bad].tolist()
        raise ValueError(f"{where(bad)}: invalid index pair ({k}, {j})")
    keys = keys.astype(np.int64)
    bad = _first(~np.isfinite(values))
    if bad is not None:
        k, j = keys[bad].tolist()
        raise ValueError(f"{where(bad)}: non-finite coefficient at ({k}, {j})")
    top_k, top_j = keys.max(axis=0, initial=0).tolist()
    max_k = top_k if max_k is None else max_k
    max_j = top_j if max_j is None else max_j
    if max_k < 0 or max_j < 0:
        raise ValueError("degree bounds must be nonnegative")
    bad = _first((keys[:, 0] > max_k) | (keys[:, 1] > max_j))
    if bad is not None:
        k, j = keys[bad].tolist()
        raise ValueError(f"{where(bad)}: entry ({k}, {j}) outside declared "
                         f"bounds ({max_k}, {max_j})")
    _check_table_size(max_k, max_j)
    dense = np.zeros((int(max_k) + 1, int(max_j) + 1))
    cells = np.ravel_multi_index((keys[:, 0], keys[:, 1]), dense.shape)
    # a stable sort keeps equal cells in entry order, so every entry after
    # the first of its run repeats an earlier pair
    order = np.argsort(cells, kind="stable")
    repeats = order[1:][np.diff(cells[order]) == 0]
    if repeats.size:
        bad = int(repeats.min())
        k, j = keys[bad].tolist()
        raise ValueError(f"{where(bad)}: duplicate index pair ({k}, {j})")
    dense.flat[cells] = values
    return dense


class CoeffGrid:
    """Immutable table of tensor-basis coefficients indexed by (k, j)."""

    __slots__ = ("_dense",)

    def __init__(self, entries=(), max_k: int | None = None, max_j: int | None = None):
        """Grid from ``((k, j), value)`` pairs or a ``{(k, j): value}`` dict.

        Validated as in :meth:`from_entries`; bounds default to the largest
        indices present.
        """
        pairs = list(entries.items() if isinstance(entries, dict) else entries)
        keys, values = zip(*pairs) if pairs else ((), ())
        keys = np.array(keys).reshape(len(pairs), 2)
        dense = _entry_table(keys[:, 0], keys[:, 1], values, max_k, max_j,
                             "entry {}".format)
        dense.setflags(write=False)
        self._dense = dense

    @classmethod
    def from_entries(cls, ks, js, values, max_k: int | None = None,
                     max_j: int | None = None) -> "CoeffGrid":
        """Build a grid from parallel arrays of indices and values.

        Indices must be integral and nonnegative, values finite, and pairs
        distinct and within the bounds, which default to the largest
        indices; a ValueError names the first offending entry.
        """
        return cls._wrap(_entry_table(ks, js, values, max_k, max_j,
                                      "entry {}".format))

    @classmethod
    def from_dense(cls, array) -> "CoeffGrid":
        """Build a grid from a 2-D array; entry [k, j] is the coefficient."""
        arr = np.asarray(array, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("dense input must be a nonempty 2-D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("dense input contains non-finite values")
        return cls._wrap(arr.copy())

    @classmethod
    def _wrap(cls, dense: np.ndarray) -> "CoeffGrid":
        """Adopt a validated, unshared table as the (now read-only) storage."""
        dense.setflags(write=False)
        grid = cls.__new__(cls)
        grid._dense = dense
        return grid

    @property
    def max_k(self) -> int:
        return self._dense.shape[0] - 1

    @property
    def max_j(self) -> int:
        return self._dense.shape[1] - 1

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self._dense))

    def get(self, k: int, j: int) -> float:
        """Coefficient at (k, j); indices outside the stored set are zero."""
        if k < 0 or j < 0:
            raise ValueError("indices must be nonnegative")
        if k <= self.max_k and j <= self.max_j:
            return float(self._dense[k, j])
        return 0.0

    def items(self):
        """Yield ((k, j), value) over nonzero entries, ascending (k, j)."""
        ks, js = np.nonzero(self._dense)  # row-major, already lexicographic
        for k, j in zip(ks, js):
            yield (int(k), int(j)), float(self._dense[k, j])

    def to_dense(self) -> np.ndarray:
        """Writable dense copy of shape (max_k + 1, max_j + 1)."""
        return self._dense.copy()

    def restrict_to(self, index_set) -> "CoeffGrid":
        """Keep only entries whose (k, j) lies in ``index_set``; bounds kept.

        ``index_set`` is any iterable of index pairs; the cost is one step
        per pair, and pairs outside the bounds select nothing.
        """
        max_k, max_j = self.max_k, self.max_j
        mask = np.zeros(self._dense.shape, dtype=bool)
        for k, j in index_set:
            if 0 <= k <= max_k and 0 <= j <= max_j:
                mask[k, j] = True
        return CoeffGrid.from_dense(np.where(mask, self._dense, 0.0))

    def _binary(self, other: "CoeffGrid", sign: float) -> "CoeffGrid":
        if not isinstance(other, CoeffGrid):
            return NotImplemented
        mk = max(self.max_k, other.max_k)
        mj = max(self.max_j, other.max_j)
        out = np.zeros((mk + 1, mj + 1))
        out[: self.max_k + 1, : self.max_j + 1] = self._dense
        out[: other.max_k + 1, : other.max_j + 1] += sign * other._dense
        return CoeffGrid.from_dense(out)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __mul__(self, alpha):
        return CoeffGrid.from_dense(float(alpha) * self._dense)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, CoeffGrid):
            return NotImplemented
        return (self._dense.shape == other._dense.shape
                and np.array_equal(self._dense, other._dense))

    def __repr__(self):
        return (f"CoeffGrid(nnz={self.nnz}, max_k={self.max_k}, "
                f"max_j={self.max_j})")


def analyze(f, max_k: int, max_j: int) -> CoeffGrid:
    """Compute expansion coefficients of f by tensor Gauss-Chebyshev quadrature.

    ``f`` is called pointwise as ``f(t, tau)`` on the tensor grid of
    ``2 * max(max_k, max_j) + 1`` nodes per dimension, which makes the
    computed coefficients exact (to roundoff) whenever f is a polynomial of
    coordinate degrees at most ``3 * max(max_k, max_j) + 1``.
    """
    if max_k < 0 or max_j < 0:
        raise ValueError("degree bounds must be nonnegative")
    ts = gauss_chebyshev_nodes(2 * max(max_k, max_j) + 1)
    samples = np.array([[float(f(t, u)) for u in ts] for t in ts])
    bk = basis_matrix(max_k, ts)
    bj = basis_matrix(max_j, ts)
    w = math.pi / ts.size
    coeffs = (w * w) * (bk.T @ samples @ bj)
    return CoeffGrid.from_dense(coeffs)


def synthesize(coeffs: CoeffGrid, t: float, tau: float) -> float:
    """Evaluate the expansion at a single point.

    The terms ``a[k, j] * T_k(t) * T_j(tau)`` are formed as arrays from one
    basis row per variable and summed with compensated summation
    (``math.fsum``), so the result does not depend on the summation order.
    """
    bt = basis_matrix(coeffs.max_k, [t])[0]
    btau = basis_matrix(coeffs.max_j, [tau])[0]
    return math.fsum(((coeffs._dense * bt[:, None]) * btau).ravel())


def grid_synthesize(coeffs: CoeffGrid, ts, taus) -> np.ndarray:
    """Evaluate the expansion on a tensor grid; entry (i, m) is the value at
    (ts[i], taus[m]).

    Uses dense matrix products; agrees with pointwise :func:`synthesize` to
    roundoff.
    """
    bt = basis_matrix(coeffs.max_k, np.asarray(ts, dtype=float))
    btau = basis_matrix(coeffs.max_j, np.asarray(taus, dtype=float))
    return bt @ coeffs._dense @ btau.T


def write_csv_table(path, header: str, row: str, *columns) -> None:
    """Write a CSV table: the ``header`` line, then ``row % (c0[i], c1[i], ...)``
    for each i over the equal-length ``columns``.

    Lines end in CRLF, as :mod:`csv` writes them.
    """
    lines = map(row.__mod__, zip(*(np.asarray(c).tolist() for c in columns)))
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(itertools.chain([header], lines)) + "\r\n")


def _nonzero_entries(coeffs: CoeffGrid):
    """(ks, js, values) of the nonzero entries, ascending (k, j)."""
    ks, js = np.nonzero(coeffs._dense)
    return ks, js, coeffs._dense[ks, js]


def write_coeff_csv(coeffs: CoeffGrid, path) -> None:
    write_csv_table(path, "k,j,coeff", "%d,%d,%.17g", *_nonzero_entries(coeffs))


@contextlib.contextmanager
def _open_text(path):
    """Open ``path`` as UTF-8; an undecodable byte is a CoeffFileError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise CoeffFileError(f"{path}: {exc}") from None


def _csv_body(fh):
    """Yield (line number, line) for the non-blank lines left in ``fh``,
    which has consumed the header (line 1)."""
    for number, line in enumerate(fh, start=2):
        if not line.isspace():
            yield number, line


def _csv_line_number(path, row: int) -> int:
    """File line number of data row ``row`` (0-based, blank lines skipped)."""
    with _open_text(path) as fh:
        fh.readline()
        return next(itertools.islice(_csv_body(fh), row, None))[0]


def read_coeff_csv(path) -> CoeffGrid:
    with _open_text(path) as fh:
        header = fh.readline()
        if header and [cell.strip() for cell in
                       next(csv.reader([header]), [])] != _CSV_HEADER:
            raise CoeffFileError(f"{path}: line 1: expected header 'k,j,coeff'")
        last = None  # (number, line) of the line the parser read last

        def lines():
            nonlocal last
            for last in _csv_body(fh):
                yield last[1]

        fed = lines()
        first = next(fed, None)
        if first is None:  # header only: loadtxt would warn on no data
            return CoeffGrid()
        try:
            rows = np.loadtxt(itertools.chain([first], fed), dtype=_CSV_ROW,
                              delimiter=",", quotechar='"', comments=None,
                              ndmin=1)
        except UnicodeDecodeError:  # not a bad line: _open_text reports it
            raise
        except ValueError as exc:
            # the parser stops at the first bad line without reading ahead
            number, line = last
            fields = len(next(csv.reader([line]), []))
            reason = (f"expected 3 fields, got {fields}" if fields != 3
                      else str(exc).split(" at row ")[0])
            raise CoeffFileError(f"{path}: line {number}: {reason}") from None
    try:
        dense = _entry_table(rows["k"], rows["j"], rows["value"], None, None,
                             lambda i: f"line {_csv_line_number(path, i)}")
    except ValueError as exc:
        raise CoeffFileError(f"{path}: {exc}") from None
    return CoeffGrid._wrap(dense)


def write_coeff_json(coeffs: CoeffGrid, path) -> None:
    ks, js, values = _nonzero_entries(coeffs)
    doc = {
        "max_k": coeffs.max_k,
        "max_j": coeffs.max_j,
        "entries": list(zip(ks.tolist(), js.tolist(), values.tolist())),
    }
    # json.dumps takes the C encoder; json.dump streams through the Python one
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def read_coeff_json(path) -> CoeffGrid:
    with _open_text(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CoeffFileError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    try:
        max_k, max_j, entries = doc["max_k"], doc["max_j"], doc["entries"]
    except (KeyError, TypeError):
        raise CoeffFileError(f"{path}: expected an object with max_k, max_j "
                             f"and entries") from None
    for name, bound in (("max_k", max_k), ("max_j", max_j)):
        if type(bound) is not int:  # bool is an int subclass, and is refused
            raise CoeffFileError(f"{path}: {name} must be an integer")
    table = np.asarray(entries, dtype=object) if isinstance(entries, list) else None
    if table is None or table.shape not in ((0,), (len(entries), 3)):
        raise CoeffFileError(f"{path}: entries must be a list of "
                             f"[k, j, value] triples")
    table = table.reshape(-1, 3)
    bad = _first((np.frompyfunc(type, 1, 1)(table[:, :2]) != int).any(axis=1))
    if bad is not None:
        raise CoeffFileError(f"{path}: entries[{bad}]: k and j must be integers")
    try:
        dense = _entry_table(table[:, 0].astype(np.int64),
                             table[:, 1].astype(np.int64),
                             table[:, 2].astype(float), max_k, max_j,
                             "entries[{}]".format)
    except (OverflowError, TypeError, ValueError) as exc:
        raise CoeffFileError(f"{path}: {exc}") from None
    return CoeffGrid._wrap(dense)


def read_coeff_file(path) -> CoeffGrid:
    """Read a coefficient file, dispatching on the .json / .csv suffix."""
    if str(path).endswith(".json"):
        return read_coeff_json(path)
    return read_coeff_csv(path)
