"""Coefficient grids and the transforms between samples and coefficients.

A :class:`CoeffGrid` is an immutable finite table of expansion coefficients
a[k, j] against the orthonormal tensor Chebyshev basis; absent indices are
exact zeros.  The table is stored as one read-only dense array covering the
enclosing (max_k+1) x (max_j+1) box, so the bounds are the array's shape.

File formats
------------
CSV:   header line ``k,j,coeff``, one nonzero entry per line, coefficient
       printed with 17 significant digits (lossless round trip).  Readers
       accept fields quoted with ``"`` or padded with white space (spaces,
       tabs and other Unicode white space), and skip blank lines.
JSON:  ``{"max_k": int, "max_j": int, "entries": [[k, j, value], ...]}``
       and no other key; indices and bounds are JSON integers, values JSON
       numbers (not strings, ``true`` or ``null``).
Omitted index pairs are zero in both formats; a repeated pair, or a JSON
key given twice in one object, is an error.
The CSV reader validates whole arrays at once; the JSON reader checks the set of
types in each entry column, and seeks the first bad entry only after a check fails.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator

import numpy as np

from .basis import _check_table_size, _shown, basis_matrix, gauss_chebyshev_nodes

_CSV_HEADER = ["k", "j", "coeff"]
_CSV_ROW = np.dtype([("k", np.int64), ("j", np.int64), ("value", np.float64)])


class CoeffFileError(ValueError):
    """Malformed coefficient file; the message names the line or entry."""


def _unique_keys(pairs) -> dict:
    """``object_pairs_hook`` for :func:`json.load`: an object that gives a
    key twice is a ValueError naming the key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {_shown(key)}")
        doc[key] = value
    return doc


def _load_json(path, error: type[ValueError]):
    """The JSON document in ``path``.  Bad syntax, a repeated key, a byte
    not UTF-8 or too deep a nesting raises ``error``, naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: line {exc.lineno}: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: {exc}") from None


def _is_index(key) -> bool:
    """Whether a key is an integral number in [0, 2^63), so that int64 holds it."""
    try:
        return float(key).is_integer() and 0 <= key < 2 ** 63
    except (TypeError, ValueError, OverflowError):
        return False


def _is_pair(key) -> bool:
    """Whether numpy reads a key as a vector of two scalars."""
    try:
        return np.shape(key) == (2,)
    except ValueError:  # a ragged sequence
        return False


def _entry_table(ks, js, values, max_k, max_j, where) -> np.ndarray:
    """Validate entries given as parallel k, j and value vectors and scatter
    them into a dense (max_k + 1) x (max_j + 1) table.

    Indices must be integral and nonnegative, values finite, and pairs
    distinct and inside the bounds, which default to the largest indices.
    An error names the first offending entry i as ``where(i)``.
    """
    def refuse(bad, reason: str) -> None:
        """Refuse the least entry in the index array ``bad``, if any;
        ``reason`` has a ``{}`` for its (k, j) pair."""
        if bad.size:
            i = int(bad.min())
            pair = f"({_shown(ks[i])}, {_shown(js[i])})"
            raise ValueError(f"{where(i)}: {reason.format(pair)}")

    if "O" in (ks.dtype.kind, js.dtype.kind):  # a key numpy keeps as an object
        refuse(np.flatnonzero([not (_is_index(k) and _is_index(j))
                               for k, j in zip(ks, js)]), "invalid index pair {}")
        ks, js = ks.astype(np.int64), js.astype(np.int64)
    if not {ks.dtype.kind, js.dtype.kind} <= set("biuf"):
        raise ValueError("entries must be (k, j, value) with numeric k and j")
    try:
        array = np.asarray(values, dtype=float)
    except (OverflowError, TypeError, ValueError):  # a Python object in values
        array = None
    if array is None or array.shape != ks.shape:
        for i, value in enumerate(values):
            try:
                float(value)
            except OverflowError:
                refuse(np.array([i]), "coefficient at {} is too large for a float")
            except (TypeError, ValueError):
                refuse(np.array([i]), "coefficient at {} is not a number")
        raise ValueError("entries must be (k, j, value) with numeric values")
    values = array
    valid = (ks >= 0) & (js >= 0)
    if {ks.dtype.kind, js.dtype.kind} & set("uf"):  # keys the int64 cast wraps
        valid &= ((np.floor(ks) == ks) & (ks < 2.0 ** 63)
                  & (np.floor(js) == js) & (js < 2.0 ** 63))
    refuse(np.flatnonzero(~valid), "invalid index pair {}")
    ks, js = ks.astype(np.int64, copy=False), js.astype(np.int64, copy=False)
    refuse(np.flatnonzero(~np.isfinite(values)), "non-finite coefficient at {}")
    max_k = int(ks.max(initial=0)) if max_k is None else max_k
    max_j = int(js.max(initial=0)) if max_j is None else max_j
    shape = _check_table_size(max_k, max_j)
    refuse(np.flatnonzero((ks > max_k) | (js > max_j)),
           f"entry {{}} outside declared bounds ({max_k}, {max_j})")
    dense = np.zeros(shape)
    cells = np.ravel_multi_index((ks, js), dense.shape)
    # a stable sort keeps equal cells in entry order, so every entry after
    # the first of its run repeats an earlier pair
    order = np.argsort(cells, kind="stable")
    refuse(order[1:][np.diff(cells[order]) == 0], "duplicate index pair {}")
    dense.reshape(-1)[cells] = values
    return dense


class CoeffGrid:
    """Immutable table of tensor-basis coefficients indexed by (k, j)."""

    __slots__ = ("_dense",)

    def __init__(self, entries=(), max_k: int | None = None, max_j: int | None = None):
        """Grid from ``((k, j), value)`` pairs or a ``{(k, j): value}`` dict.

        Indices must be integral and nonnegative, values finite, and pairs
        distinct and within the bounds, which default to the largest
        indices; a ValueError names the first offending entry.
        """
        pairs = list(entries.items() if isinstance(entries, dict) else entries)
        keys, values = zip(*pairs) if pairs else ((), ())
        try:
            keys = np.array(keys).reshape(len(pairs), 2)
        except ValueError:  # numpy's message names no entry
            i = next(i for i, key in enumerate(keys) if not _is_pair(key))
            raise ValueError(f"entry {i}: the key is not a (k, j) pair") from None
        dense = _entry_table(keys[:, 0], keys[:, 1], values, max_k, max_j,
                             "entry {}".format)
        dense.setflags(write=False)
        self._dense = dense

    @classmethod
    def from_dense(cls, array) -> "CoeffGrid":
        """Grid from a copy of a 2-D array whose entry [k, j] is a[k, j],
        refused above MAX_TABLE_ENTRIES entries as a coefficient table before
        it is copied."""
        shape = np.shape(array)
        if len(shape) == 2 and min(shape) > 0:  # _wrap refuses any other shape
            _check_table_size(shape[0] - 1, shape[1] - 1)
        return cls._wrap(np.array(array, dtype=float, order="C"))

    @classmethod
    def _wrap(cls, dense: np.ndarray) -> "CoeffGrid":
        """Adopt an unshared 2-D float table as the read-only storage,
        refusing an empty table or naming the first non-finite entry."""
        if dense.ndim != 2 or dense.size == 0:
            raise ValueError("dense input must be a nonempty 2-D array")
        if not np.isfinite(dense).all():
            k, j = np.argwhere(~np.isfinite(dense))[0].tolist()
            raise ValueError(f"non-finite coefficient at ({k}, {j})")
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

    def to_dense(self) -> np.ndarray:
        """Writable dense copy of shape (max_k + 1, max_j + 1)."""
        return self._dense.copy()

    def restrict_to(self, cross) -> "CoeffGrid":
        """Keep only entries whose (k, j) lies in the hyperbolic ``cross``
        (a :class:`~chebdiff2d.hypercross.CrossIndexSet`); bounds kept."""
        return CoeffGrid._wrap(
            np.where(cross.mask(*self._dense.shape), self._dense, 0.0))

    def _binary(self, other: "CoeffGrid", ufunc) -> "CoeffGrid":
        if not isinstance(other, CoeffGrid):
            return NotImplemented
        out = np.zeros(_check_table_size(max(self.max_k, other.max_k),
                                         max(self.max_j, other.max_j)))
        out[: self.max_k + 1, : self.max_j + 1] = self._dense
        part = out[: other.max_k + 1, : other.max_j + 1]
        with np.errstate(over="ignore"):  # _wrap names an overflowed entry
            ufunc(part, other._dense, out=part)
        return CoeffGrid._wrap(out)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

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
    coordinate degrees at most ``3 * max(max_k, max_j) + 1``.  A sample
    grid above MAX_TABLE_ENTRIES points is refused before f is called.
    """
    nodes = 2 * max(_check_table_size(max_k, max_j)) - 1  # 2 * max degree + 1
    _check_table_size(nodes - 1, nodes - 1, "sample grid")
    ts = gauss_chebyshev_nodes(nodes)
    samples = np.array([[float(f(t, u)) for u in ts] for t in ts])
    bk = basis_matrix(max_k, ts)
    bj = basis_matrix(max_j, ts)
    w = math.pi / ts.size
    return CoeffGrid._wrap((w * w) * (bk.T @ samples @ bj))


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
    roundoff.  A value grid above MAX_TABLE_ENTRIES points is refused first.
    """
    _check_table_size(max(np.size(ts), 1) - 1, max(np.size(taus), 1) - 1, "value grid")
    bt = basis_matrix(coeffs.max_k, np.asarray(ts, dtype=float))
    btau = basis_matrix(coeffs.max_j, np.asarray(taus, dtype=float))
    return bt @ coeffs._dense @ btau.T


def write_csv_table(path, header: str, row: str, *columns) -> None:
    """Write a CSV table: the ``header`` line, then ``row % (c0[i], c1[i], ...)``
    for each i over the equal-length ``columns``.

    Lines end in CRLF, as :mod:`csv` writes them, 2**16 rows at a time.
    """
    columns = [np.asarray(c) for c in columns]
    row += "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for start in range(0, len(columns[0]), 2 ** 16):
            fh.writelines(map(row.__mod__, zip(*(
                c[start:start + 2 ** 16].tolist() for c in columns))))


def write_value_table(path, ts, taus, values) -> None:
    """Write the ``t,tau,value`` table of ``values[i, m]`` at ``(ts[i],
    taus[m])``, ``i`` major, every number as ``%.17g``.  Each node is
    formatted once; each grid row is filled through one ``%`` and written
    on its own, so the memory it takes is one grid row of text."""
    parts = [""] + [",%.17g,%%.17g\r\n" % tau for tau in np.asarray(taus).tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("t,tau,value\r\n")
        fh.writelines(("%.17g" % t).join(parts) % tuple(row.tolist())
                      for t, row in zip(np.asarray(ts).tolist(), values))


def _nonzero_entries(coeffs: CoeffGrid):
    """(ks, js, values) of the nonzero entries, ascending (k, j)."""
    ks, js = np.nonzero(coeffs._dense)
    return ks, js, coeffs._dense[ks, js]


def write_coeff_csv(coeffs: CoeffGrid, path) -> None:
    write_csv_table(path, "k,j,coeff", "%d,%d,%.17g", *_nonzero_entries(coeffs))


def _csv_line_number(path, row: int) -> int:
    """File line number of data row ``row`` (0-based, blank lines skipped)."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        body = (n for n, line in enumerate(fh, start=2) if not line.isspace())
        return next(itertools.islice(body, row, None))


def read_coeff_csv(path) -> CoeffGrid:
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            lines = [line for line in fh if not line.isspace()]
    except UnicodeDecodeError as exc:
        try:  # the text reader counts the position from its current block
            with open(path, "rb") as fh:
                fh.read().decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        raise CoeffFileError(f"{path}: {exc}") from None
    if header and [cell.strip() for cell in
                   next(csv.reader([header]), [])] != _CSV_HEADER:
        raise CoeffFileError(f"{path}: line 1: expected header 'k,j,coeff'")
    if not lines:  # header only: loadtxt would warn on no data
        return CoeffGrid()
    fed = iter(lines)
    try:
        rows = np.loadtxt(fed, dtype=_CSV_ROW, delimiter=",", quotechar='"',
                          comments=None, ndmin=1)
    except ValueError as exc:
        # the parser stops at the first bad line without reading ahead
        row = len(lines) - operator.length_hint(fed) - 1
        fields = len(next(csv.reader([lines[row]]), []))
        reason = (f"expected 3 fields, got {fields}" if fields != 3
                  else str(exc).split(" at row ")[0])
        raise CoeffFileError(
            f"{path}: line {_csv_line_number(path, row)}: {reason}") from None
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
    doc = _load_json(path, CoeffFileError)
    try:
        max_k, max_j, entries = doc["max_k"], doc["max_j"], doc["entries"]
    except (KeyError, TypeError):
        raise CoeffFileError(f"{path}: expected an object with max_k, max_j "
                             f"and entries") from None
    for key in doc:
        if key not in ("max_k", "max_j", "entries"):
            raise CoeffFileError(f"{path}: unknown key {_shown(key)}")
    for name, bound in (("max_k", max_k), ("max_j", max_j)):
        if type(bound) is not int:  # bool is an int subclass, and is refused
            raise CoeffFileError(f"{path}: {name} must be an integer")
    if not (isinstance(entries, list) and set(map(type, entries)) <= {list}
            and set(map(len, entries)) <= {3}):
        raise CoeffFileError(f"{path}: entries must be a list of "
                             f"[k, j, value] triples")
    column = [operator.itemgetter(i) for i in range(3)]
    # bool is an int subclass, and is refused
    if not ({*map(type, map(column[0], entries)),
             *map(type, map(column[1], entries))} <= {int}
            and set(map(type, map(column[2], entries))) <= {int, float}):
        bad = next(i for i, (k, j, v) in enumerate(entries)
                   if {type(k), type(j)} != {int} or type(v) not in (int, float))
        raise CoeffFileError(f"{path}: entries[{bad}]: k and j must be "
                             f"integers and the value a number")
    try:
        ks, js, values = (np.fromiter(map(c, entries), dtype, len(entries))
                          for c, dtype in zip(column, (np.int64, np.int64, float)))
    except OverflowError:  # _entry_table names the entry int64 or float cannot hold
        ks, js, values = (np.array(list(map(c, entries)), dtype=object) for c in column)
    del doc, entries  # the parse tree is not held while the table is built
    try:
        return CoeffGrid._wrap(_entry_table(ks, js, values, max_k, max_j,
                                            "entries[{}]".format))
    except (OverflowError, ValueError) as exc:
        raise CoeffFileError(f"{path}: {exc}") from None


def read_coeff_file(path) -> CoeffGrid:
    """Read a coefficient file, dispatching on the .json / .csv suffix."""
    if str(path).endswith(".json"):
        return read_coeff_json(path)
    return read_coeff_csv(path)
