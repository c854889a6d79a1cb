"""Coefficient grids and the transforms between samples and coefficients.

A :class:`CoeffGrid` is an immutable finite table of expansion coefficients
a[k, j] against the orthonormal tensor Chebyshev basis; absent indices are
exact zeros.  The table is stored as one read-only dense array covering the
enclosing (max_k+1) x (max_j+1) box, so the bounds are the array's shape.

File formats
------------
CSV:   header line ``k,j,coeff``, one nonzero entry per line, coefficient
       printed with 17 significant digits (lossless round trip).
JSON:  ``{"max_k": int, "max_j": int, "entries": [[k, j, value], ...]}``.
Omitted index pairs are zero in both formats.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .basis import basis_matrix, eval_orthonormal, gauss_chebyshev_rule


class CoeffFileError(ValueError):
    """Malformed coefficient file; the message carries the line number."""


class CoeffGrid:
    """Immutable table of tensor-basis coefficients indexed by (k, j)."""

    __slots__ = ("_dense",)

    def __init__(self, entries=(), max_k: int | None = None, max_j: int | None = None):
        table: dict[tuple[int, int], float] = {}
        pairs = entries.items() if isinstance(entries, dict) else entries
        for key, value in pairs:
            k, j = key
            if k != int(k) or j != int(j) or k < 0 or j < 0:
                raise ValueError(f"invalid index pair {key!r}")
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"non-finite coefficient at {key!r}")
            k, j = int(k), int(j)
            if (k, j) in table:
                raise ValueError(f"duplicate index pair ({k}, {j})")
            if value != 0.0:
                table[(k, j)] = value
        if max_k is None:
            max_k = max((k for k, _ in table), default=0)
        if max_j is None:
            max_j = max((j for _, j in table), default=0)
        if max_k < 0 or max_j < 0:
            raise ValueError("degree bounds must be nonnegative")
        for k, j in table:
            if k > max_k or j > max_j:
                raise ValueError(f"entry ({k}, {j}) outside declared bounds "
                                 f"({max_k}, {max_j})")
        dense = np.zeros((int(max_k) + 1, int(max_j) + 1))
        for (k, j), value in table.items():
            dense[k, j] = value
        dense.setflags(write=False)
        self._dense = dense

    @classmethod
    def from_dense(cls, array) -> "CoeffGrid":
        """Build a grid from a 2-D array; entry [k, j] is the coefficient."""
        arr = np.asarray(array, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("dense input must be a nonempty 2-D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("dense input contains non-finite values")
        dense = arr.copy()
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


def analyze(f, max_k: int, max_j: int, quad_n: int | None = None) -> CoeffGrid:
    """Compute expansion coefficients of f by tensor Gauss-Chebyshev quadrature.

    ``f`` is called pointwise as ``f(t, tau)`` on the tensor quadrature grid.
    Default ``quad_n = 2 * max(max_k, max_j) + 1`` nodes per dimension, which
    makes the computed coefficients exact (to roundoff) whenever f is a
    polynomial of coordinate degrees at most ``2*quad_n - 1 - max(max_k, max_j)``.
    """
    if max_k < 0 or max_j < 0:
        raise ValueError("degree bounds must be nonnegative")
    if quad_n is None:
        quad_n = 2 * max(max_k, max_j) + 1
    if quad_n < max(max_k, max_j) + 1:
        raise ValueError("quad_n must be at least max degree + 1")
    rule = gauss_chebyshev_rule(quad_n)
    ts = rule.nodes
    samples = np.array([[float(f(t, u)) for u in ts] for t in ts])
    bk = basis_matrix(max_k, ts)
    bj = basis_matrix(max_j, ts)
    w = math.pi / quad_n
    coeffs = (w * w) * (bk.T @ samples @ bj)
    return CoeffGrid.from_dense(coeffs)


def synthesize(coeffs: CoeffGrid, t: float, tau: float) -> float:
    """Evaluate the expansion at a single point.

    Terms are accumulated in ascending (k, j) order with compensated
    summation (``math.fsum``), so the result is reproducible and does not
    depend on the storage layout.
    """
    terms = [value * eval_orthonormal(k, t) * eval_orthonormal(j, tau)
             for (k, j), value in coeffs.items()]
    return math.fsum(terms)


def grid_synthesize(coeffs: CoeffGrid, ts, taus) -> np.ndarray:
    """Evaluate the expansion on a tensor grid; entry (i, m) is the value at
    (ts[i], taus[m]).

    Uses dense matrix products; agrees with pointwise :func:`synthesize` to
    roundoff.
    """
    bt = basis_matrix(coeffs.max_k, np.asarray(ts, dtype=float))
    btau = basis_matrix(coeffs.max_j, np.asarray(taus, dtype=float))
    return bt @ coeffs._dense @ btau.T


def write_coeff_csv(coeffs: CoeffGrid, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "j", "coeff"])
        for (k, j), value in coeffs.items():
            writer.writerow([k, j, f"{value:.17g}"])


def read_coeff_csv(path) -> CoeffGrid:
    entries = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1:
                if [cell.strip() for cell in row] != ["k", "j", "coeff"]:
                    raise CoeffFileError(
                        f"{path}: line 1: expected header 'k,j,coeff'")
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise CoeffFileError(f"{path}: line {lineno}: expected 3 fields, "
                                     f"got {len(row)}")
            try:
                k, j, value = int(row[0]), int(row[1]), float(row[2])
            except ValueError as exc:
                raise CoeffFileError(f"{path}: line {lineno}: {exc}") from None
            if k < 0 or j < 0 or not math.isfinite(value):
                raise CoeffFileError(f"{path}: line {lineno}: invalid entry")
            entries.append(((k, j), value))
    try:
        return CoeffGrid(entries)
    except ValueError as exc:
        raise CoeffFileError(f"{path}: {exc}") from None


def write_coeff_json(coeffs: CoeffGrid, path) -> None:
    doc = {
        "max_k": coeffs.max_k,
        "max_j": coeffs.max_j,
        "entries": [[k, j, value] for (k, j), value in coeffs.items()],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_coeff_json(path) -> CoeffGrid:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CoeffFileError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    try:
        entries = [((int(k), int(j)), float(v)) for k, j, v in doc["entries"]]
        return CoeffGrid(entries, int(doc["max_k"]), int(doc["max_j"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CoeffFileError(f"{path}: {exc}") from None


def read_coeff_file(path) -> CoeffGrid:
    """Read a coefficient file, dispatching on the .json / .csv suffix."""
    if str(path).endswith(".json"):
        return read_coeff_json(path)
    return read_coeff_csv(path)
