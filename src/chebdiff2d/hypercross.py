"""Hyperbolic-cross index sets used as truncation domains.

For level n, shape parameter gamma >= 1 and derivative order r >= 1 the set
holds the pairs (k, j) with r <= k <= n where j = 0 is always admitted and
j >= 1 requires k * j**gamma <= n.  Admission is monotone in j, so a set is
one read-only array of column bounds (the largest admitted j per k),
computed once with a small relative tolerance, so ties at the boundary
are deterministic.  For gamma in {1, 2} the products k * j**gamma are exact
integers and the tolerance is below one up to MAX_LEVEL, so the bounds are
exactly n // k and isqrt(n // k).
Enumeration is ordered by ascending k, then ascending j.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import _interval, _shown, _size

_BOUNDARY_RTOL = 1e-12

#: Largest truncation level n; a gamma = 1 cross at this level holds about
#: 15 million index pairs.
MAX_LEVEL = 2 ** 20


def _level(value, name="level n", low=1) -> int:
    """A level or an order as :func:`_size` takes it, first refused above MAX_LEVEL."""
    if value > MAX_LEVEL:
        raise ValueError(f"{name}={_shown(value)} exceeds the limit MAX_LEVEL = {MAX_LEVEL}")
    return _size(value, name, low)


def _column_bounds(n: int, gamma: float, r: int) -> np.ndarray:
    """Largest admitted j for each column k = r..n, as int64."""
    # the guess is within one of the bound; j**gamma overflowing to inf for
    # a huge gamma correctly fails the test
    kf, bound = np.arange(r, n + 1, dtype=float), n * (1.0 + _BOUNDARY_RTOL)
    with np.errstate(over="ignore"):
        j = np.floor((n / kf) ** (1.0 / gamma))
        j += kf * (j + 1.0) ** gamma <= bound
        j -= kf * j ** gamma > bound
    return j.astype(np.int64)


class CrossIndexSet:
    """Enumerable hyperbolic cross with parameters (n, gamma, r).

    Immutable after construction; iteration and :meth:`mask` are read-only
    and safe to use concurrently.
    """

    __slots__ = ("n", "gamma", "r", "_columns", "_len")

    def __init__(self, n: int, gamma: float, r: int):
        self.r = _level(r, "derivative order r")
        self.n = _level(n, "level n", self.r)
        _interval(gamma, "gamma", 1, math.inf)
        self.gamma = float(gamma)
        self._columns = _column_bounds(self.n, self.gamma, self.r)
        self._columns.flags.writeable = False
        self._len = int(self._columns.sum()) + len(self._columns)

    @property
    def j_bound(self) -> int:
        """Enclosing bound on j over the whole set (attained at k = r)."""
        return int(self._columns[0])

    def mask(self, rows: int, cols: int) -> np.ndarray:
        """Fresh boolean rows x cols table, True where (k, j) is in the set;
        the parts of the set outside the box are clipped away."""
        table = np.zeros((rows, cols), dtype=bool)
        tops = self._columns[: max(rows - self.r, 0)]
        table[self.r: self.r + len(tops)] = np.arange(cols) <= tops[:, None]
        return table

    def __iter__(self):
        for k, top in enumerate(self._columns.tolist(), start=self.r):
            for j in range(top + 1):
                yield (k, j)

    def __len__(self) -> int:
        """Number of index pairs, summed once from the column bounds."""
        return self._len

    def __repr__(self):
        return f"CrossIndexSet(n={self.n}, gamma={self.gamma}, r={self.r})"


def build_cross(n: int, gamma: float, r: int) -> CrossIndexSet:
    """Construct the hyperbolic cross with level n, shape gamma, order r."""
    return CrossIndexSet(n, gamma, r)


def cardinality(n: int, gamma: float, r: int) -> int:
    """Number of index pairs in the cross, summed from its column bounds.

    Grows like n for gamma > 1 and like n*log(n) for gamma = 1.
    """
    return len(CrossIndexSet(n, gamma, r))
