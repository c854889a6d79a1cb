"""Hyperbolic-cross index sets used as truncation domains.

For level n, shape parameter gamma >= 1 and derivative order r >= 1 the set
holds the pairs (k, j) with r <= k <= n where j = 0 is always admitted and
j >= 1 requires k * j**gamma <= n.  Admission is monotone in j, so a set is
one read-only array of column bounds (the largest admitted j per k),
computed once: exactly for gamma in {1, 2} and with a small relative
tolerance otherwise, so ties at the boundary are deterministic.
Enumeration is ordered by ascending k, then ascending j.
"""

from __future__ import annotations

import math

import numpy as np

_BOUNDARY_RTOL = 1e-12

#: Largest truncation level n; a gamma = 1 cross at this level holds about
#: 15 million index pairs.
MAX_LEVEL = 2 ** 20


def _column_bounds(n: int, gamma: float, r: int) -> np.ndarray:
    """Largest admitted j for each column k = r..n, as int64."""
    ks = np.arange(r, n + 1)
    if gamma == 1.0:
        return n // ks
    if gamma == 2.0:  # a correctly rounded sqrt floors to isqrt below 2**52
        return np.floor(np.sqrt(n // ks)).astype(np.int64)
    # the guess is within one of the bound; j**gamma overflowing to inf for
    # a huge gamma correctly fails the test
    kf, bound = ks.astype(float), n * (1.0 + _BOUNDARY_RTOL)
    with np.errstate(over="ignore"):
        j = np.floor((n / kf) ** (1.0 / gamma))
        j += kf * (j + 1.0) ** gamma <= bound
        j -= kf * j ** gamma > bound
    return j.astype(np.int64)


class CrossIndexSet:
    """Enumerable hyperbolic cross with parameters (n, gamma, r).

    Immutable after construction; iteration and membership tests are
    read-only and safe to use concurrently.
    """

    __slots__ = ("n", "gamma", "r", "_columns")

    def __init__(self, n: int, gamma: float, r: int):
        if int(r) != r or r < 1:
            raise ValueError("derivative order r must be an integer >= 1")
        if int(n) != n or n < r:
            raise ValueError(f"level n must be an integer >= r (got n={n}, r={r})")
        if n > MAX_LEVEL:
            raise ValueError(f"level n={n} exceeds the limit MAX_LEVEL = {MAX_LEVEL}")
        if not 1.0 <= gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 1 (got gamma={gamma})")
        self.n = int(n)
        self.gamma = float(gamma)
        self.r = int(r)
        self._columns = _column_bounds(self.n, self.gamma, self.r)
        self._columns.flags.writeable = False

    def j_max(self, k: int) -> int:
        """Largest admitted j for column k (j = 0 is always admitted)."""
        if not self.r <= k <= self.n:
            raise ValueError(f"k={k} outside [{self.r}, {self.n}]")
        return int(self._columns[k - self.r])

    @property
    def j_bound(self) -> int:
        """Enclosing bound on j over the whole set (attained at k = r)."""
        return int(self._columns[0])

    def __contains__(self, index) -> bool:
        k, j = index
        if k != int(k) or j != int(j):
            return False
        k, j = int(k), int(j)
        return self.r <= k <= self.n and 0 <= j <= self._columns[k - self.r]

    def __iter__(self):
        for k, top in enumerate(self._columns.tolist(), start=self.r):
            for j in range(top + 1):
                yield (k, j)

    def __len__(self) -> int:
        return int(self._columns.sum()) + len(self._columns)

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
