"""Hyperbolic-cross index sets used as truncation domains.

For level n, shape parameter gamma >= 1 and derivative order r >= 1 the set
holds the pairs (k, j) with r <= k <= n where j = 0 is always admitted and
j >= 1 requires k * j**gamma <= n.  Enumeration is lazy (no materialization)
and deterministically ordered: ascending k, then ascending j.

Boundary membership is decided in exact integer arithmetic for gamma in
{1, 2} and with a small relative tolerance otherwise, so ties at the
boundary are deterministic.
"""

from __future__ import annotations

import math

_BOUNDARY_RTOL = 1e-12

#: Largest truncation level n; a gamma = 1 cross at this level holds about
#: 15 million index pairs.
MAX_LEVEL = 2 ** 20


def underline(k: int) -> int:
    """max(1, k): zero-degree indices carry unit weight in norms and crosses."""
    return k if k >= 1 else 1


class CrossIndexSet:
    """Enumerable hyperbolic cross with parameters (n, gamma, r).

    Immutable after construction; iteration and membership tests are
    read-only and safe to use concurrently.
    """

    __slots__ = ("n", "gamma", "r", "_size")

    def __init__(self, n: int, gamma: float, r: int):
        if int(r) != r or r < 1:
            raise ValueError("derivative order r must be an integer >= 1")
        if int(n) != n or n < r:
            raise ValueError(f"level n must be an integer >= r (got n={n}, r={r})")
        if n > MAX_LEVEL:
            raise ValueError(f"level n={n} exceeds the limit MAX_LEVEL = {MAX_LEVEL}")
        if not (gamma >= 1.0):
            raise ValueError("gamma must be >= 1")
        self.n = int(n)
        self.gamma = float(gamma)
        self.r = int(r)
        self._size: int | None = None

    def _admits(self, k: int, j: int) -> bool:
        # j >= 1; gamma irrational in general, hence the relative tolerance
        return k * float(j) ** self.gamma <= self.n * (1.0 + _BOUNDARY_RTOL)

    def j_max(self, k: int) -> int:
        """Largest admitted j for column k (j = 0 is always admitted)."""
        if not self.r <= k <= self.n:
            raise ValueError(f"k={k} outside [{self.r}, {self.n}]")
        if self.gamma == 1.0:
            return self.n // k
        if self.gamma == 2.0:
            return math.isqrt(self.n // k)
        j = int((self.n / k) ** (1.0 / self.gamma))
        while self._admits(k, j + 1):
            j += 1
        while j > 0 and not self._admits(k, j):
            j -= 1
        return j

    @property
    def j_bound(self) -> int:
        """Enclosing bound on j over the whole set (attained at k = r)."""
        return self.j_max(self.r)

    def __contains__(self, index) -> bool:
        k, j = index
        if k != int(k) or j != int(j):
            return False
        k, j = int(k), int(j)
        # admission is monotone in j, so the column's largest j decides
        return self.r <= k <= self.n and 0 <= j <= self.j_max(k)

    def __iter__(self):
        for k in range(self.r, self.n + 1):
            for j in range(self.j_max(k) + 1):
                yield (k, j)

    def __len__(self) -> int:
        if self._size is None:
            self._size = sum(self.j_max(k) + 1 for k in range(self.r, self.n + 1))
        return self._size

    def __repr__(self):
        return f"CrossIndexSet(n={self.n}, gamma={self.gamma}, r={self.r})"


def build_cross(n: int, gamma: float, r: int) -> CrossIndexSet:
    """Construct the hyperbolic cross with level n, shape gamma, order r."""
    return CrossIndexSet(n, gamma, r)


def cardinality(n: int, gamma: float, r: int) -> int:
    """Number of index pairs in the cross, computed without materializing it.

    Grows like n for gamma > 1 and like n*log(n) for gamma = 1.
    """
    return len(CrossIndexSet(n, gamma, r))
