"""Error metrics for coefficient grids.

Three output metrics are supported: the weighted L2 norm (exact through the
coefficients), weighted Lq norms approximated by tensor Gauss-Chebyshev
quadrature, and a grid surrogate for the uniform norm.  The module also
provides the coefficient-weighted Lq upper-bound functional and the
explicit-constant polynomial sup/L2 comparison bound.

Metric selection strings (CLI and config): ``l2w``, ``lqw:<q>``, ``sup``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import basis_matrix, gauss_chebyshev_nodes
from .transform import MAX_TABLE_ENTRIES, CoeffGrid


@dataclass(frozen=True)
class MetricSpec:
    """Which norm to report and how finely to evaluate it.

    ``eval_grid`` is the number of points per dimension for the uniform
    surrogate; for Lq it is a floor on the quadrature size (the actual size
    also grows with the polynomial degree, see :func:`lq_omega_norm`).
    """

    kind: str  # "l2w" | "lqw" | "sup"
    q: float | None = None
    eval_grid: int = 257

    def __post_init__(self):
        if self.kind not in ("l2w", "lqw", "sup"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "lqw":
            if self.q is None or not self.q >= 2:
                raise ValueError("Lq metric requires q >= 2")
        elif self.q is not None:
            raise ValueError(f"metric {self.kind!r} takes no q parameter")
        if self.eval_grid < 2:
            raise ValueError("eval_grid must be at least 2")

    @property
    def label(self) -> str:
        if self.kind == "lqw":
            return f"lqw:{self.q:g}"
        return self.kind


def parse_metric(text: str) -> MetricSpec:
    """Parse ``l2w``, ``lqw:<q>`` or ``sup`` into a MetricSpec."""
    text = text.strip()
    if text in ("l2w", "sup"):
        return MetricSpec(text)
    if text.startswith("lqw:"):
        return MetricSpec("lqw", q=float(text[4:]))
    raise ValueError(f"unknown metric {text!r} (expected l2w, lqw:<q>, sup)")


def _exact_sum(values: np.ndarray) -> float:
    """Correctly rounded sum of a float64 array, ``== math.fsum(values)``.

    Each value is m * 2**e with 0.5 <= |m| < 1.  The integer part of
    m * 2**27 (at most 27 bits) and the rest (a multiple of 2**-26) are
    summed per exponent by ``np.bincount``; for up to 2**26 values
    (MAX_TABLE_ENTRIES) every partial sum stays below 2**53 units, so both
    sums are exact.  The per-exponent sums are added as Python ints and
    rounded once by int true division, which rounds correctly as fsum
    does.  A non-finite value or a larger array is left to fsum.
    """
    values = values.ravel()
    if values.size > MAX_TABLE_ENTRIES:
        return math.fsum(values)
    mant, exp = np.frexp(values)
    exp += 1073  # frexp exponents run from -1073 (at 2**-1074) to 1024
    mant *= 2.0 ** 27
    whole = np.trunc(mant)
    high = np.bincount(exp, whole)
    if not np.isfinite(high).all():  # an inf or nan input
        return math.fsum(values)
    mant -= whole
    low = np.bincount(exp, mant) * 2.0 ** 26
    bins = np.flatnonzero((high != 0) | (low != 0))
    total = sum(((int(h) << 26) + int(lo)) << b for b, h, lo in
                zip(bins.tolist(), high[bins].tolist(), low[bins].tolist()))
    return total / (1 << 1126)  # exponent bin b holds multiples of 2**(b - 1126)


def l2_omega_norm(coeffs: CoeffGrid) -> float:
    """Weighted L2 norm, exact through the coefficients (Parseval)."""
    dense = coeffs._dense
    return math.sqrt(_exact_sum(dense * dense))


def lq_omega_norm(coeffs: CoeffGrid, q: float, quad_n: int | None = None) -> float:
    """Weighted Lq norm by tensor Gauss-Chebyshev quadrature.

    For even integer q, |f|^q is a polynomial of degree q * (max degree) in
    each variable, so the default q * (max degree) / 2 + 1 nodes per
    dimension are exact; the default is capped at 4 * (max degree) + 1, the
    exact size for q = 8.  Every other q takes the cap: the integrand is not
    a polynomial and the result is an approximation.
    """
    if not q >= 1:
        raise ValueError("q must be >= 1")
    max_deg = max(coeffs.max_k, coeffs.max_j)
    if quad_n is None:
        quad_n = _lq_nodes(q, max_deg)
    if quad_n < max_deg + 1:
        raise ValueError("quad_n must be at least max degree + 1")
    values = _tensor_values(coeffs, "gauss", quad_n)
    np.abs(values, out=values)
    values **= q
    w = math.pi / quad_n
    return float((w * w * np.sum(values)) ** (1.0 / q))


def _lq_nodes(q: float, max_deg: int) -> int:
    """Default quadrature size of :func:`lq_omega_norm`."""
    cap = 4 * max_deg + 1
    if q % 2 == 0:
        return min(int(q) * max_deg // 2 + 1, cap)
    return cap


def cosine_grid(points_per_dim: int) -> np.ndarray:
    """Endpoint-including evaluation nodes cos(i*pi/(M-1)), i = 0..M-1."""
    if points_per_dim < 2:
        raise ValueError("need at least 2 points per dimension")
    return np.cos(np.arange(points_per_dim) * math.pi / (points_per_dim - 1))


def sup_norm(coeffs: CoeffGrid, points_per_dim: int = 257) -> float:
    """Uniform-norm surrogate: max |value| on an M x M cosine tensor grid.

    The grid includes the corners (+-1, +-1), where polynomial sums peak;
    the grid maximum underestimates the true sup by an amount controlled by
    M relative to the polynomial degrees.
    """
    return float(np.abs(_tensor_values(coeffs, "cosine", points_per_dim)).max())


@functools.lru_cache(maxsize=8)
def _basis(degree: int, nodes: str, size: int) -> np.ndarray:
    """Read-only basis matrix for degrees 0..degree at ``size`` nodes of the
    "cosine" grid or the "gauss" (Gauss-Chebyshev) rule.

    A sweep evaluates every trial's metric on the same nodes and degrees,
    so the matrices are built once per process.
    """
    points = (cosine_grid(size) if nodes == "cosine"
              else gauss_chebyshev_nodes(size))
    matrix = basis_matrix(degree, points)
    matrix.setflags(write=False)
    return matrix


def _tensor_values(coeffs: CoeffGrid, nodes: str, size: int) -> np.ndarray:
    """The expansion on the size x size tensor grid of ``nodes``, computed
    as :func:`~chebdiff2d.transform.grid_synthesize` does."""
    bt = _basis(coeffs.max_k, nodes, size)
    btau = _basis(coeffs.max_j, nodes, size)
    return bt @ coeffs.to_dense() @ btau.T


def lq_coefficient_bound(coeffs: CoeffGrid, q: float) -> float:
    """Coefficient-weighted upper-bound functional for the Lq norm.

    Returns (sum (max(1,k)*max(1,j))**(1 - 2/q) * a^2)^(1/2); at q = 2 this
    is exactly the L2 norm.  The Lq norm is bounded by a constant multiple
    of this quantity for 2 <= q < infinity.
    """
    if not 2 <= q < math.inf:
        raise ValueError("q must lie in [2, inf)")
    uk = np.maximum(1, np.arange(coeffs.max_k + 1))
    uj = np.maximum(1, np.arange(coeffs.max_j + 1))
    dense = coeffs._dense
    weighted = np.outer(uk, uj) ** (1.0 - 2.0 / q) * dense * dense
    return math.sqrt(_exact_sum(weighted))


def nikolskii_explicit_bound(max_k: int, max_j: int) -> float:
    """Explicit constant in the sup vs weighted-L2 comparison.

    For any polynomial of coordinate degrees (max_k, max_j) the sup norm is
    at most (2/pi) * sqrt((max_k + 1) * (max_j + 1)) times its weighted L2
    norm.
    """
    if max_k < 0 or max_j < 0:
        raise ValueError("degrees must be nonnegative")
    return (2.0 / math.pi) * math.sqrt((max_k + 1) * (max_j + 1))


def evaluate_metric(coeffs: CoeffGrid, metric: MetricSpec) -> float:
    """Evaluate one of the three output metrics on a coefficient grid."""
    if metric.kind == "l2w":
        return l2_omega_norm(coeffs)
    if metric.kind == "sup":
        return sup_norm(coeffs, metric.eval_grid)
    quad_n = _lq_nodes(metric.q, max(coeffs.max_k, coeffs.max_j))
    return lq_omega_norm(coeffs, metric.q, max(metric.eval_grid, quad_n))
