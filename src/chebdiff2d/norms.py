"""Error metrics for coefficient grids.

Three output metrics, one ``_METRICS`` row each: the weighted L2 norm (exact
through the coefficients), weighted Lq norms approximated by tensor
Gauss-Chebyshev quadrature, and a grid surrogate for the uniform norm.  The
module also provides the coefficient-weighted Lq upper-bound functional and
the explicit-constant polynomial sup/L2 comparison bound.

Metric selection strings (CLI and config): ``l2w``, ``lqw:<q>``, ``sup``.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .basis import (_check_table_size, _interval, _one_of, _shown, _size, basis_matrix,
                    gauss_chebyshev_nodes)
from .transform import CoeffGrid

#: One row per metric kind: the nodes of its value grid (None: exact through
#: the coefficients); whether it takes q; the shift a(1/s, q), which sets the
#: rate, gamma_max and the bounds mu1 > 2r - a and mu2 > -a; those bounds as
#: the messages spell them; whether mu2 > mu1 - 2r is required.
_Metric = namedtuple("_Metric", "nodes takes_q shift mu1_bound mu2_bound coupled")
_METRICS = {
    "l2w": _Metric(None, False, lambda inv_s, q: inv_s - 0.5, "2r - 1/s + 1/2",
                   "1/2 - 1/s", True),
    "lqw": _Metric("quadrature", True, lambda inv_s, q: inv_s + 1.0 / q - 1.0,
                   "2r - 1/s - 1/q + 1", "1 - 1/s - 1/q", False),
    "sup": _Metric("evaluation", False, lambda inv_s, q: inv_s - 1.0, "2r - 1/s + 1",
                   "1 - 1/s", True),
}


@dataclass(frozen=True)
class MetricSpec:
    """Which norm to report and how finely to evaluate it.

    ``eval_grid`` is the number of points per dimension for the uniform
    surrogate; for Lq it is a floor on the quadrature size (the actual size
    also grows with the polynomial degree, see :func:`lq_omega_norm`).
    """

    kind: str  # a key of _METRICS
    q: float | None = None
    eval_grid: int = 257

    def __post_init__(self):
        if _METRICS[_one_of("metric kind", tuple(_METRICS))(self.kind)].takes_q:
            if self.q == math.inf:
                raise ValueError("Lq metric requires a finite q; use 'sup' for q = inf")
            _interval(math.nan if self.q is None else self.q, "q", 2, math.inf)
        elif self.q is not None:
            raise ValueError(f"metric {self.kind!r} takes no q parameter")
        object.__setattr__(self, "eval_grid", _size(self.eval_grid, "eval_grid", 2))

    @property
    def label(self) -> str:
        return self.kind if self.q is None else f"{self.kind}:{self.q:g}"


def parse_metric(text: str) -> MetricSpec:
    """Parse ``l2w``, ``lqw:<q>`` or ``sup`` into a MetricSpec."""
    text = text.strip()
    kind, colon, q = text.partition(":")
    if kind not in _METRICS or _METRICS[kind].takes_q != bool(colon):
        spellings = (k + ":<q>" if row.takes_q else k for k, row in _METRICS.items())
        raise ValueError(f"unknown metric {_shown(text)} (expected {', '.join(spellings)})")
    try:
        q = float(q) if colon else None
    except ValueError:  # float() would echo the whole suffix
        raise ValueError(f"metric {_shown(text)}: q is not a number") from None
    return MetricSpec(kind, q=q)


def _exact_units(values: np.ndarray) -> int | None:
    """Exact sum of a float64 array as an int in units of 2**-1126; None
    for a non-finite value.

    Each value is m * 2**e with 0.5 <= |m| < 1.  The integer part of
    m * 2**27 (at most 27 bits) and the rest (a multiple of 2**-26) are
    summed per exponent by ``np.bincount``; for up to 2**26 values (a
    table's limit) every partial sum stays below 2**53 units, so both
    sums are exact.  The per-exponent sums are added as Python ints.
    """
    mant, exp = np.frexp(values.ravel())
    exp += 1073  # frexp exponents run from -1073 (at 2**-1074) to 1024
    mant *= 2.0 ** 27
    whole = np.trunc(mant)
    high = np.bincount(exp, whole)
    if not np.isfinite(high).all():  # an inf or nan input
        return None
    mant -= whole
    low = np.bincount(exp, mant) * 2.0 ** 26
    bins = np.flatnonzero((high != 0) | (low != 0))
    return sum(((int(h) << 26) + int(lo)) << b for b, h, lo in
               zip(bins.tolist(), high[bins].tolist(), low[bins].tolist()))


def _exact_sum(values: np.ndarray) -> float:
    """Correctly rounded sum of a float64 array, ``== math.fsum(values)``,
    but a finite sum beyond the float range is inf, where fsum raises
    OverflowError; a non-finite term goes to fsum."""
    units = _exact_units(values)
    return math.fsum(values.ravel()) if units is None else _from_units(units)


def _from_units(units: int) -> float:
    """``units * 2**-1126`` (:func:`_exact_units`' unit) correctly rounded;
    +-inf beyond the float range."""
    try:
        return units / (1 << 1126)
    except OverflowError:
        return math.inf if units > 0 else -math.inf


#: A sum of q-th powers below this may have lost terms to underflow: the
#: smallest normal float 2**-1022 is then within 53 bits of it.
_TINY_SUM = 2.0 ** -969


def _root_sum(table, sum_of, root=math.sqrt) -> float:
    """``root(sum_of(table()))``, for a ``sum_of`` homogeneous of the degree
    ``root`` undoes.  A sum of 0, inf or below ``_TINY_SUM``, whose terms
    may have overflowed or underflowed, is taken again over a second
    ``table() * 2**-e``, with ``2**e`` just above its peak, and the root
    scaled back; every other result keeps its bits."""
    with np.errstate(over="ignore"):  # a term, or the sum, may overflow
        total = sum_of(table())
        if _TINY_SUM <= total < math.inf:
            return float(root(total))
        scaled = table()
        e = math.frexp(float(np.abs(scaled).max()))[1]  # 0 for a peak of 0, inf or nan
        return float(np.ldexp(root(sum_of(np.ldexp(scaled, -e))), e))


def l2_omega_norm(coeffs: CoeffGrid) -> float:
    """Weighted L2 norm, exact through the coefficients (Parseval); a sum
    of squares out of the float range is rescaled as :func:`_root_sum` says."""
    return _root_sum(lambda: coeffs._dense, lambda a: _exact_sum(a * a))


def lq_omega_norm(coeffs: CoeffGrid, q: float, quad_n: int | None = None) -> float:
    """Weighted Lq norm, q in [1, inf), by tensor Gauss-Chebyshev quadrature.

    For even integer q, |f|^q is a polynomial of degree q * (max degree) in
    each variable, so the default q * (max degree) / 2 + 1 nodes per
    dimension are exact; the default is capped at 4 * (max degree) + 1, the
    exact size for q = 8.  Every other q takes the cap: the integrand is not
    a polynomial and the result is an approximation.  For q = 2**m, |f|^q
    is taken by m squarings.  A sum that overflows or underflows is taken
    again over a power-of-two scaling of |f|, as :func:`_root_sum` says.
    """
    if q == math.inf:
        raise ValueError("Lq norm requires a finite q; use sup_norm for q = inf")
    _interval(q, "q", 1, math.inf)
    max_deg = max(coeffs.max_k, coeffs.max_j)
    if quad_n is None:
        quad_n = _lq_nodes(q, max_deg)
    quad_n = _size(quad_n, "quad_n", max_deg + 1)
    return _reduce(coeffs._dense, ("quadrature", quad_n), q)


def _lq_nodes(q: float, max_deg: int) -> int:
    """Default quadrature size of :func:`lq_omega_norm`."""
    cap = 4 * max_deg + 1
    if q % 2 == 0:
        return min(int(q) * max_deg // 2 + 1, cap)
    return cap


def _power(values: np.ndarray, q: float) -> np.ndarray:
    """``|values| ** q`` in place; q = 2**m >= 2 takes m squarings, which round
    alike on every CPU, where ``**`` may not, and take the sign off exactly."""
    m = math.frexp(q)[1] - 1
    if q != 2.0 ** m:
        return np.power(np.abs(values, out=values), q, out=values)
    for _ in range(m):
        np.square(values, out=values)
    return values if m else np.abs(values, out=values)  # q = 1


def _reduce(dense, grid, q: float | None = None, less=0.0, shape=None) -> float:
    """Max |f| for q None, else :func:`lq_omega_norm`'s Lq sum and root, of
    f = bt @ dense @ btau.T - less on :func:`_grid`'s N x N ``grid`` (weight
    pi / N), |f| by _power, where bt and btau lead a ``shape`` table's bases."""
    bt, btau = (_basis(u - 1, *grid)[:, :d] for u, d in zip(shape or dense.shape, dense.shape))

    def values() -> np.ndarray:
        f = bt @ dense @ btau.T
        return np.subtract(f, less, out=f)  # x - 0.0 is x

    if q is None:
        return float(_power(values(), 1).max())  # |f| ** 1 is |f|
    w = math.pi / bt.shape[0]
    return _root_sum(values, lambda f: w * w * np.sum(_power(f, q)),
                     lambda total: total ** (1.0 / q))


def cosine_grid(points_per_dim: int) -> np.ndarray:
    """Endpoint-including evaluation nodes cos(i*pi/(M-1)), i = 0..M-1."""
    points_per_dim = _size(points_per_dim, "points_per_dim", 2)
    return np.cos(np.arange(points_per_dim) * math.pi / (points_per_dim - 1))


def sup_norm(coeffs: CoeffGrid, points_per_dim: int = 257) -> float:
    """Uniform-norm surrogate: max |value| on an M x M cosine tensor grid.

    The grid includes the corners (+-1, +-1), where polynomial sums peak;
    the grid maximum underestimates the true sup by an amount controlled by
    M relative to the polynomial degrees.
    """
    points_per_dim = _size(points_per_dim, "points_per_dim", 2)
    return _reduce(coeffs._dense, ("evaluation", points_per_dim))


@functools.lru_cache(maxsize=8)
def _basis(degree: int, nodes: str, size: int) -> np.ndarray:
    """Read-only basis matrix for degrees 0..degree at ``size`` nodes of the
    "evaluation" (cosine) grid or the "quadrature" (Gauss-Chebyshev) rule.

    A sweep evaluates every trial's metric on the same nodes and degrees,
    so the matrices are built once per process.  ``bt @ dense @ btau.T`` is
    the table :func:`~chebdiff2d.transform.grid_synthesize` gives.
    """
    _check_table_size(size - 1, size - 1, f"{nodes} grid")
    points = (cosine_grid(size) if nodes == "evaluation"
              else gauss_chebyshev_nodes(size))
    matrix = basis_matrix(degree, points)
    matrix.setflags(write=False)
    return matrix


def lq_coefficient_bound(coeffs: CoeffGrid, q: float) -> float:
    """Coefficient-weighted upper-bound functional for the Lq norm.

    Returns (sum (max(1,k)*max(1,j))**(1 - 2/q) * a^2)^(1/2); at q = 2 this
    is exactly the L2 norm.  The Lq norm is bounded by a constant multiple
    of this quantity for 2 <= q < infinity.
    """
    _interval(q, "q", 2, math.inf)
    uk = np.maximum(1, np.arange(coeffs.max_k + 1))
    uj = np.maximum(1, np.arange(coeffs.max_j + 1))
    weights = np.outer(uk, uj) ** (1.0 - 2.0 / q)
    return _root_sum(lambda: coeffs._dense, lambda a: _exact_sum(weights * a * a))


def nikolskii_explicit_bound(max_k: int, max_j: int) -> float:
    """Explicit constant in the sup vs weighted-L2 comparison.

    For any polynomial of coordinate degrees (max_k, max_j) the sup norm is
    at most (2/pi) * sqrt((max_k + 1) * (max_j + 1)) times its weighted L2
    norm.  A degree that is not an integer >= 0 is refused.
    """
    rows, cols = _size(max_k, "max_k") + 1, _size(max_j, "max_j") + 1
    return (2.0 / math.pi) * math.sqrt(rows * cols)


def _grid(metric: MetricSpec, shape) -> tuple[str, int] | None:
    """Nodes and points per dimension of :func:`_reduce`'s grid for a metric on
    a ``shape`` table; None for ``l2w``, which is exact through the coefficients.
    An Lq sum takes at least the nodes :func:`_lq_nodes` gives its degree."""
    nodes, size = _METRICS[metric.kind].nodes, metric.eval_grid
    if metric.q is not None:
        size = max(size, _lq_nodes(metric.q, max(shape) - 1))
    return None if nodes is None else (nodes, size)


def evaluate_metric(coeffs: CoeffGrid, metric: MetricSpec) -> float:
    """Evaluate one of the three output metrics on a coefficient grid."""
    grid = _grid(metric, coeffs._dense.shape)
    return l2_omega_norm(coeffs) if grid is None else _reduce(coeffs._dense, grid, metric.q)


def _error_metrics(reference: CoeffGrid, metrics):
    """``approx -> [evaluate_metric(approx - reference, m) for m in metrics]``
    at the cost of approx's table, outside which the error is -reference.

    ``l2w`` keeps its bits: the exact squared sum of the reference, less its
    part on the tables' overlap, plus the squared error on approx's table,
    rounded once; a total :func:`_root_sum` would take again is left to
    :func:`l2_omega_norm`.  ``sup`` and ``lqw`` reduce values(approx) -
    values(reference) on :func:`_grid`'s grid for the error's table; the
    reference's values are cached per grid.
    """
    ref = reference._dense
    ref_units = functools.cache(lambda: _exact_units(ref * ref))  # for the one l2w

    @functools.lru_cache(maxsize=len(metrics))  # a level's grids, one per metric
    def ref_values(nodes: str, size: int) -> np.ndarray:
        bt, btau = (_basis(d - 1, nodes, size) for d in ref.shape)
        return bt @ ref @ btau.T

    def evaluate(approx: CoeffGrid) -> list[float]:
        dense, out = approx._dense, []
        shape = tuple(map(max, dense.shape, ref.shape))  # the error's table
        for metric in metrics:
            grid = _grid(metric, shape)
            if grid is not None:
                out.append(_reduce(dense, grid, metric.q, ref_values(*grid), shape))
                continue
            overlap = tuple(slice(min(d, e)) for d, e in zip(dense.shape, ref.shape))
            inside, error = ref[overlap], dense.copy()
            with np.errstate(over="ignore"):
                error[overlap] -= inside
                parts = (ref_units(), _exact_units(inside * inside),
                         _exact_units(error * error))
            # l2_omega_norm takes a non-finite square (NaN here) and what _root_sum retakes
            total = math.nan if None in parts else _from_units(parts[0] - parts[1] + parts[2])
            out.append(math.sqrt(total) if _TINY_SUM <= total < math.inf
                       else l2_omega_norm(approx - reference))
        return out

    return evaluate
