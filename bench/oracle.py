"""Independent reference computations for the benchmark's output checks.

Nothing here imports chebdiff2d.  Coefficient tables are plain 2-D arrays
against the orthonormal tensor Chebyshev basis (entry [k, j]); the oracle
converts them to the classical basis of ``numpy.polynomial.chebyshev``
(orthonormal T_0 = T_0 / sqrt(pi), T_k = sqrt(2/pi) T_k) and does all
calculus and evaluation there.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev as cheb

_S0 = 1.0 / math.sqrt(math.pi)
_SK = math.sqrt(2.0 / math.pi)


def _scale(size: int) -> np.ndarray:
    s = np.full(size, _SK)
    s[0] = _S0
    return s


def to_classical(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a * np.outer(_scale(a.shape[0]), _scale(a.shape[1]))


def to_orthonormal(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    return c / np.outer(_scale(c.shape[0]), _scale(c.shape[1]))


def cross_mask(shape, n: int, gamma: float, r: int) -> np.ndarray:
    """Membership in {(k, j): r <= k <= n, j = 0 or k * j**gamma <= n}.

    Exact ties at the boundary are admitted; the relative slack 1e-12 only
    absorbs the rounding of ``j**gamma``.
    """
    k = np.arange(shape[0], dtype=float)[:, None]
    j = np.arange(shape[1], dtype=float)[None, :]
    in_k = (k >= r) & (k <= n)
    return in_k & ((j == 0) | (k * j**gamma <= n * (1.0 + 1e-12)))


def cross_size(n: int, gamma: float, r: int) -> int:
    """Cardinality of the cross, counted through the mask."""
    return int(np.count_nonzero(cross_mask((n + 1, n + 1), n, gamma, r)))


def derivative(a: np.ndarray, r: int) -> np.ndarray:
    """r-th partial derivative in the first variable, orthonormal in and out."""
    return to_orthonormal(cheb.chebder(to_classical(a), m=r, axis=0))


def truncated_derivative(a: np.ndarray, n: int, gamma: float, r: int) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return derivative(np.where(cross_mask(a.shape, n, gamma, r), a, 0.0), r)


def values(a: np.ndarray, xs, ys) -> np.ndarray:
    """Entry [i, m] is the expansion's value at (xs[i], ys[m])."""
    return cheb.chebgrid2d(np.asarray(xs), np.asarray(ys), to_classical(a))


def cosine_nodes(m: int) -> np.ndarray:
    return np.cos(np.pi * np.arange(m) / (m - 1))


def l2w(a: np.ndarray) -> float:
    """Weighted L2 norm from the classical coefficients and ||T_k||^2."""
    c = to_classical(a)
    w = lambda size: np.where(np.arange(size) == 0, math.pi, math.pi / 2)
    return math.sqrt(float(np.sum(c * c * np.outer(w(c.shape[0]), w(c.shape[1])))))


def sup(a: np.ndarray, m: int) -> float:
    """Max |value| over the endpoint-including m x m cosine grid."""
    nodes = cosine_nodes(m)
    return float(np.abs(values(a, nodes, nodes)).max())


def lqw(a: np.ndarray, q: float) -> float:
    """Weighted Lq norm by Gauss-Chebyshev quadrature, exact for even q <= 4.

    N nodes integrate degree 2N - 1 exactly; |f|^4 has degree 4 * deg.
    """
    deg = max(a.shape) - 1
    nodes, weights = cheb.chebgauss(2 * deg + 1)
    vals = values(a, nodes, nodes)
    return float(np.sum(np.outer(weights, weights) * np.abs(vals) ** q) ** (1.0 / q))


def metric(a: np.ndarray, kind: str, q: float | None = None, grid: int = 257) -> float:
    if kind == "l2w":
        return l2w(a)
    if kind == "sup":
        return sup(a, grid)
    return lqw(a, q)


def padded(a: np.ndarray, shape) -> np.ndarray:
    out = np.zeros(shape)
    out[: a.shape[0], : a.shape[1]] = a
    return out


def subtract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b after zero-padding both to the enclosing shape."""
    shape = (max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1]))
    return padded(a, shape) - padded(b, shape)


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| / max |want| after zero-padding; tables whose
    declared bounds differ but whose nonzero entries agree compare equal."""
    scale = float(np.abs(want).max())
    return float(np.abs(subtract(got, want)).max()) / (scale if scale else 1.0)


def level(delta: float, mu1: float, s: float, p: float, r: int,
          constant: float = 1.0) -> int:
    """A-priori level max(r, round(C * delta^(-1/(mu1 - 1/p + 1/s))))."""
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    return max(r, round(constant * delta ** (-1.0 / (mu1 - inv_p + 1.0 / s))))


def exponent(kind: str, mu1: float, s: float, p: float, r: int,
             q: float | None = None) -> float:
    """Predicted accuracy exponent theta for each output metric."""
    shift = {"l2w": 1.0 / s - 0.5, "sup": 1.0 / s - 1.0}.get(kind)
    if shift is None:
        shift = 1.0 / s + 1.0 / q - 1.0
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    return (mu1 - 2 * r + shift) / (mu1 - inv_p + 1.0 / s)


def loglog_slope(deltas, errors) -> float:
    return float(np.polyfit(np.log(deltas), np.log(errors), 1)[0])
