"""Orthonormal Chebyshev basis on [-1, 1] and the Gauss-Chebyshev nodes.

The one-dimensional system is

    T_0(t) = 1/sqrt(pi),    T_k(t) = sqrt(2/pi) * cos(k * arccos(t)),  k >= 1,

orthonormal with respect to the weight (1 - t^2)^(-1/2).  Bivariate basis
functions are the tensor products T_k(t) * T_j(tau) under the product weight
omega(t, tau) = (1 - t^2)^(-1/2) * (1 - tau^2)^(-1/2).

Evaluation goes through the cosine form directly rather than the three-term
recurrence; it is stable on the whole interval, though near t = +-1 the
arccos conditioning limits attainable accuracy to roughly k * eps.
"""

from __future__ import annotations

import math

import numpy as np

#: Points may overshoot [-1, 1] by at most this much (floating-point grid
#: endpoints land here); such points are clamped.  Anything farther out is
#: a domain error.
CLAMP_TOL = 1e-14

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def peak_value(k: int) -> float:
    """Maximum of |T_k| over [-1, 1], attained at t = 1."""
    return _INV_SQRT_PI if k == 0 else _SQRT_2_OVER_PI


def _clamped(t: float) -> float:
    if -1.0 <= t <= 1.0:
        return t
    if abs(t) <= 1.0 + CLAMP_TOL:
        return 1.0 if t > 0 else -1.0
    raise ValueError(f"point {t!r} lies outside [-1, 1]")


def eval_orthonormal(k: int, t: float) -> float:
    """Evaluate the orthonormal Chebyshev polynomial of degree k at t.

    Raises ValueError for k < 0 or |t| > 1 beyond the clamp tolerance.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return peak_value(k) * math.cos(k * math.acos(_clamped(t)))


def basis_matrix(max_degree: int, points) -> np.ndarray:
    """Matrix of basis values with entry (i, k) = T_k(points[i]).

    Covers degrees 0..max_degree.  Points may overshoot the interval by the
    clamp tolerance and are clamped like in :func:`eval_orthonormal`.
    """
    if max_degree < 0:
        raise ValueError("degree must be nonnegative")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1:
        raise ValueError("points must be one-dimensional")
    outside = ~(np.abs(pts) <= 1.0 + CLAMP_TOL)  # NaN is outside too
    if np.any(outside):
        raise ValueError(f"point {float(pts[outside][0])!r} lies outside [-1, 1]")
    theta = np.arccos(np.clip(pts, -1.0, 1.0))
    values = np.cos(np.outer(theta, np.arange(max_degree + 1)))
    values *= _SQRT_2_OVER_PI
    values[:, 0] = _INV_SQRT_PI
    return values


def gauss_chebyshev_nodes(n_nodes: int) -> np.ndarray:
    """Read-only nodes cos((2i-1)pi/(2N)), i = 1..N, of the N-node rule.

    Every weight is pi/N; the rule integrates (1 - t^2)^(-1/2) * P(t)
    exactly for polynomials P of degree up to 2N - 1.
    """
    if n_nodes < 1:
        raise ValueError("rule needs at least one node")
    i = np.arange(1, n_nodes + 1)
    nodes = np.cos((2 * i - 1) * math.pi / (2 * n_nodes))
    nodes.setflags(write=False)
    return nodes
