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
import reprlib

import numpy as np

#: Points may overshoot [-1, 1] by at most this much (floating-point grid
#: endpoints land here); such points are clamped.  Anything farther out is
#: a domain error.
CLAMP_TOL = 1e-14

#: Largest table, grid or basis matrix sized from outside input: 2**26
#: entries, that is 512 MiB of float64.
MAX_TABLE_ENTRIES = 2 ** 26

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _size(value, name: str, low: int = 0) -> int:
    """``value`` as an int: a size, order or level is an integral number
    >= ``low``, and an integral float such as 8.0 is taken as the integer."""
    if not low <= value < math.inf or value % 1:
        raise ValueError(f"{name} must be an integer >= {low}")
    return int(value)


def _interval(value, name: str, low: float, high: float, ends: str = "[)") -> None:
    """Refuse ``value``, NaN included, outside the interval from ``low`` to
    ``high``; of the brackets in ``ends``, "[" and "]" close an end."""
    if not ((low <= value if ends[0] == "[" else low < value)
            and (value <= high if ends[1] == "]" else value < high)):
        raise ValueError(f"{name} must lie in {ends[0]}{low:g}, {high:g}{ends[1]}")


def _shown(value) -> str:
    """A refused value for a message, in a few dozen characters: a string
    shortened by reprlib to about 30 characters and an integer to 40, a
    float as Python writes it, any other value by the name of its type."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        value = int(value)
    elif not isinstance(value, str):
        return type(value).__name__
    return reprlib.repr(value)


def _one_of(what: str, options):
    """Converter for a string among ``options``; ``what`` names it in the
    message, as in "unknown noise mode 'x'"."""
    def parse(value) -> str:
        if value not in options:
            raise ValueError(f"unknown {what} {_shown(value)} "
                             f"(expected {', '.join(options)})")
        return value
    return parse


def _check_table_size(max_k: int, max_j: int, what="coefficient table") -> tuple[int, int]:
    """Shape (max_k + 1, max_j + 1) of a table, refused above MAX_TABLE_ENTRIES."""
    rows, cols = _size(max_k, "max_k") + 1, _size(max_j, "max_j") + 1
    if rows * cols > MAX_TABLE_ENTRIES:
        raise ValueError(f"a {_shown(rows)} x {_shown(cols)} {what} "
                         f"exceeds the limit MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES}")
    return rows, cols


def basis_matrix(max_degree: int, points) -> np.ndarray:
    """Matrix of basis values with entry (i, k) = T_k(points[i]).

    Covers degrees 0..max_degree, in at most MAX_TABLE_ENTRIES entries.
    Points may overshoot the interval by the clamp tolerance and are clamped.
    """
    max_degree = _size(max_degree, "max_degree")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1:
        raise ValueError("points must be one-dimensional")
    _check_table_size(max(pts.size, 1) - 1, max_degree, "basis matrix")  # no points: one row
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
    n_nodes = _size(n_nodes, "n_nodes", 1)
    i = np.arange(1, n_nodes + 1)
    nodes = np.cos((2 * i - 1) * math.pi / (2 * n_nodes))
    nodes.setflags(write=False)
    return nodes
