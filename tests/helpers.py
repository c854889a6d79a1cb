"""Grid and integral helpers shared by the test modules."""

import math

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from chebdiff2d import CoeffGrid


def random_grid(rng, max_k, max_j, fill=1.0, scale=1.0):
    """Random coefficient grid on the full (max_k x max_j) box."""
    values = scale * rng.uniform(-1.0, 1.0, size=(max_k + 1, max_j + 1))
    if fill < 1.0:
        values[rng.random(values.shape) > fill] = 0.0
    return CoeffGrid.from_dense(values)


def exact_weighted_monomial_integrals(max_degree):
    """Exact values of int_{-1}^{1} (1-t^2)^(-1/2) t^m dt for m = 0..max_degree."""
    out = [math.pi]
    if max_degree >= 1:
        out.append(0.0)
    for m in range(2, max_degree + 1):
        out.append(out[m - 2] * (m - 1) / m if m % 2 == 0 else 0.0)
    return out


def orthonormal_oracle(max_degree, points):
    """Orthonormal basis values T_k(points[i]) for k = 0..max_degree, from
    numpy's three-term-recurrence Chebyshev Vandermonde matrix."""
    scale = np.full(max_degree + 1, math.sqrt(2 / math.pi))
    scale[0] = 1 / math.sqrt(math.pi)
    return chebvander(np.asarray(points, dtype=float), max_degree) * scale
