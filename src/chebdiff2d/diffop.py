"""Coefficient-space differentiation in the first variable.

For the orthonormal system the derivative of a single basis polynomial is

    d/dt T_k(t) = 2k * sum_{l < k, k + l odd} zeta_l * T_l(t),

with zeta_0 = 1/sqrt(2) and zeta_l = 1 for l >= 1.  The degree-0 weight is
sometimes quoted as sqrt(2); renormalizing the classical identity
d/dt Tbar_k = 2k * sum (1/c_l) Tbar_l (c_0 = 2, c_l = 1) to the orthonormal
scaling gives 1/sqrt(2), and the finite-difference oracle in the validation
suite confirms that value to machine precision (see README).

The sum is applied through the backward recurrence
b[l-1] = b[l+1] + 2l * a[l] over the rows (the recurrence of
numpy.polynomial.chebyshev.chebder), after which row 0 is scaled by zeta_0;
the dense table of :func:`build_derivative_operator` is kept as the
reference it is tested against.  Higher orders apply the first-order step
repeatedly.  The truncation method restricts the input coefficients to a
hyperbolic cross before differentiating; everything outside the cross is
ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypercross import build_cross
from .transform import CoeffGrid

#: Weight of the degree-0 output term in the derivative expansion.
ZETA_0 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class DerivativeOperator1D:
    """Dense table d[l, k] sending input degree k to output degree l.

    d[l, k] is zero unless l < k and k + l is odd; otherwise it equals
    2k for l >= 1 and 2k * zeta_0 for l = 0.
    """

    max_k: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


def build_derivative_operator(max_k: int, zeta0: float = ZETA_0) -> DerivativeOperator1D:
    """Dense one-variable derivative table up to degree max_k.

    The reference that :func:`differentiate_coeffs` is tested against;
    ``zeta0`` has the same meaning as there.
    """
    if max_k < 0:
        raise ValueError("degree bound must be nonnegative")
    d = np.zeros((max_k + 1, max_k + 1))
    for k in range(1, max_k + 1):
        start = 1 if k % 2 == 0 else 0
        for l in range(start, k, 2):
            d[l, k] = 2.0 * k * (zeta0 if l == 0 else 1.0)
    return DerivativeOperator1D(max_k=max_k, matrix=d)


def differentiate_coeffs(coeffs: CoeffGrid, r: int, *, zeta0: float = ZETA_0) -> CoeffGrid:
    """r-fold derivative in the first variable, acting on coefficients.

    Returns the grid b with synthesize(b) = d^r/dt^r synthesize(coeffs),
    exact (up to roundoff) for any polynomial input.  The output degree
    bound in k drops by r (floored at zero); the second variable is
    untouched.  ``zeta0`` is exposed for diagnostics (the validation suite
    perturbs it to demonstrate oracle sensitivity); production code uses
    the default.
    """
    if int(r) != r or r < 1:
        raise ValueError("derivative order r must be an integer >= 1")
    values = coeffs.to_dense()
    rows = values.shape[0]
    for _ in range(int(r)):
        out = np.zeros((rows + 1, values.shape[1]))  # out[rows] stays zero
        for l in range(rows - 1, 0, -1):
            out[l - 1] = out[l + 1] + (2.0 * l) * values[l]
        out[0] *= zeta0
        values = out[:rows]
    out_k = max(0, coeffs.max_k - int(r))
    return CoeffGrid.from_dense(values[: out_k + 1, :])


def truncated_derivative(coeffs_delta: CoeffGrid, n: int, gamma: float, r: int) -> CoeffGrid:
    """Apply the cross-truncated differentiation method.

    Restricts the (possibly perturbed) coefficients to the hyperbolic cross
    with parameters (n, gamma, r) and differentiates r times; entries
    outside the cross have no effect.  Raises ValueError for n < r or
    gamma < 1.
    """
    cross = build_cross(n, gamma, r)
    return differentiate_coeffs(coeffs_delta.restrict_to(cross), r)
