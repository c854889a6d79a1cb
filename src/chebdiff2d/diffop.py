"""Coefficient-space differentiation in the first variable.

For the orthonormal system the derivative of a single basis polynomial is

    d/dt T_k(t) = 2k * sum_{l < k, k + l odd} zeta_l * T_l(t),

with zeta_0 = 1/sqrt(2) and zeta_l = 1 for l >= 1.  The degree-0 weight is
sometimes quoted as sqrt(2); renormalizing the classical identity
d/dt Tbar_k = 2k * sum (1/c_l) Tbar_l (c_0 = 2, c_l = 1) to the orthonormal
scaling gives 1/sqrt(2), and the recurrence oracle in the validation suite
confirms that value to machine precision (see README).

The sum is the backward recurrence b[l-1] = b[l+1] + 2l * a[l] over the
rows (the recurrence of numpy.polynomial.chebyshev.chebder), after which
row 0 is scaled by zeta_0.  It runs without a Python loop over the rows:
one reverse cumulative sum over the odd rows and one over the even rows,
each starting from a zero row, add the terms in the recurrence's order, so
the result is bitwise equal to it, signed zeros included.  The tests keep
the dense table d[l, k] as the reference it is checked against.  Higher
orders apply the first-order step repeatedly.  The truncation method
restricts the input coefficients to a hyperbolic cross before
differentiating; everything outside the cross is ignored.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import _size
from .hypercross import build_cross
from .transform import CoeffGrid

#: Weight of the degree-0 output term in the derivative expansion.
ZETA_0 = 1.0 / math.sqrt(2.0)


def differentiate_coeffs(coeffs: CoeffGrid, r: int, *, zeta0: float = ZETA_0) -> CoeffGrid:
    """r-fold derivative in the first variable, acting on coefficients.

    Returns the grid b with synthesize(b) = d^r/dt^r synthesize(coeffs),
    exact (up to roundoff) for any polynomial input.  The output degree
    bound in k drops by r (floored at zero); the second variable is
    untouched.  Zero rows and columns at the high end skip the recurrence
    and come back as the +0.0 it gives.  A step before the last that leaves
    a non-finite entry in a row r - step or above (later steps drop the
    rows below) is refused, naming r and the step.
    ``zeta0`` is exposed for diagnostics (the validation suite perturbs it
    to demonstrate oracle sensitivity); production code uses the default.
    """
    dense, r = coeffs._dense, _size(r, "derivative order r", 1)
    out_shape = (max(dense.shape[0] - r, 1), dense.shape[1])
    rows, cols = (int(np.flatnonzero(used).max(initial=-1)) + 1  # -0.0 counts as zero
                  for used in (dense.any(axis=1), dense.any(axis=0)))
    if r >= rows:  # every degree is below r: the derivative is zero
        return CoeffGrid._wrap(np.zeros(out_shape))
    values = dense[:rows, :cols]  # only read: each step writes a fresh table
    weights = 2.0 * np.arange(rows)[:, None]
    for step in range(1, r + 1):
        # terms[l] = 2l * a[l], then at least two zero rows.  Over the row
        # pairs (2i, 2i + 1) from the top, one in-place cumsum runs down the
        # even and the odd rows apart, each from a zero row, and leaves
        # terms[l] = b[l-1] = b[l+1] + 2l * a[l]; the degree drops by one
        terms = np.zeros((2 * ((rows + 1) // 2 + 1), cols))
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            np.multiply(weights[:rows], values, out=terms[:rows])
            pairs = terms.reshape(-1, 2, cols)[::-1]
            np.cumsum(pairs, axis=0, out=pairs)
        values = terms[1:rows]
        values[0] *= zeta0
        rows -= 1
        if step < r and not np.isfinite(values[r - step:]).all():
            raise ValueError(f"derivative of order r = {r}: step {step} "
                             f"leaves a non-finite coefficient")
    if values.shape != out_shape:
        values = np.pad(values, [(0, a - b) for a, b in zip(out_shape, values.shape)])
    return CoeffGrid._wrap(values)


def truncated_derivative(coeffs_delta: CoeffGrid, n: int, gamma: float, r: int) -> CoeffGrid:
    """Apply the cross-truncated differentiation method.

    Restricts the (possibly perturbed) coefficients to the hyperbolic cross
    with parameters (n, gamma, r) and differentiates r times; entries
    outside the cross have no effect.  Raises ValueError for n < r or
    gamma < 1.
    """
    cross = build_cross(n, gamma, r)
    return differentiate_coeffs(coeffs_delta.restrict_to(cross), r)
