import math

import mpmath
import numpy as np
import pytest

from chebdiff2d import basis_matrix, cosine_grid, gauss_chebyshev_nodes
from helpers import exact_weighted_monomial_integrals, orthonormal_oracle


def value(k, t):
    """T_k(t) through basis_matrix."""
    return float(basis_matrix(k, [t])[0, k])


def test_degree_zero_is_constant():
    column = basis_matrix(0, [0.3, -1.0, 0.99])[:, 0]
    assert column[0] == pytest.approx(1 / math.sqrt(math.pi), abs=1e-15)
    assert column[1] == column[2]


def test_peak_at_right_endpoint():
    assert value(5, 1.0) == pytest.approx(math.sqrt(2 / math.pi), abs=1e-15)


def test_exact_angle_value():
    # arccos(0.5) = pi/3, cos(3 * pi/3) = -1
    assert value(3, 0.5) == pytest.approx(-math.sqrt(2 / math.pi), abs=1e-14)


def test_clamping_and_domain_error():
    assert np.array_equal(basis_matrix(4, [1.0 + 5e-15]), basis_matrix(4, [1.0]))
    with pytest.raises(ValueError):
        basis_matrix(4, [1.0 + 1e-12])
    with pytest.raises(ValueError):
        basis_matrix(-1, [0.0])
    with pytest.raises(ValueError, match="^points must be one-dimensional$"):
        basis_matrix(3, [[0.1]])


def test_tensor_values():
    def tensor(k, j, t, tau):
        return value(k, t) * value(j, tau)

    assert tensor(0, 0, 0.2, -0.7) == pytest.approx(1 / math.pi, abs=1e-15)
    assert tensor(1, 1, 1.0, 1.0) == pytest.approx(2 / math.pi, abs=1e-15)
    # cos(2 * arccos 0) = cos(pi) = -1
    expected = -math.sqrt(2 / math.pi) / math.sqrt(math.pi)
    assert tensor(2, 0, 0.0, 0.7) == pytest.approx(expected, abs=1e-15)


def test_single_node_rule():
    nodes = gauss_chebyshev_nodes(1)
    assert nodes.shape == (1,)
    assert abs(nodes[0]) < 1e-15


def test_two_node_rule():
    nodes = gauss_chebyshev_nodes(2)
    assert nodes == pytest.approx([math.sqrt(2) / 2, -math.sqrt(2) / 2])
    # integrate t^2 against the weight, every weight pi/2: exact value pi/2
    assert np.sum(math.pi / 2 * nodes**2) == pytest.approx(math.pi / 2)


@pytest.mark.parametrize("n_nodes", [1, 2, 5, 12])
def test_rule_invariants(n_nodes):
    nodes = gauss_chebyshev_nodes(n_nodes)
    assert nodes.shape == (n_nodes,)
    assert np.all(np.diff(nodes) < 0)
    assert np.all(np.abs(nodes) < 1)
    assert not nodes.flags.writeable


def test_rule_rejects_empty():
    with pytest.raises(ValueError):
        gauss_chebyshev_nodes(0)


@pytest.mark.parametrize("n_nodes", [3, 8, 17])
def test_quadrature_matches_monomial_integrals(rng, n_nodes):
    # exact for polynomial degree <= 2N - 1; oracle is the closed-form
    # weighted monomial integral recurrence
    nodes = gauss_chebyshev_nodes(n_nodes)
    exact = exact_weighted_monomial_integrals(2 * n_nodes - 1)
    for _ in range(25):
        coeffs = rng.uniform(-1, 1, size=2 * n_nodes)
        quad = float(np.sum(math.pi / n_nodes
                            * np.polynomial.polynomial.polyval(nodes, coeffs)))
        ref = math.fsum(c * v for c, v in zip(coeffs, exact))
        assert quad == pytest.approx(ref, rel=1e-11, abs=1e-13)


def test_discrete_orthonormality():
    max_deg = 24
    b = basis_matrix(max_deg, gauss_chebyshev_nodes(max_deg + 1))
    gram = b.T @ (math.pi / (max_deg + 1) * b)
    assert np.abs(gram - np.eye(max_deg + 1)).max() <= 1e-12


def test_peak_bound_fuzz(rng):
    ks, ts = rng.integers(0, 80, 10_000), rng.uniform(-1, 1, 10_000)
    values = basis_matrix(79, ts)[np.arange(10_000), ks]
    peaks = basis_matrix(79, [1.0])[0, ks]
    assert np.all(np.abs(values) <= peaks + 1e-14)


def test_basis_matrix_matches_pointwise(rng):
    pts = rng.uniform(-1, 1, size=40)
    assert np.abs(basis_matrix(10, pts) - orthonormal_oracle(10, pts)).max() <= 1e-14


# The node sets at which sup_norm (257 cosine points) and lq_omega_norm
# (257 Gauss nodes for q = 2, 513 for q = 4) evaluate degree 256, with
# the worst deviation from mpmath measured with numpy 2.4 on an AVX-512
# machine; each test allows twice that.
@pytest.mark.parametrize("nodes, size, measured", [
    (gauss_chebyshev_nodes, 257, 7.9e-14),
    (cosine_grid, 257, 8.4e-14),
], ids=["gauss-257", "cosine-257"])
def test_basis_matrix_against_mpmath_at_float_nodes(nodes, size, measured):
    # the three-term recurrence in 30 digits at the float64 nodes
    # themselves: the error is basis_matrix's own
    points = nodes(size)
    with mpmath.workdps(30):
        s0, s1 = 1 / mpmath.sqrt(mpmath.pi), mpmath.sqrt(2 / mpmath.pi)
        rows = []
        for x in map(mpmath.mpf, points.tolist()):
            row = [mpmath.mpf(1), x]
            for _ in range(255):
                row.append(2 * x * row[-1] - row[-2])
            rows.append([float(s0)] + [float(s1 * v) for v in row[1:]])
    got = basis_matrix(256, points)
    assert np.abs(got - np.array(rows)).max() <= 2 * measured


@pytest.mark.parametrize("nodes, size, angles, measured", [
    # node i is cos(a_i * pi / d) for the integers a_i and d given
    (gauss_chebyshev_nodes, 257, lambda n: (2 * np.arange(n) + 1, 2 * n),
     1.1e-12),
    (gauss_chebyshev_nodes, 513, lambda n: (2 * np.arange(n) + 1, 2 * n),
     1.9e-12),
    (cosine_grid, 257, lambda n: (np.arange(n), n - 1), 4.1e-13),
], ids=["gauss-257", "gauss-513", "cosine-257"])
def test_basis_matrix_against_mpmath_at_exact_nodes(nodes, size, angles,
                                                    measured):
    # T_k at the exact node i is cos(k * a_i * pi / d), one of 2d values
    # taken in mpmath.  The error adds the rounding of the float64 nodes,
    # amplified by |T_k'| up to k**2 near t = +-1
    a, d = angles(size)
    with mpmath.workdps(30):
        s0, s1 = 1 / mpmath.sqrt(mpmath.pi), mpmath.sqrt(2 / mpmath.pi)
        table = np.array([float(s1 * mpmath.cos(m * mpmath.pi / d))
                          for m in range(2 * d)])
    exact = table[np.outer(a, np.arange(257)) % (2 * d)]
    exact[:, 0] = float(s0)
    got = basis_matrix(256, nodes(size))
    assert np.abs(got - exact).max() <= 2 * measured
