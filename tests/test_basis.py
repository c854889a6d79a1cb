import math

import numpy as np
import pytest

from chebdiff2d import (basis_matrix, eval_orthonormal, gauss_chebyshev_nodes,
                        peak_value)
from helpers import exact_weighted_monomial_integrals


def test_degree_zero_is_constant():
    assert eval_orthonormal(0, 0.3) == pytest.approx(1 / math.sqrt(math.pi), abs=1e-15)
    assert eval_orthonormal(0, -1.0) == eval_orthonormal(0, 0.99)


def test_peak_at_right_endpoint():
    assert eval_orthonormal(5, 1.0) == pytest.approx(math.sqrt(2 / math.pi), abs=1e-15)


def test_exact_angle_value():
    # arccos(0.5) = pi/3, cos(3 * pi/3) = -1
    assert eval_orthonormal(3, 0.5) == pytest.approx(-math.sqrt(2 / math.pi), abs=1e-14)


def test_clamping_and_domain_error():
    assert eval_orthonormal(4, 1.0 + 5e-15) == eval_orthonormal(4, 1.0)
    with pytest.raises(ValueError):
        eval_orthonormal(4, 1.0 + 1e-12)
    with pytest.raises(ValueError):
        eval_orthonormal(-1, 0.0)


def test_tensor_values():
    def tensor(k, j, t, tau):
        return eval_orthonormal(k, t) * eval_orthonormal(j, tau)

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
    for _ in range(10_000):
        k = int(rng.integers(0, 80))
        t = float(rng.uniform(-1, 1))
        assert abs(eval_orthonormal(k, t)) <= peak_value(k) + 1e-14


def test_basis_matrix_matches_pointwise(rng):
    pts = rng.uniform(-1, 1, size=40)
    b = basis_matrix(10, pts)
    for i, t in enumerate(pts):
        for k in range(11):
            assert b[i, k] == pytest.approx(eval_orthonormal(k, t), abs=1e-14)
