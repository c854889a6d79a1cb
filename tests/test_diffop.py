import math

import numpy as np
import pytest

from chebdiff2d import (ZETA_0, CoeffGrid, analyze, build_cross,
                        differentiate_coeffs, fd_partial_t, grid_synthesize,
                        sup_norm, synthesize, truncated_derivative)
from helpers import random_grid


def build_derivative_operator(max_k, zeta0=ZETA_0):
    """Dense table d[l, k] sending input degree k to output degree l: zero
    unless l < k and k + l is odd, otherwise 2k, times zeta0 for l = 0."""
    d = np.zeros((max_k + 1, max_k + 1))
    for k in range(1, max_k + 1):
        for l in range(k - 1, -1, -2):
            d[l, k] = 2.0 * k * (zeta0 if l == 0 else 1.0)
    return d


def test_zeta0_value():
    assert ZETA_0 == pytest.approx(1 / math.sqrt(2), abs=1e-16)


def test_operator_table_structure():
    table = build_derivative_operator(6)
    for k in range(7):
        for l in range(7):
            d = table[l, k]
            if l >= k or (k + l) % 2 == 0:
                assert d == 0.0
            elif l == 0:
                assert d == pytest.approx(2 * k * ZETA_0)
            else:
                assert d == 2 * k


def _row_recurrence(values, r, zeta0):
    """The derivative one row at a time, b[l-1] = b[l+1] + 2l * a[l], from
    two zero rows at the top; row 0 is then scaled by zeta0."""
    rows = values.shape[0]
    for _ in range(r):
        out = np.zeros((rows + 1, values.shape[1]))  # out[rows] stays zero
        for l in range(rows - 1, 0, -1):
            out[l - 1] = out[l + 1] + (2.0 * l) * values[l]
        out[0] *= zeta0
        values = out[:rows]
    return values


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("zeta0", [ZETA_0, math.sqrt(2.0)])
def test_recurrence_matches_dense_table(rng, r, zeta0):
    for max_k, max_j in [(0, 3), (1, 1), (7, 2), (12, 12), (17, 9), (4, 30),
                         (40, 41), (16, 4)]:
        values = rng.uniform(-1.0, 1.0, size=(max_k + 1, max_j + 1))
        values[rng.random(values.shape) < 0.2] = -0.0
        grid = CoeffGrid.from_dense(values)
        got = differentiate_coeffs(grid, r, zeta0=zeta0).to_dense()
        # bit for bit the row recurrence, signed zeros included
        rows = _row_recurrence(values, r, zeta0)[: max(0, max_k - r) + 1]
        assert got.shape == rows.shape
        assert got.tobytes() == rows.tobytes()
        table = build_derivative_operator(max_k, zeta0)
        expected = values
        for _ in range(r):
            expected = table @ expected
        expected = expected[: max(0, max_k - r) + 1]
        scale = max(np.abs(expected).max(), 1e-300)
        assert np.abs(got - expected).max() <= 1e-13 * scale


def test_constant_has_zero_derivative():
    grid = CoeffGrid([((0, 0), 5.0)], 3, 3)
    deriv = differentiate_coeffs(grid, 1)
    assert deriv.nnz == 0


def test_linear_term_derivative():
    grid = CoeffGrid([((1, 0), 1.0)])
    deriv = differentiate_coeffs(grid, 1)
    expected = math.sqrt(2) / math.pi  # d/dt of sqrt(2/pi) t / sqrt(pi)
    for t, u in [(0.0, 0.0), (0.5, -0.8), (-1.0, 1.0)]:
        assert synthesize(deriv, t, u) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.4501581581, abs=1e-10)


def test_invalid_order():
    with pytest.raises(ValueError):
        differentiate_coeffs(CoeffGrid([((1, 0), 1.0)]), 0)


def test_degree_bound_drops_by_order(rng):
    grid = random_grid(rng, 9, 4)
    assert differentiate_coeffs(grid, 2).max_k == 7
    assert differentiate_coeffs(grid, 12).max_k == 0
    assert differentiate_coeffs(grid, 2).max_j == 4


def test_polynomial_derivative_is_exact():
    # f = t^3 * tau^2, exact derivative 3 t^2 tau^2
    grid = analyze(lambda t, u: t**3 * u**2, 5, 5)
    deriv = differentiate_coeffs(grid, 1)
    nodes = np.cos(np.arange(17) * math.pi / 16)
    values = grid_synthesize(deriv, nodes, nodes)
    exact = 3 * np.outer(nodes**2, nodes**2)
    assert np.abs(values - exact).max() <= 1e-10


@pytest.mark.parametrize("r", [1, 2, 3])
def test_matches_finite_differences(rng, r):
    # oracle: extended-precision central differencing of the synthesized
    # surface at interior probe points
    for _ in range(8):
        grid = random_grid(rng, 12, 12)
        deriv = differentiate_coeffs(grid, r)
        ts = rng.uniform(-0.9, 0.9, size=20)
        taus = rng.uniform(-1, 1, size=20)
        spectral = np.array([synthesize(deriv, t, u) for t, u in zip(ts, taus)])
        fd = fd_partial_t(grid, r, ts, taus)
        scale = np.abs(spectral).max()
        assert np.abs(spectral - fd).max() / scale <= 1e-5


def test_single_entry_second_derivative_matches_fd(rng):
    grid = CoeffGrid([((3, 2), 1.0)])
    deriv = differentiate_coeffs(grid, 2)
    ts = rng.uniform(-0.9, 0.9, size=20)
    taus = rng.uniform(-1, 1, size=20)
    spectral = np.array([synthesize(deriv, t, u) for t, u in zip(ts, taus)])
    fd = fd_partial_t(grid, 2, ts, taus)
    assert np.abs(spectral - fd).max() / np.abs(spectral).max() <= 1e-6


def test_sparsity_pattern_by_probing():
    max_k = 8
    for k in range(max_k + 1):
        probe = CoeffGrid([((k, 1), 1.0)], max_k, 2)
        deriv = differentiate_coeffs(probe, 1)
        hit = {l for (l, j), _ in deriv.items()}
        expected = {l for l in range(k) if (k + l) % 2 == 1}
        assert hit == expected


def test_linearity(rng):
    a = random_grid(rng, 8, 8)
    b = random_grid(rng, 8, 8)
    alpha, beta = 1.7, -0.3
    lhs = differentiate_coeffs(alpha * a + beta * b, 2)
    rhs = alpha * differentiate_coeffs(a, 2) + beta * differentiate_coeffs(b, 2)
    assert np.abs(lhs.to_dense() - rhs.to_dense()).max() <= 1e-12


class TestTruncatedDerivative:
    def test_support_outside_cross_gives_zero(self):
        grid = CoeffGrid([((5, 4), 1.0), ((9, 9), 2.0)], 9, 9)
        out = truncated_derivative(grid, 4, 1.0, 1)  # cross max index (4, 4)
        assert out.nnz == 0

    def test_polynomial_inside_cross_is_exact(self):
        grid = analyze(lambda t, u: t**3 * u**2, 5, 5)
        # cross with gamma=1, n=12 contains (k, j) up to (3, 2): 3 * 2 = 6 <= 12
        out = truncated_derivative(grid, 12, 1.0, 1)
        nodes = np.cos(np.arange(17) * math.pi / 16)
        values = grid_synthesize(out, nodes, nodes)
        exact = 3 * np.outer(nodes**2, nodes**2)
        assert np.abs(values - exact).max() <= 1e-10

    def test_analytic_error_decays_fast(self):
        grid = analyze(lambda t, u: math.exp(t) * math.cos(u), 40, 40)
        reference = differentiate_coeffs(grid, 1)
        errors = []
        for n in (4, 8, 16):
            approx = truncated_derivative(grid, n, 1.0, 1)
            errors.append(sup_norm(approx - reference, 129))
        assert errors[0] / errors[1] >= 10
        assert errors[1] / errors[2] >= 10

    def test_rejects_level_below_order(self):
        with pytest.raises(ValueError):
            truncated_derivative(CoeffGrid([((1, 0), 1.0)]), 1, 1.0, 2)

    def test_truncation_idempotence(self, rng):
        grid = random_grid(rng, 20, 20)
        cross = build_cross(9, 1.4, 2)
        direct = truncated_derivative(grid, 9, 1.4, 2)
        restricted = truncated_derivative(grid.restrict_to(cross), 9, 1.4, 2)
        assert direct == restricted

    def test_outside_entries_are_ignored(self, rng):
        grid = random_grid(rng, 20, 20)
        cross = build_cross(7, 1.0, 1)
        bumped = grid + CoeffGrid([((15, 15), 123.0)], 20, 20)
        assert truncated_derivative(grid, 7, 1.0, 1) == \
            truncated_derivative(bumped, 7, 1.0, 1)

    def test_linearity(self, rng):
        a = random_grid(rng, 14, 14)
        b = random_grid(rng, 14, 14)
        alpha, beta = -0.8, 2.2
        lhs = truncated_derivative(alpha * a + beta * b, 6, 1.3, 1)
        rhs = (alpha * truncated_derivative(a, 6, 1.3, 1)
               + beta * truncated_derivative(b, 6, 1.3, 1))
        assert np.abs(lhs.to_dense() - rhs.to_dense()).max() <= 1e-12
