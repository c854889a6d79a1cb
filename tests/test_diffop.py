import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebdiff2d import (ZETA_0, CoeffGrid, analyze, build_cross,
                        differentiate_coeffs, grid_synthesize,
                        recurrence_partial_t, sup_norm, synthesize,
                        truncated_derivative)
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


@pytest.mark.parametrize("shape", [(1, 3), (2, 2), (9, 4), (16, 1), (33, 5)])
def test_order_r_gives_the_bytes_of_r_first_order_steps(rng, shape):
    values = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** rng.uniform(-5, 11, shape)
    values[rng.random(shape) < 0.2] = -0.0
    grid = CoeffGrid.from_dense(values)
    steps = grid
    for r in range(1, shape[0] + 3):
        steps = differentiate_coeffs(steps, 1)
        got = differentiate_coeffs(grid, r).to_dense()
        assert got.tobytes() == steps.to_dense().tobytes()


# The worst deviation from mpmath on the rng fixture's 513 x 3 table,
# relative to the largest exact entry, measured with numpy 2.4; each test
# allows twice that.  No BLAS call is involved.
@pytest.mark.parametrize("r, measured", [(1, 7.8e-16), (2, 6.1e-16)])
def test_recurrence_against_mpmath_at_degree_512(rng, r, measured):
    values = rng.uniform(-1.0, 1.0, size=(513, 3))
    with mpmath.workdps(30):
        # the backward recurrence b[l-1] = b[l+1] + 2l a[l] in 30 digits,
        # with zeta0 = 1/sqrt(2) taken in mpmath too
        zeta0 = 1 / mpmath.sqrt(2)
        a = [list(map(mpmath.mpf, row)) for row in values.tolist()]
        for _ in range(r):
            b = [[mpmath.mpf(0)] * 3 for _ in range(len(a) + 1)]
            for l in range(len(a) - 1, 0, -1):
                b[l - 1] = [x + 2 * l * y for x, y in zip(b[l + 1], a[l])]
            a = [[zeta0 * x for x in b[0]]] + b[1:len(a) - 1]
        exact = np.array([[float(x) for x in row] for row in a])
    got = differentiate_coeffs(CoeffGrid.from_dense(values), r).to_dense()
    assert got.shape == exact.shape == (513 - r, 3)
    assert np.abs(got - exact).max() <= 2 * measured * np.abs(exact).max()


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


@pytest.mark.parametrize("entries, r, message", [
    ([((600, 0), 1e308)], 1,                      # 1200 * 1e308 overflows
     r"^non-finite coefficient at \(1, 0\)$"),
    ([((600, 0), 1e308), ((598, 0), -1e308)], 1,  # and inf - inf is nan
     r"^non-finite coefficient at \(1, 0\)$"),
    ([((600, 0), 1e308)], 3,                      # the loop stops at step 1
     r"^derivative of order r = 3: step 1 leaves a non-finite coefficient$"),
], ids=["overflow", "inf-minus-inf", "before-the-last-step"])
def test_overflowing_derivative_is_refused(entries, r, message):
    # nor a RuntimeWarning: pyproject.toml turns warnings into errors
    with pytest.raises(ValueError, match=message):
        differentiate_coeffs(CoeffGrid(entries), r)


def test_overflow_that_drops_out_is_not_refused():
    # step 1 turns 2 * 1e308 into inf in row 0, which step 2 drops; the
    # result is that of the table without it
    got = differentiate_coeffs(CoeffGrid.from_dense([[0.0], [1e308], [1.0]]), 2)
    want = differentiate_coeffs(CoeffGrid.from_dense([[0.0], [0.0], [1.0]]), 2)
    assert got.to_dense().tobytes() == want.to_dense().tobytes()
    assert got.to_dense()[0, 0] == 8.0 * ZETA_0


def test_zero_table_returns_at_once():
    # 4096 steps over 4097 rows would take seconds; zero rows take none
    grid = CoeffGrid.from_dense(np.zeros((4097, 64)))
    start = time.perf_counter()
    deriv = differentiate_coeffs(grid, 4096)
    assert time.perf_counter() - start < 0.5
    assert deriv.to_dense().tobytes() == np.zeros((1, 64)).tobytes()


@settings(deadline=None, database=None, max_examples=40)
@given(shape=st.tuples(st.integers(1, 12), st.integers(1, 6)),
       pad=st.tuples(st.integers(0, 4), st.integers(0, 4)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_zero_padding_gives_the_padded_bytes(shape, pad, seed):
    # zero rows of highest degree and zero columns of highest index, +0.0
    # or -0.0, are left out of the recurrence and come back as +0.0
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, size=shape)
    values[rng.random(shape) < 0.2] = -0.0
    padded = np.where(rng.random(np.add(shape, pad)) < 0.5, 0.0, -0.0)
    padded[: shape[0], : shape[1]] = values
    rows = padded.shape[0]
    for r in range(1, rows + 3):
        got = differentiate_coeffs(CoeffGrid.from_dense(padded), r).to_dense()
        inner = differentiate_coeffs(CoeffGrid.from_dense(values), r).to_dense()
        want = np.zeros((max(rows - r, 1), padded.shape[1]))
        want[: inner.shape[0], : inner.shape[1]] = inner
        assert got.tobytes() == want.tobytes()
        loop = _row_recurrence(padded, r, ZETA_0)[: max(rows - r, 1)]
        assert got.tobytes() == loop.tobytes()


def test_invalid_order():
    with pytest.raises(ValueError):
        differentiate_coeffs(CoeffGrid([((1, 0), 1.0)]), 0)


def test_degree_bound_drops_by_order(rng):
    grid = random_grid(rng, 9, 4)
    assert differentiate_coeffs(grid, 2).max_k == 7
    assert differentiate_coeffs(grid, 12).max_k == 0
    assert differentiate_coeffs(grid, 2).max_j == 4


@pytest.mark.parametrize("shape", [(9, 9), (1, 4), (2, 3), (17, 5)])
def test_order_above_degree_gives_the_bytes_of_the_loop(rng, shape):
    # past max_k the recurrence yields one row of +0.0, signed zeros never
    values = rng.uniform(-1.0, 1.0, size=shape)
    values[rng.random(shape) < 0.2] = -0.0
    grid = CoeffGrid.from_dense(values)
    for r in range(shape[0], shape[0] + 5):
        got = differentiate_coeffs(grid, r).to_dense()
        loop = _row_recurrence(values, r, ZETA_0)[:1]
        assert got.tobytes() == loop.tobytes()
        assert got.tobytes() == np.zeros((1, shape[1])).tobytes()


def test_order_above_degree_takes_no_steps():
    grid = CoeffGrid.from_dense(np.eye(9))
    start = time.perf_counter()
    deriv = differentiate_coeffs(grid, 10 ** 6)
    assert time.perf_counter() - start < 1.0
    assert deriv == CoeffGrid.from_dense(np.zeros((1, 9)))


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
    # oracle: the basis derivatives from the three-term recurrence, at
    # interior probe points
    for _ in range(8):
        grid = random_grid(rng, 12, 12)
        deriv = differentiate_coeffs(grid, r)
        ts = rng.uniform(-0.9, 0.9, size=20)
        taus = rng.uniform(-1, 1, size=20)
        spectral = np.array([synthesize(deriv, t, u) for t, u in zip(ts, taus)])
        oracle = recurrence_partial_t(grid, r, ts, taus)
        scale = np.abs(spectral).max()
        assert np.abs(spectral - oracle).max() / scale <= 1e-5


def test_single_entry_second_derivative_matches_fd(rng):
    grid = CoeffGrid([((3, 2), 1.0)])
    deriv = differentiate_coeffs(grid, 2)
    ts = rng.uniform(-0.9, 0.9, size=20)
    taus = rng.uniform(-1, 1, size=20)
    spectral = np.array([synthesize(deriv, t, u) for t, u in zip(ts, taus)])
    oracle = recurrence_partial_t(grid, 2, ts, taus)
    assert np.abs(spectral - oracle).max() / np.abs(spectral).max() <= 1e-6


def test_sparsity_pattern_by_probing():
    max_k = 8
    for k in range(max_k + 1):
        probe = CoeffGrid([((k, 1), 1.0)], max_k, 2)
        deriv = differentiate_coeffs(probe, 1)
        hit = set(np.nonzero(deriv.to_dense())[0].tolist())
        expected = {l for l in range(k) if (k + l) % 2 == 1}
        assert hit == expected


def test_linearity(rng):
    a = random_grid(rng, 8, 8)
    b = random_grid(rng, 8, 8)
    alpha, beta = 1.7, -0.3
    combo = CoeffGrid.from_dense(alpha * a.to_dense() + beta * b.to_dense())
    lhs = differentiate_coeffs(combo, 2).to_dense()
    rhs = (alpha * differentiate_coeffs(a, 2).to_dense()
           + beta * differentiate_coeffs(b, 2).to_dense())
    assert np.abs(lhs - rhs).max() <= 1e-12


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

    @settings(deadline=None, database=None)
    @given(data=st.data(), r=st.integers(1, 3), shape=st.tuples(
        st.integers(1, 60), st.integers(1, 60)), seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_symmetries(self, data, r, shape, seed):
        # exact in floating point: sign flips and scaling by 2**e commute
        # with every rounding, the odd and even rows are summed apart, and
        # entries outside the cross never enter
        n = data.draw(st.integers(r, 80))
        gamma = data.draw(st.floats(1.0, 3.0))
        e = data.draw(st.integers(-30, 30))
        gen = np.random.default_rng(seed)
        a = gen.uniform(-1, 1, shape) * np.exp(gen.uniform(-30, 30, shape))

        def method(table):
            return truncated_derivative(CoeffGrid.from_dense(table), n, gamma,
                                        r).to_dense()

        out = method(a)
        flip_k = (-1.0) ** np.arange(shape[0])[:, None]
        flip_j = (-1.0) ** np.arange(shape[1])
        assert np.array_equal(method(flip_k * a),
                              (-1.0) ** r * flip_k[: out.shape[0]] * out)
        assert np.array_equal(method(a * flip_j), out * flip_j)
        assert np.array_equal(method(np.ldexp(a, e)), np.ldexp(out, e))
        larger = build_cross(data.draw(st.integers(n, 2 * n)),
                             data.draw(st.floats(1.0, gamma)), r)
        assert np.array_equal(
            method(CoeffGrid.from_dense(a).restrict_to(larger).to_dense()), out)

    def test_linearity(self, rng):
        a = random_grid(rng, 14, 14)
        b = random_grid(rng, 14, 14)
        alpha, beta = -0.8, 2.2
        combo = CoeffGrid.from_dense(alpha * a.to_dense() + beta * b.to_dense())
        lhs = truncated_derivative(combo, 6, 1.3, 1).to_dense()
        rhs = (alpha * truncated_derivative(a, 6, 1.3, 1).to_dense()
               + beta * truncated_derivative(b, 6, 1.3, 1).to_dense())
        assert np.abs(lhs - rhs).max() <= 1e-12
