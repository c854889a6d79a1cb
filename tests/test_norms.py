import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebdiff2d import (CoeffGrid, MetricSpec, WienerSpec, cosine_grid,
                        evaluate_metric, gauss_chebyshev_nodes,
                        grid_synthesize, l2_omega_norm, lq_coefficient_bound,
                        lq_omega_norm, make_class_member,
                        nikolskii_explicit_bound, parse_metric, sup_norm,
                        synthesize, wiener_norm)
from chebdiff2d.norms import _exact_sum
from helpers import random_grid


class TestL2:
    def test_single_entry(self):
        assert l2_omega_norm(CoeffGrid([((4, 7), 3.0)])) == 3.0

    def test_pythagorean(self):
        grid = CoeffGrid([((0, 0), 3.0), ((1, 1), 4.0)])
        assert l2_omega_norm(grid) == pytest.approx(5.0, abs=1e-14)

    def test_matches_quadrature(self, rng):
        for _ in range(20):
            grid = random_grid(rng, 24, 24, fill=0.4)
            assert lq_omega_norm(grid, 2.0) == pytest.approx(
                l2_omega_norm(grid), rel=1e-10)


class TestExactSum:
    """The array sum behind l2w, the class norm and the Lq coefficient bound
    is math.fsum's correctly rounded result, bit for bit."""

    @settings(deadline=None, database=None)
    @given(size=st.integers(0, 4096), seed=st.integers(0, 2 ** 32 - 1),
           lowest=st.integers(-1075, 996), span=st.integers(0, 2071),
           signed=st.booleans(), zeros=st.floats(0.0, 1.0))
    def test_equals_fsum(self, size, seed, lowest, span, signed, zeros):
        # m * 2**e with m in [0.5, 1) and e in [lowest, lowest + span]:
        # magnitudes from 0 and 5e-324 up to 2**996 < 1e300
        rng = np.random.default_rng(seed)
        exps = rng.integers(lowest, min(lowest + span, 996), size=size,
                            endpoint=True)
        values = np.ldexp(rng.uniform(0.5, 1.0, size), exps)
        if signed:
            values *= rng.choice((-1.0, 1.0), size)
        values[rng.random(size) < zeros] = 0.0
        assert _exact_sum(values) == math.fsum(values)

    @pytest.mark.parametrize("values", [
        np.array([]),
        np.zeros(7),
        np.array([5e-324, 5e-324, -5e-324]),
        np.array([1e300, 1.0, -1e300]),
        np.array([1.0, 2.0 ** -53, 2.0 ** -106]),  # a tie broken by the last bit
        np.full(2 ** 16, np.nextafter(2.0, 0.0)),  # the widest mantissa, repeated
        np.full((3, 5), 0.1),
    ], ids=["empty", "zeros", "subnormal", "cancel", "tie", "wide", "2-D"])
    def test_explicit_cases(self, values):
        assert _exact_sum(values) == math.fsum(values.ravel())

    def test_non_finite_input_keeps_fsum_result(self):
        assert _exact_sum(np.array([1.0, math.inf, 2.0])) == math.inf
        assert math.isnan(_exact_sum(np.array([1.0, math.nan])))
        with pytest.raises(ValueError, match="inf"):
            _exact_sum(np.array([math.inf, -math.inf]))

    def test_class_member_terms(self):
        spec = WienerSpec(s=1.0, mu1=3.0, mu2=2.0)
        dense = make_class_member(spec, 512, 512, seed=42).to_dense()
        uk = np.maximum(1, np.arange(513, dtype=float))
        terms = np.outer(uk ** spec.mu1, uk ** spec.mu2) * np.abs(dense)
        assert _exact_sum(terms) == math.fsum(terms.ravel())
        assert _exact_sum(dense * dense) == math.fsum((dense * dense).ravel())

    @pytest.mark.parametrize("scale", [1e-310, 1e-160, 1.0, 1e150])
    def test_norms_equal_fsum_formulas(self, rng, scale):
        # 1e-160 makes the squares, 1e-310 the coefficients, subnormal
        for _ in range(10):
            grid = random_grid(rng, 15, 12, fill=0.5, scale=scale)
            dense = grid.to_dense()
            assert l2_omega_norm(grid) == math.sqrt(
                math.fsum((dense * dense).ravel()))
            uk = np.maximum(1, np.arange(16))
            uj = np.maximum(1, np.arange(13))
            for q in (2.0, 3.0, 8.0):
                terms = np.outer(uk, uj) ** (1.0 - 2.0 / q) * dense * dense
                assert lq_coefficient_bound(grid, q) == math.sqrt(
                    math.fsum(terms.ravel()))
            for spec in (WienerSpec(s=1.0, mu1=3.0, mu2=2.0),
                         WienerSpec(s=1.5, mu1=2.5, mu2=1.5)):
                weights = np.outer(
                    np.maximum(1, np.arange(16.0)) ** (spec.s * spec.mu1),
                    np.maximum(1, np.arange(13.0)) ** (spec.s * spec.mu2))
                terms = weights * np.abs(dense) ** spec.s
                assert wiener_norm(grid, spec) == math.fsum(
                    terms.ravel()) ** (1.0 / spec.s)


class TestLq:
    def test_constant_function(self):
        grid = CoeffGrid([((0, 0), math.pi)])  # the constant 1
        for q in (1.0, 2.0, 3.0, 4.0, 7.5):
            assert lq_omega_norm(grid, q, quad_n=9) == pytest.approx(
                math.pi ** (2.0 / q), rel=1e-12)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            lq_omega_norm(CoeffGrid([((0, 0), 1.0)]), 0.5)

    @pytest.mark.parametrize("q", [2.0, 4.0, 6.0, 8.0])
    def test_default_size_is_exact_for_even_q(self, rng, q):
        # q * deg / 2 + 1 nodes integrate |f|^q exactly, as 4 * deg + 1 do
        for box in ((20, 20), (31, 12), (5, 40)):
            grid = random_grid(rng, *box)
            exact = lq_omega_norm(grid, q, 4 * max(box) + 1)
            assert lq_omega_norm(grid, q) == pytest.approx(exact, rel=1e-13)
            assert evaluate_metric(grid, MetricSpec("lqw", q=q, eval_grid=2)) \
                == lq_omega_norm(grid, q)

    @pytest.mark.parametrize("deg", [6, 12, 20])
    def test_odd_q_takes_capped_size(self, rng, deg):
        # |f|^3 is no polynomial: the default is the 4 * deg + 1 cap, close
        # to a 16 times finer rule
        grid = random_grid(rng, deg, deg)
        capped = lq_omega_norm(grid, 3.0, quad_n=4 * deg + 1)
        assert lq_omega_norm(grid, 3.0) == capped
        assert capped == pytest.approx(
            lq_omega_norm(grid, 3.0, quad_n=64 * deg + 1), rel=1e-3)
        assert evaluate_metric(grid, parse_metric("lqw:3")) == lq_omega_norm(
            grid, 3.0, quad_n=max(257, 4 * deg + 1))

    def test_monotone_in_q_after_measure_normalization(self, rng):
        # Jensen under the probability measure omega / pi^2
        for _ in range(10):
            grid = random_grid(rng, 10, 10, fill=0.6)
            normalized = [lq_omega_norm(grid, q) / math.pi ** (2.0 / q)
                          for q in (2.0, 4.0, 8.0)]
            assert normalized[0] <= normalized[1] * (1 + 1e-12)
            assert normalized[1] <= normalized[2] * (1 + 1e-12)


class TestSupNorm:
    def test_tensor_peak_at_corner(self):
        for k, j in [(1, 1), (3, 2), (5, 5)]:
            grid = CoeffGrid([((k, j), 1.0)])
            assert sup_norm(grid, 257) == pytest.approx(2 / math.pi, rel=1e-10)

    def test_zero_grid(self):
        assert sup_norm(CoeffGrid(), 17) == 0.0

    def test_dominates_samples(self, rng):
        grid = random_grid(rng, 9, 9)
        peak = sup_norm(grid, 257)
        for _ in range(100):
            t, u = rng.uniform(-1, 1, size=2)
            assert abs(synthesize(grid, t, u)) <= peak * (1 + 1e-9) + 1e-12

    def test_nondecreasing_on_nested_grids(self, rng):
        grid = random_grid(rng, 12, 12)
        # grids with M = 2^e + 1 are nested
        values = [sup_norm(grid, 2**e + 1) for e in range(2, 9)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


class TestCoefficientBound:
    def test_q2_is_l2(self, rng):
        grid = random_grid(rng, 7, 7, fill=0.5)
        assert lq_coefficient_bound(grid, 2.0) == pytest.approx(
            l2_omega_norm(grid), rel=1e-14)

    def test_single_entry_value(self):
        grid = CoeffGrid([((3, 2), 1.0)])
        assert lq_coefficient_bound(grid, 4.0) == pytest.approx(
            6.0**0.25, rel=1e-12)
        assert 6.0**0.25 == pytest.approx(1.5651, abs=1e-4)

    def test_nondecreasing_in_q(self, rng):
        grid = random_grid(rng, 8, 8)
        values = [lq_coefficient_bound(grid, q) for q in (2.0, 3.0, 4.0, 8.0, 64.0)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_q_range(self):
        grid = CoeffGrid([((1, 1), 1.0)])
        with pytest.raises(ValueError):
            lq_coefficient_bound(grid, 1.5)
        with pytest.raises(ValueError):
            lq_coefficient_bound(grid, math.inf)

    def test_bounds_lq_with_small_constant(self, rng):
        # the comparison constant is unspecified a priori; empirically it
        # stays below 3 (in fact below 1) on random grids
        worst = 0.0
        for _ in range(200):
            grid = random_grid(rng, 12, 12)
            for q in (2.0, 4.0, 8.0):
                worst = max(worst, lq_omega_norm(grid, q)
                            / lq_coefficient_bound(grid, q))
        assert worst <= 3.0


class TestNikolskii:
    def test_explicit_values(self):
        assert nikolskii_explicit_bound(0, 0) == pytest.approx(2 / math.pi)
        assert nikolskii_explicit_bound(3, 1) == pytest.approx(
            (2 / math.pi) * math.sqrt(8))

    def test_valid_for_constant_basis_member(self):
        grid = CoeffGrid([((0, 0), 1.0)])
        assert sup_norm(grid, 9) <= nikolskii_explicit_bound(0, 0) * l2_omega_norm(grid)

    def test_holds_on_random_polynomials(self, rng):
        bound = nikolskii_explicit_bound(16, 16)
        for _ in range(300):
            grid = random_grid(rng, 16, 16)
            assert sup_norm(grid, 257) <= bound * l2_omega_norm(grid)


class TestMetricSpec:
    def test_parse(self):
        assert parse_metric("l2w") == MetricSpec("l2w")
        assert parse_metric("sup") == MetricSpec("sup")
        m = parse_metric("lqw:4")
        assert m.kind == "lqw" and m.q == 4.0
        assert m.label == "lqw:4"
        with pytest.raises(ValueError):
            parse_metric("linf")

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricSpec("lqw")  # missing q
        with pytest.raises(ValueError):
            MetricSpec("lqw", q=1.5)
        with pytest.raises(ValueError):
            MetricSpec("l2w", q=3.0)
        with pytest.raises(ValueError):
            MetricSpec("sup", eval_grid=1)

    def test_evaluate_dispatch(self, rng):
        grid = random_grid(rng, 6, 6)
        assert evaluate_metric(grid, MetricSpec("l2w")) == l2_omega_norm(grid)
        assert evaluate_metric(grid, MetricSpec("sup", eval_grid=65)) == \
            sup_norm(grid, 65)
        assert evaluate_metric(grid, MetricSpec("lqw", q=2.0)) == pytest.approx(
            l2_omega_norm(grid), rel=1e-10)


def test_grid_metrics_equal_grid_synthesis_bit_for_bit(rng):
    # repeated and transposed boxes reuse the basis matrices of earlier calls
    for max_k, max_j in ((9, 4), (9, 4), (4, 9)):
        grid = random_grid(rng, max_k, max_j)
        nodes = cosine_grid(33)
        assert sup_norm(grid, 33) == float(
            np.abs(grid_synthesize(grid, nodes, nodes)).max())
        nodes = gauss_chebyshev_nodes(41)
        values = np.abs(grid_synthesize(grid, nodes, nodes)) ** 4.0
        w = math.pi / 41
        assert lq_omega_norm(grid, 4.0, 41) == float(
            (w * w * np.sum(values)) ** 0.25)
