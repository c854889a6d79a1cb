import math
import tracemalloc

import mpmath
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
from chebdiff2d import basis, norms
from chebdiff2d.norms import _error_metrics, _exact_sum, _grid
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

    @pytest.mark.parametrize("value", [1.3e154, 1e200, 1e300])
    def test_finite_norm_beyond_the_range_of_the_sum(self, value):
        # the squares' sum (or, from 1e200, each square) exceeds the float
        # range, the norm does not
        grid = CoeffGrid([((0, 0), value), ((3, 2), -value)])
        want = math.hypot(value, value)
        assert l2_omega_norm(grid) == pytest.approx(want, rel=1e-15)
        assert lq_coefficient_bound(grid, 2.0) == pytest.approx(want, rel=1e-15)
        assert lq_coefficient_bound(grid, 4.0) == pytest.approx(
            value * math.sqrt(1.0 + math.sqrt(6.0)), rel=1e-15)

    def test_norm_beyond_the_float_range_is_inf(self):
        top = np.finfo(float).max
        assert l2_omega_norm(CoeffGrid([((0, 0), top), ((0, 1), top)])) == math.inf


class TestErrorMetrics:
    @pytest.mark.parametrize("reference, want", [
        ([[1.0, 2.0], [1e200, -3.0]], 1e200),  # a square overflows
        (np.full((3, 3), 1e154), 3e154),  # the squares' sum overflows
        (np.full((2, 2), 5.5e153), 1.1e154),  # the sum lies in [2**1023, 2**1024)
    ], ids=["square", "sum", "top-binade"])
    @pytest.mark.parametrize("approx", [[[0.5]], np.zeros((4, 5))],
                             ids=["inside", "beyond"])
    def test_l2w_beyond_the_range_of_the_sum(self, reference, want, approx):
        # the engine hands an overflow to l2_omega_norm, which rescales the
        # table, and takes the root of a finite sum in the top binade itself
        reference, approx = CoeffGrid.from_dense(reference), CoeffGrid.from_dense(approx)
        got = _error_metrics(reference, (MetricSpec("l2w"),))(approx)
        assert got == [l2_omega_norm(approx - reference)] == [want]

    @pytest.mark.parametrize("scale", [1e-160, 1e-170, 2e153])
    def test_l2w_at_the_ends_of_the_range_equals_the_public_path(self, rng, scale):
        # the squares underflow in part (1e-160) or whole (1e-170), which the
        # engine hands to l2_omega_norm, or their sum nears the float range's
        # top (2e153)
        reference = CoeffGrid.from_dense(scale * rng.uniform(-1.0, 1.0, (9, 9)))
        evaluate = _error_metrics(reference, (MetricSpec("l2w"),))
        for shape in ((5, 4), (9, 9), (12, 11)):
            approx = CoeffGrid.from_dense(scale * rng.uniform(-1.0, 1.0, shape))
            got = evaluate(approx)
            assert got == [l2_omega_norm(approx - reference)]
            assert got[0] > 0.0


class TestTinyTables:
    """Tables whose squares or fourth powers underflow in part or in whole:
    the sum is taken again over the table scaled by a power of two."""

    @pytest.mark.parametrize("scale", [1e-80, 1e-160, 1e-170])
    def test_norms_match_mpmath(self, rng, scale):
        dense = scale * rng.uniform(-1.0, 1.0, (9, 9))
        grid = CoeffGrid.from_dense(dense)
        nodes = 17  # 4 * 8 / 2 + 1: exact for |f|^4 at degree 8
        with mpmath.workdps(40):
            a = mpmath.matrix(dense.tolist())
            l2 = mpmath.sqrt(mpmath.fsum(v * v for v in a))
            bound = mpmath.sqrt(mpmath.fsum(
                mpmath.sqrt(max(1, k) * max(1, j)) * a[k, j] ** 2
                for k in range(9) for j in range(9)))
            theta = [(2 * i - 1) * mpmath.pi / (2 * nodes) for i in range(1, nodes + 1)]
            basis = mpmath.matrix([[mpmath.sqrt((1 if k == 0 else 2) / mpmath.pi)
                                    * mpmath.cos(k * t) for k in range(9)] for t in theta])
            values = basis * a * basis.T
            lq4 = ((mpmath.pi / nodes) ** 2 * mpmath.fsum(v ** 4 for v in values)) ** 0.25
        # abs=0: approx's default absolute tolerance would pass any tiny norm
        assert l2_omega_norm(grid) == pytest.approx(float(l2), rel=3e-16, abs=0)
        assert lq_coefficient_bound(grid, 4.0) == pytest.approx(float(bound),
                                                                rel=3e-16, abs=0)
        for quad_n in (nodes, 257):  # the default size, and the metric's
            assert lq_omega_norm(grid, 4.0, quad_n) == pytest.approx(
                float(lq4), rel=1e-14, abs=0)


def reflections(table):
    """``table`` with its odd rows negated (t -> -t) and with its odd
    columns negated (tau -> -tau): both leave every norm unchanged."""
    rows, cols = table.shape
    return ((-1.0) ** np.arange(rows)[:, None] * table,
            table * (-1.0) ** np.arange(cols))


def wide_table(gen, shape):
    """Random entries of magnitudes from e^-30 to e^30."""
    return gen.uniform(-1, 1, shape) * np.exp(gen.uniform(-30, 30, shape))


class TestReflection:
    @settings(deadline=None, database=None)
    @given(shape=st.tuples(st.integers(1, 60), st.integers(1, 60)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_l2_is_bitwise_invariant(self, shape, seed):
        # the sum of squares is correctly rounded, and a square has no sign
        table = wide_table(np.random.default_rng(seed), shape)
        norm = l2_omega_norm(CoeffGrid.from_dense(table))
        for reflected in reflections(table):
            assert l2_omega_norm(CoeffGrid.from_dense(reflected)) == norm

    def test_sup_and_lqw_move_by_few_ulps(self):
        # sup and lqw sum values at computed cosine nodes, and cos(pi - x)
        # need not round to -cos(x): a reflection moves them by a few ulps
        # (at most 48 for sup and 56 for lqw:4 over 6600 random tables of
        # up to 60 x 60 entries)
        gen = np.random.default_rng(2718)
        for _ in range(40):
            table = wide_table(gen, tuple(gen.integers(1, 61, size=2)))
            for norm in (sup_norm, lambda grid: lq_omega_norm(grid, 4.0)):
                value = norm(CoeffGrid.from_dense(table))
                for reflected in reflections(table):
                    moved = abs(norm(CoeffGrid.from_dense(reflected)) - value)
                    assert moved <= 64 * np.spacing(value)


class TestExactSum:
    """The array sum behind l2w, the class norm and the Lq coefficient bound
    is math.fsum's correctly rounded result, bit for bit, except that a
    finite sum beyond the float range is inf where fsum raises."""

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

    def test_no_grid_above_the_table_limit(self, monkeypatch):
        # the integer sum is exact for up to MAX_TABLE_ENTRIES values, and
        # from_dense, which adopts any caller's array, refuses more
        monkeypatch.setattr(basis, "MAX_TABLE_ENTRIES", 8)
        with pytest.raises(ValueError, match="^a 3 x 3 coefficient table exceeds "
                           "the limit MAX_TABLE_ENTRIES = 8$"):
            CoeffGrid.from_dense(np.ones((3, 3)))

    def test_sum_beyond_the_float_range_is_signed_inf(self):
        top = np.finfo(float).max
        assert _exact_sum(np.array([top, top, -1.0])) == math.inf
        assert _exact_sum(np.array([-top, 1.0, -top])) == -math.inf
        assert _exact_sum(np.array([top, top, -top])) == top

    def test_class_member_terms(self):
        spec = WienerSpec(s=1.0, mu1=3.0, mu2=2.0)
        dense = make_class_member(spec, 512, 512, seed=42).to_dense()
        uk = np.maximum(1, np.arange(513, dtype=float))
        terms = np.outer(uk ** spec.mu1, uk ** spec.mu2) * np.abs(dense)
        assert _exact_sum(terms) == math.fsum(terms.ravel())
        assert _exact_sum(dense * dense) == math.fsum((dense * dense).ravel())

    @pytest.mark.parametrize("scale", [1e-310, 1e-160, 1.0, 1e150])
    def test_norms_equal_fsum_formulas(self, rng, scale):
        # 1e-160 makes the squares, 1e-310 the coefficients, subnormal; the
        # root of the exact sum is the root over dense * 2**k, scaled back
        k = -math.frexp(scale)[1]
        for _ in range(10):
            grid = random_grid(rng, 15, 12, fill=0.5, scale=scale)
            dense = grid.to_dense()
            scaled = np.ldexp(dense, k)
            assert l2_omega_norm(grid) == math.ldexp(math.sqrt(
                math.fsum((scaled * scaled).ravel())), -k)
            uk = np.maximum(1, np.arange(16))
            uj = np.maximum(1, np.arange(13))
            for q in (2.0, 3.0, 8.0):
                terms = np.outer(uk, uj) ** (1.0 - 2.0 / q) * scaled * scaled
                assert lq_coefficient_bound(grid, q) == math.ldexp(math.sqrt(
                    math.fsum(terms.ravel())), -k)
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

    @pytest.mark.parametrize("q", [1.0, 3.0])
    def test_signed_values_take_their_absolute_value(self, rng, q):
        # q = 1 takes no squaring and q = 3 is no power of two: both take
        # the sign off with abs, bit for bit as the formula written out
        grid = random_grid(rng, 12, 9)
        quad_n = 4 * 12 + 1
        nodes = gauss_chebyshev_nodes(quad_n)
        f = grid_synthesize(grid, nodes, nodes)
        assert f.min() < 0 < f.max()
        w = math.pi / quad_n
        assert lq_omega_norm(grid, q) == (w * w * np.sum(np.abs(f) ** q)) ** (1 / q)

    @pytest.mark.parametrize("q", [2.0, 4.0, 8.0])
    def test_squarings_are_sign_blind(self, rng, q):
        # q = 2**m takes no abs pass: the first squaring drops the sign
        grid = random_grid(rng, 12, 9)
        negated = CoeffGrid.from_dense(-grid.to_dense())
        assert lq_omega_norm(grid, q) == lq_omega_norm(negated, q)

    def test_quadrature_grid_above_the_limit_is_refused_first(self, monkeypatch):
        # 2049 x 1 at q = 3 takes the 4 * 2048 + 1 cap: 8193^2 > 2^26 points
        def basis_matrix(degree, points):
            raise AssertionError("a basis matrix was built")

        monkeypatch.setattr(norms, "basis_matrix", basis_matrix)
        with pytest.raises(ValueError, match="^a 8193 x 8193 quadrature grid exceeds "
                           "the limit MAX_TABLE_ENTRIES = 67108864$"):
            lq_omega_norm(CoeffGrid.from_dense(np.ones((2049, 1))), 3.0)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            lq_omega_norm(CoeffGrid([((0, 0), 1.0)]), 0.5)
        with pytest.raises(ValueError, match="use sup_norm for q = inf$"):
            lq_omega_norm(CoeffGrid([((0, 0), 1.0)]), math.inf)

    @pytest.mark.parametrize("scale", [1.0, 1e-3], ids=["overflow", "underflow"])
    def test_large_q_stays_finite_and_nonzero(self, rng, scale):
        # |f|**600 overflows where |f| > 3.3, and every power underflows
        # where |f| < 0.3; the sum is then taken over |f| * 2**-e, with 2**e
        # just above max |f| (abs=0: approx's default 1e-12 would pass 1e-3)
        grid = CoeffGrid.from_dense(scale * rng.uniform(-1.0, 1.0, (9, 9)))
        quad_n = 4 * 8 + 1
        nodes = gauss_chebyshev_nodes(quad_n)
        values = np.abs(grid_synthesize(grid, nodes, nodes)).ravel().tolist()
        with mpmath.workdps(30):
            exact = (mpmath.fsum(mpmath.mpf(v) ** 600 for v in values)
                     * (mpmath.pi / quad_n) ** 2) ** (mpmath.mpf(1) / 600)
        got = lq_omega_norm(grid, 600.0)
        assert got == pytest.approx(float(exact), rel=1e-14, abs=0)
        # the scale is exact, so it keeps the bits under powers of two
        shifted = CoeffGrid.from_dense(np.ldexp(grid.to_dense(), 40))
        assert lq_omega_norm(shifted, 600.0) == math.ldexp(got, 40)

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

    def test_basis_above_the_limit_is_refused_first(self):
        # the 1 x 2^18 table is within the limit; its 257-point basis is not
        grid = CoeffGrid.from_dense(np.ones((1, 2 ** 18)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^a 257 x 262144 basis matrix exceeds "
                               "the limit MAX_TABLE_ENTRIES = 67108864$"):
                sup_norm(grid, 257)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20  # the basis would take 512 MiB

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

    def test_negative_degree_refused(self):
        with pytest.raises(ValueError, match="^max_k must be an integer >= 0$"):
            nikolskii_explicit_bound(-1, 0)

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

    @pytest.mark.parametrize("text, message", [
        ("lqw:1", r"q must lie in \[2, inf\)"),
        ("lqw:inf", r"Lq metric requires a finite q; use 'sup' for q = inf"),
        ("lqw:abc", r"metric 'lqw:abc': q is not a number"),
        ("linf", r"unknown metric 'linf' \(expected l2w, lqw:<q>, sup\)"),
    ], ids=["small-q", "infinite-q", "non-numeric-q", "unknown"])
    def test_parse_refusal(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_metric(text)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^q must lie in \[2, inf\)$"):
            MetricSpec("lqw")  # missing q
        with pytest.raises(ValueError):
            MetricSpec("lqw", q=1.5)
        with pytest.raises(ValueError):
            MetricSpec("l2w", q=3.0)
        with pytest.raises(ValueError):
            MetricSpec("sup", eval_grid=1)

    @pytest.mark.parametrize("kind", norms._METRICS)
    def test_each_kind_reads_its_row(self, kind):
        # a kind's row decides its spelling, its q and its value grid
        takes_q = norms._METRICS[kind].takes_q
        spec = MetricSpec(kind, q=4.0 if takes_q else None)
        assert parse_metric(spec.label) == spec
        wrong = kind if takes_q else f"{kind}:4"
        with pytest.raises(ValueError, match=f"^unknown metric '{wrong}' "
                           r"\(expected l2w, lqw:<q>, sup\)$"):
            parse_metric(wrong)
        # lqw:4 takes 4 * 599 / 2 + 1 nodes at degree 599, above eval_grid
        assert _grid(spec, (600, 9)) == {"l2w": None, "lqw": ("quadrature", 1199),
                                         "sup": ("evaluation", 257)}[kind]
        with pytest.raises(ValueError, match=f"^unknown metric kind '{kind}x' "
                           r"\(expected l2w, lqw, sup\)$"):
            MetricSpec(kind + "x")

    def test_evaluate_dispatch(self, rng):
        grid = random_grid(rng, 6, 6)
        assert evaluate_metric(grid, MetricSpec("l2w")) == l2_omega_norm(grid)
        assert evaluate_metric(grid, MetricSpec("sup", eval_grid=65)) == \
            sup_norm(grid, 65)
        metric = MetricSpec("lqw", q=4.0, eval_grid=2)
        assert evaluate_metric(grid, metric) == lq_omega_norm(
            grid, 4.0, _grid(metric, grid._dense.shape)[1])
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
