import contextlib
import io
import json
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebdiff2d import (CoeffFileError, CoeffGrid, CrossIndexSet,
                        ExperimentConfig, MetricSpec, NoiseSpec, ProblemSpec,
                        TestFunctionSpec, WienerSpec, analyze, basis_matrix,
                        build_cross, choose_n, cosine_grid, differentiate_coeffs,
                        gauss_chebyshev_nodes, grid_synthesize, l2_omega_norm,
                        lp_norm, lq_coefficient_bound, lq_omega_norm,
                        make_class_member,
                        nikolskii_explicit_bound, parse_metric, perturb,
                        read_coeff_csv, read_coeff_file, read_coeff_json,
                        recurrence_partial_t, sup_norm, synthesize,
                        write_coeff_csv, write_coeff_json)
from chebdiff2d import basis, transform
from chebdiff2d.cli import main
from chebdiff2d.transform import write_csv_table, write_value_table
import reference
from helpers import orthonormal_oracle, random_grid


class TestCoeffGrid:
    def test_absent_indices_are_zero(self):
        grid = CoeffGrid([((2, 3), 1.5)], 5, 5)
        expected = np.zeros((6, 6))
        expected[2, 3] = 1.5
        assert np.array_equal(grid.to_dense(), expected)
        assert grid.nnz == 1

    def test_rejects_nan_and_bad_indices(self):
        with pytest.raises(ValueError):
            CoeffGrid([((0, 0), math.nan)])
        with pytest.raises(ValueError):
            CoeffGrid([((-1, 0), 1.0)])
        with pytest.raises(ValueError):
            CoeffGrid([((3, 0), 1.0)], max_k=2, max_j=0)
        with pytest.raises(ValueError):
            CoeffGrid([((0, 0), 1.0), ((0, 0), 2.0)])
        with pytest.raises(ValueError, match="entry 1: duplicate"):
            CoeffGrid([((0, 0), 0.0), ((0, 0), 1.0)])  # zero first
        with pytest.raises(ValueError, match="entry 2: duplicate"):
            CoeffGrid([((0, 0), 1.0), ((1, 0), 2.0), ((0, 0), 0.0)])
        with pytest.raises(ValueError, match="entry 1: invalid index pair"):
            CoeffGrid([((0, 0), 1.0), ((1.5, 0), 2.0)])
        # alone, the list value makes a 1 x 1 array of values
        with pytest.raises(ValueError, match=r"^entry 0: coefficient at \(0, 0\) "
                                             r"is not a number$"):
            CoeffGrid([((0, 0), [1.0])])
        with pytest.raises(ValueError, match="^entry 0: invalid index pair"):
            CoeffGrid([((2 ** 64, 0), 1.0)])

    @pytest.mark.parametrize("key, value, bounds, message", [
        ((1.5, 2), 2.0, (), "entry 1: invalid index pair (1.5, 2.0)"),
        ((math.nan, 2), 2.0, (), "entry 1: invalid index pair (nan, 2.0)"),
        ((math.inf, 2), 2.0, (), "entry 1: invalid index pair (inf, 2.0)"),
        ((-1, 2), 2.0, (), "entry 1: invalid index pair (-1, 2)"),
        (("a", 2), 2.0, (), "entries must be (k, j, value) with numeric k "
                            "and j"),
        ((3, 2), 2.0, (2, 2), "entry 1: entry (3, 2) outside declared bounds "
                              "(2, 2)"),
        ((0, 0), 2.0, (), "entry 1: duplicate index pair (0, 0)"),
        ((1, 2), math.inf, (), "entry 1: non-finite coefficient at (1, 2)"),
        ((1e30, 0), 2.0, (), "entry 1: invalid index pair (1e+30, 0.0)"),
        ((2 ** 63, 0), 2.0, (), "entry 1: invalid index pair "
                                "(9.223372036854776e+18, 0.0)"),
        ((1, 2), 10 ** 400, (), "entry 1: coefficient at (1, 2) is too large "
                                "for a float"),
        ((1, 2), "x", (), "entry 1: coefficient at (1, 2) is not a number"),
        # numpy keeps a key past uint64 as a Python int in an object array
        ((2 ** 64, 0), 2.0, (), "entry 1: invalid index pair "
                                "(18446744073709551616, 0)"),
        ((1, 2), [2.0], (), "entry 1: coefficient at (1, 2) is not a number"),
        ((1, 2, 3), 2.0, (), "entry 1: the key is not a (k, j) pair"),
        (5, 2.0, (), "entry 1: the key is not a (k, j) pair"),
        ((1, (2, 3)), 2.0, (), "entry 1: the key is not a (k, j) pair"),
    ], ids=["float-key", "nan-key", "inf-key", "negative-key",
            "non-numeric-key", "out-of-bounds", "duplicate", "inf-value",
            "huge-float-key", "int64-overflow-key", "huge-int-value",
            "string-value", "object-key", "list-value", "triple-key",
            "scalar-key", "nested-key"])
    def test_refusal_message_in_full(self, key, value, bounds, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CoeffGrid([((0, 0), 1.0), (key, value)], *bounds)

    @pytest.mark.parametrize("key", [(1, 2, 3), 5], ids=["triple", "scalar"])
    def test_only_key_not_a_pair(self, key):
        # every key alike, so numpy builds an array and fails to reshape it
        with pytest.raises(ValueError,
                           match=r"^entry 0: the key is not a \(k, j\) pair$"):
            CoeffGrid([(key, 1.0)])

    def test_duplicate_error_names_first_repeat(self, rng):
        for _ in range(5):
            ks = rng.permutation(200)
            pos = np.sort(rng.choice(200, size=3, replace=False))
            ks[pos] = ks[pos[0]]
            with pytest.raises(ValueError, match=rf"^entry {pos[1]}: duplicate"):
                CoeffGrid([((k, 0), 1.0) for k in ks])

    def test_pairs_match_dense(self, rng):
        values = rng.uniform(-1, 1, size=(6, 4))
        ks, js = np.nonzero(values > 0)
        expected = np.zeros((9, 5))
        expected[ks, js] = values[ks, js]
        pairs = zip(zip(ks, js), values[ks, js])
        assert CoeffGrid(pairs, 8, 4) == CoeffGrid.from_dense(expected)
        assert CoeffGrid([]) == CoeffGrid({}) == CoeffGrid()

    def test_written_entries_lexicographic(self, rng, tmp_path):
        for fill in (0.4, 1.0):
            write_coeff_csv(random_grid(rng, 6, 6, fill=fill), tmp_path / "g.csv")
            rows = (tmp_path / "g.csv").read_text().splitlines()[1:]
            keys = [tuple(map(int, row.split(",")[:2])) for row in rows]
            assert keys == sorted(keys) and len(keys) == len(set(keys))

    def test_dense_and_sparse_agree(self, rng):
        values = rng.uniform(-1, 1, size=(7, 5))
        values[values < 0.5] = 0.0  # sparse-ish
        sparse = CoeffGrid({(k, j): values[k, j]
                            for k in range(7) for j in range(5)
                            if values[k, j] != 0.0}, 6, 4)
        dense = CoeffGrid.from_dense(values)
        assert sparse == dense
        assert np.array_equal(sparse.to_dense(), dense.to_dense())

    def test_arithmetic(self, rng):
        a = random_grid(rng, 4, 6)
        b = random_grid(rng, 6, 3)
        total = a + b
        assert total.max_k == 6 and total.max_j == 6
        padded_a, padded_b = np.zeros((7, 7)), np.zeros((7, 7))
        padded_a[:5, :7], padded_b[:7, :4] = a.to_dense(), b.to_dense()
        assert np.array_equal(total.to_dense(), padded_a + padded_b)
        diff = total - b
        assert np.allclose(diff.to_dense()[:5, :7], a.to_dense(), atol=1e-15)

    @pytest.mark.parametrize("op, where", [
        (lambda g: g + g, "(1, 2)"),
        (lambda g: g - CoeffGrid([((1, 2), -1e308)]), "(1, 2)"),
        (lambda g: CoeffGrid([((4, 0), 1.0)]) + g + g, "(1, 2)"),  # padded
        (lambda g: CoeffGrid.from_dense([[0.0, 1.0], [math.nan, 2.0]]), "(1, 0)"),
    ], ids=["add", "sub", "add-padded", "from-dense"])
    def test_overflow_is_refused_naming_the_entry(self, op, where):
        # nor a RuntimeWarning: pyproject.toml turns warnings into errors
        grid = CoeffGrid([((1, 2), 1e308)], 2, 3)
        with pytest.raises(ValueError) as info:
            op(grid)
        assert str(info.value) == f"non-finite coefficient at {where}"

    @pytest.mark.parametrize("fill", [0.0, math.nan], ids=["zeros", "nan"])
    def test_oversize_array_is_refused_before_its_copy(self, monkeypatch, fill):
        # from_dense sizes the caller's array first, so a refused one is
        # neither copied nor scanned, and an oversize NaN gets the limit message
        monkeypatch.setattr(basis, "MAX_TABLE_ENTRIES", 8)
        array = np.full((1000, 1000), fill)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^a 1000 x 1000 coefficient table "
                               "exceeds the limit MAX_TABLE_ENTRIES = 8$"):
                CoeffGrid.from_dense(array)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6

    @pytest.mark.parametrize("op", [CoeffGrid.__add__, CoeffGrid.__sub__],
                             ids=["add", "sub"])
    def test_union_table_above_the_limit_is_refused_first(self, op):
        tall = CoeffGrid.from_dense(np.ones((8193, 1)))
        wide = CoeffGrid.from_dense(np.ones((1, 8193)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^a 8193 x 8193 coefficient table "
                               "exceeds the limit MAX_TABLE_ENTRIES = 67108864$"):
                op(tall, wide)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20  # the table would take 512 MiB

    def test_repr_and_foreign_operands(self):
        grid = CoeffGrid([((2, 1), 0.5)], 3, 4)
        assert repr(grid) == "CoeffGrid(nnz=1, max_k=3, max_j=4)"
        assert (grid == 1) is False
        with pytest.raises(TypeError):
            grid + 1
        with pytest.raises(TypeError):
            grid - 1

    def test_from_dense_refuses_an_empty_table(self):
        with pytest.raises(ValueError,
                           match="^dense input must be a nonempty 2-D array$"):
            CoeffGrid.from_dense(np.zeros((0, 3)))

    def test_from_dense_copies_its_array(self):
        source = np.arange(6.0).reshape(2, 3)
        grid = CoeffGrid.from_dense(source)
        source[0, 1] = 7.0
        assert grid.to_dense()[0, 1] == 1.0
        assert source.flags.writeable
        assert CoeffGrid.from_dense(source.T)._dense.flags.c_contiguous

    @pytest.mark.parametrize("make", [
        lambda g: g + g,
        lambda g: g - g,
        lambda g: g.restrict_to(build_cross(4, 1.5, 1)),
        lambda g: differentiate_coeffs(g, 2),
        lambda g: perturb(g, NoiseSpec(p=2.0, delta=0.1), build_cross(8, 1.5, 1)),
        lambda g: analyze(lambda t, u: t * u, 3, 2),
        lambda g: make_class_member(WienerSpec(1.0, 3.0, 2.0), 5, 4, seed=1),
        lambda g: CoeffGrid.from_dense(g.to_dense()),
    ], ids=["add", "sub", "restrict_to", "differentiate_coeffs",
            "perturb", "analyze", "make_class_member", "from_dense"])
    def test_results_are_read_only(self, rng, make):
        grid = make(random_grid(rng, 5, 4))
        with pytest.raises(ValueError, match="read-only"):
            grid._dense[0, 0] = 1.0

    def test_restrict(self):
        grid = CoeffGrid([((1, 0), 1.0), ((2, 5), 2.0), ((4, 1), 3.0)], 8, 8)
        kept = grid.restrict_to(build_cross(4, 1.0, 1))  # (2, 5) lies outside
        assert kept.nnz == 2
        assert kept.to_dense()[2, 5] == 0.0
        assert kept.max_k == 8 and kept.max_j == 8

    @pytest.mark.parametrize("box, n, gamma, r", [
        ((20, 20), 9, 1.4, 2),
        ((12, 15), 30, 1.0, 1),   # n > max_k
        ((9, 4), 16, 2.0, 1),     # cross reaches beyond both bounds
        ((25, 6), 11, 2.7, 3),
    ])
    def test_restrict_to_cross_matches_brute_force(self, rng, box, n, gamma, r):
        grid = random_grid(rng, *box)
        expected = grid.to_dense()
        for k in range(box[0] + 1):
            for j in range(box[1] + 1):
                if not (r <= k <= n and (j == 0 or k * j ** gamma <= n)):
                    expected[k, j] = 0.0
        kept = grid.restrict_to(build_cross(n, gamma, r))
        assert kept == CoeffGrid.from_dense(expected)
        assert (kept.max_k, kept.max_j) == box


class TestAnalyze:
    def test_constant_function(self):
        dense = analyze(lambda t, u: 1.0, 2, 2).to_dense()
        assert dense[0, 0] == pytest.approx(math.pi, abs=1e-12)
        dense[0, 0] = 0.0
        assert np.abs(dense).max() <= 1e-12

    def test_basis_member_is_orthonormal(self):
        grid = analyze(lambda t, u: (orthonormal_oracle(2, [t])[0, 2]
                                     * orthonormal_oracle(5, [u])[0, 5]), 6, 6)
        dense = grid.to_dense()
        assert dense[2, 5] == pytest.approx(1.0, abs=1e-12)
        dense[2, 5] = 0.0
        assert np.abs(dense).max() <= 1e-12

    def test_linear_function(self):
        dense = analyze(lambda t, u: t, 2, 2).to_dense()
        assert dense[1, 0] == pytest.approx(math.pi / math.sqrt(2), abs=1e-12)
        dense[1, 0] = 0.0
        assert np.abs(dense).max() <= 1e-12

    def test_evaluation_errors_propagate(self):
        def broken(t, u):
            raise RuntimeError("sensor offline")

        with pytest.raises(RuntimeError, match="sensor offline"):
            analyze(broken, 2, 2)

    @pytest.mark.parametrize("max_k, max_j, grid", [
        (4096, 0, 8193), (0, 4096, 8193), (8191, 8191, 16383), (2**20, 0, 2097153)])
    def test_sample_grid_above_the_limit_is_refused_first(self, max_k, max_j, grid):
        calls = []
        with pytest.raises(ValueError, match=rf"^a {grid} x {grid} sample grid "
                           r"exceeds the limit MAX_TABLE_ENTRIES = 67108864$"):
            analyze(lambda t, u: calls.append((t, u)) or 0.0, max_k, max_j)
        assert calls == []

    def test_linearity(self, rng):
        f = lambda t, u: t**3 - 0.5 * u**2
        g = lambda t, u: t * u + 0.25
        alpha, beta = rng.uniform(-2, 2, size=2)
        combo = analyze(lambda t, u: alpha * f(t, u) + beta * g(t, u), 5, 5)
        parts = (alpha * analyze(f, 5, 5).to_dense()
                 + beta * analyze(g, 5, 5).to_dense())
        assert np.abs(combo.to_dense() - parts).max() <= 1e-12


class TestSynthesize:
    def test_empty_grid(self):
        assert synthesize(CoeffGrid(), 0.3, -0.2) == 0.0

    def test_constant(self):
        grid = CoeffGrid([((0, 0), math.pi)])
        assert synthesize(grid, 0.4, -0.9) == pytest.approx(1.0, abs=1e-14)

    def test_linear_round_trip(self, rng):
        grid = CoeffGrid([((1, 0), math.pi / math.sqrt(2))])
        for _ in range(5):
            t, u = rng.uniform(-1, 1, size=2)
            assert synthesize(grid, t, u) == pytest.approx(t, abs=1e-14)

    def test_domain_error(self):
        grid = CoeffGrid([((1, 1), 1.0)])
        for t, tau in ((1.5, 0.0), (0.0, -1.0 - 1e-12), (math.nan, 0.0)):
            with pytest.raises(ValueError, match="lies outside"):
                synthesize(grid, t, tau)
        assert synthesize(grid, 1.0 + 5e-15, 1.0) == synthesize(grid, 1.0, 1.0)

    def test_matches_per_entry_formula(self, rng):
        # the oracle's three-term recurrence rounds differently from the
        # cosine form, so the per-entry sum agrees to roundoff of the terms,
        # not bit for bit
        grid = random_grid(rng, 17, 17, fill=0.7)
        points = [*rng.uniform(-1, 1, size=(40, 2)), (1.0, -1.0), (0.0, 1.0)]
        for t, u in points:
            at_t, at_u = orthonormal_oracle(17, [t])[0], orthonormal_oracle(17, [u])[0]
            ks, js = np.nonzero(grid.to_dense())
            terms = [value * at_t[k] * at_u[j]
                     for k, j, value in zip(ks, js, grid.to_dense()[ks, js])]
            scale = math.fsum(abs(term) for term in terms)
            assert abs(synthesize(grid, t, u) - math.fsum(terms)) <= 1e-14 * scale

    def test_full_round_trip(self, rng):
        grid = random_grid(rng, 16, 16)
        back = analyze(lambda t, u: synthesize(grid, t, u), 16, 16)
        assert np.abs(back.to_dense() - grid.to_dense()).max() <= 1e-11

    def test_parseval_consistency(self, rng):
        for _ in range(5):
            grid = random_grid(rng, 12, 9, fill=0.5)
            quad = lq_omega_norm(grid, 2.0)
            assert quad == pytest.approx(l2_omega_norm(grid), rel=1e-10)


class TestGridSynthesize:
    def test_empty(self):
        values = grid_synthesize(CoeffGrid(), [0.1, 0.5], [-0.3])
        assert values.shape == (2, 1)
        assert np.all(values == 0.0)
        assert grid_synthesize(CoeffGrid(), [], [-0.3]).shape == (0, 1)

    def test_value_grid_above_the_limit_is_refused_first(self, monkeypatch):
        def basis_matrix(degree, points):
            raise AssertionError("a basis matrix was built")

        nodes = cosine_grid(8193)
        monkeypatch.setattr(transform, "basis_matrix", basis_matrix)
        with pytest.raises(ValueError, match="^a 8193 x 8193 value grid exceeds "
                           "the limit MAX_TABLE_ENTRIES = 67108864$"):
            grid_synthesize(CoeffGrid([((0, 0), 1.0)]), nodes, nodes)

    def test_constant_surface(self):
        grid = CoeffGrid([((0, 0), math.pi)])
        values = grid_synthesize(grid, np.linspace(-1, 1, 7), np.linspace(-1, 1, 5))
        assert np.allclose(values, 1.0, atol=1e-14)

    def test_matches_pointwise(self, rng):
        for _ in range(10):
            grid = random_grid(rng, 8, 8, fill=0.6)
            ts = rng.uniform(-1, 1, size=6)
            taus = rng.uniform(-1, 1, size=4)
            values = grid_synthesize(grid, ts, taus)
            for i, t in enumerate(ts):
                for m, u in enumerate(taus):
                    assert values[i, m] == pytest.approx(
                        synthesize(grid, t, u), abs=1e-12)

    def test_degree_512_against_mpmath_at_cosine_nodes(self, rng):
        # the worst deviation from mpmath on the rng fixture's 513 x 3 table,
        # relative to the largest exact value, measured with numpy 2.4 on an
        # AVX-512 machine; the test allows twice that
        measured = 4.8e-14
        values = rng.uniform(-1.0, 1.0, size=(513, 3))
        ts, taus = cosine_grid(257), np.array([-0.83, 0.1, 0.6])
        with mpmath.workdps(30):
            def chebyshev(x, degree):
                # classical T_0..T_degree at the float64 point x itself, by
                # the three-term recurrence: the error is grid_synthesize's
                x = mpmath.mpf(x)
                row, twice = [mpmath.mpf(1), x], 2 * x
                for _ in range(degree - 1):
                    row.append(twice * row[-1] - row[-2])
                return row

            scale = [1 / mpmath.sqrt(mpmath.pi)] + [mpmath.sqrt(2 / mpmath.pi)] * 512
            columns = [[s * mpmath.mpf(v) for s, v in zip(scale, column)]
                       for column in values.T.tolist()]
            rows_tau = [[s * v for s, v in zip(scale, chebyshev(u, 2))]
                        for u in taus.tolist()]
            exact = []
            for t in ts.tolist():
                row_t = chebyshev(t, 512)
                sums = [mpmath.fdot(column, row_t) for column in columns]
                exact.append([float(mpmath.fdot(sums, row)) for row in rows_tau])
        exact = np.array(exact)
        got = grid_synthesize(CoeffGrid.from_dense(values), ts, taus)
        assert np.abs(got - exact).max() <= 2 * measured * np.abs(exact).max()


# White space the README allows around a field, and in a blank line.
_SPACE = st.text(st.sampled_from(" \t\v\f\u00a0\u2003"), max_size=2)
_SIGN_AND_ZEROS = st.sampled_from(["", "+", "0", "+00"])
_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map("{:+.6E}".format),
    st.integers(-10**6, 10**6).map(str),
    st.builds("{}e{}".format, st.integers(-999, 999), st.integers(-330, 300)),
    st.sampled_from(["1.", ".5", "-.25", "+2.", "-0"]))
# A token that is neither an integer nor a number; some that are a number
# but not an integer.
_BAD_TOKEN = st.sampled_from(["x", "", "1_0", "0x1", "1.2.3", "\u0661",
                              "\uff11", "infinity", "--1", "1e", ".", "+",
                              "1 2", "# 1"])
_NOT_INTEGER = st.sampled_from(["3.0", "1e2", "2.", ".5"])
# Half the files have no fault.
_FAULT = st.one_of(st.none(), st.sampled_from([
    "field-count", "bad-token", "negative-index", "non-finite",
    "repeated-pair", "bad-header", "bad-byte"]))


@st.composite
def near_valid_csv(draw):
    """Bytes of a CSV coefficient file: entries written with quoting,
    padding, signs, exponents, blank lines and LF or CRLF endings, then at
    most one fault."""
    def field(token):
        text = draw(_SPACE) + token + draw(_SPACE)
        return f'"{text}"' if draw(st.booleans()) else text

    fault = draw(_FAULT)
    pairs = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                          unique=True, min_size=fault is not None, max_size=8))
    tokens = [[draw(_SIGN_AND_ZEROS) + str(k), draw(_SIGN_AND_ZEROS) + str(j),
               draw(_VALUE)] for k, j in pairs]
    at = draw(st.integers(0, len(tokens) - 1)) if tokens else 0
    if fault == "field-count":
        tokens[at] = tokens[at][:2] if draw(st.booleans()) else tokens[at] + ["1"]
    elif fault == "bad-token":
        column = draw(st.integers(0, 2))
        tokens[at][column] = draw(
            _BAD_TOKEN if column == 2 else st.one_of(_BAD_TOKEN, _NOT_INTEGER))
    elif fault == "negative-index":
        tokens[at][draw(st.integers(0, 1))] = f"-{draw(st.integers(1, 6))}"
    elif fault == "non-finite":
        tokens[at][2] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN",
                                              "1e400"]))
    elif fault == "repeated-pair":
        later = draw(st.integers(at + 1, len(tokens)))
        tokens.insert(later, tokens[at][:2] + [draw(_VALUE)])
    lines = [",".join(map(field, row)) for row in tokens]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_SPACE))
    header = ["k", "j", "coeff"]
    if fault == "bad-header":
        header = draw(st.sampled_from([["k", "j"], ["k", "j", "coef"],
                                       ["j", "k", "coeff"]]))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(
        [",".join(map(field, header))] + lines)
    if lines and draw(st.booleans()):
        text += "\n"
    data = text.encode()
    if fault == "bad-byte":
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


# JSON numbers a coefficient may be: floats, small integers, integers past
# int64, and integers just below the least one that rounds past the float
# range, 2**1024 - 2**970.
_FLOAT_CEILING = 2 ** 1024 - 2 ** 970
_JSON_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6),
    st.integers(2**63, 2**80).map(lambda v: -v if v % 2 else v),
    st.integers(1, 2**60).map(lambda d: _FLOAT_CEILING - d),
    st.sampled_from([-0.0, 5e-324, 1e22, -2.5e-7]))
# What may stand where the README asks for an integer or a number.
_JSON_NOT_INTEGER = st.sampled_from([1.0, 2.5, -0.0, True, False, "3", None,
                                     [1], [], [1, 2, 3], {"k": 1}])
_JSON_NOT_NUMBER = st.sampled_from([True, False, "3.5", None, [2.0], [], {}])
# About one document in six has no fault.
_JSON_FAULT = st.sampled_from([None] * 4 + [
    "index-type", "value-type", "index-past-int64", "value-too-large",
    "non-finite", "negative-index", "out-of-bounds", "repeated-pair",
    "arity", "entry-not-a-list", "entry-of-lists", "bound-type",
    "negative-bound", "table-too-large", "missing-field", "unknown-key",
    "entries-type", "repeated-key", "syntax", "bad-byte"])


@st.composite
def near_valid_json(draw):
    """Bytes of a JSON coefficient file with at most one fault."""
    fault = draw(_JSON_FAULT)
    bounds = [draw(st.integers(0, 6)), draw(st.integers(0, 6))]
    pairs = draw(st.lists(st.tuples(st.integers(0, bounds[0]),
                                    st.integers(0, bounds[1])),
                          unique=True, min_size=1, max_size=8))
    entries = [[k, j, draw(_JSON_VALUE)] for k, j in pairs]
    at = draw(st.integers(0, len(entries) - 1))
    column = draw(st.integers(0, 1))
    if fault == "index-type":
        entries[at][column] = draw(_JSON_NOT_INTEGER)
    elif fault == "value-type":
        entries[at][2] = draw(_JSON_NOT_NUMBER)
    elif fault == "index-past-int64":
        entries[at][column] = draw(st.sampled_from([2**63, 10**30, -2**63 - 1,
                                                    -2**64]))
    elif fault == "value-too-large":
        entries[at][2] = draw(st.sampled_from([1, -1])) * (
            _FLOAT_CEILING + draw(st.integers(0, 2**60)))
    elif fault == "non-finite":
        entries[at][2] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif fault == "negative-index":
        entries[at][column] = -draw(st.integers(1, 6))
    elif fault == "out-of-bounds":
        entries[at][column] = bounds[column] + draw(st.integers(1, 3))
    elif fault == "repeated-pair":
        later = draw(st.integers(at + 1, len(entries)))
        entries.insert(later, entries[at][:2] + [draw(_JSON_VALUE)])
    elif fault == "arity":
        entries[at] = draw(st.sampled_from([[], entries[at][:1],
                                            entries[at][:2], entries[at] + [1]]))
    elif fault == "entry-not-a-list":
        entries[at] = draw(st.sampled_from([1, "abc", None, {"k": 0}]))
    elif fault == "entry-of-lists":
        entries[at] = [[value] for value in entries[at]]
    elif fault == "bound-type":
        bounds[column] = draw(_JSON_NOT_INTEGER)
    elif fault == "negative-bound":
        bounds[column] = -draw(st.integers(1, 3))
    elif fault == "table-too-large":
        bounds[column] = draw(st.sampled_from([2**26, 2**63, 10**30]))
    doc = {"max_k": bounds[0], "max_j": bounds[1], "entries": entries}
    if fault == "missing-field":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "unknown-key":
        doc[draw(st.sampled_from(["entires", "MAX_K", "", "values"]))] = (
            draw(st.sampled_from([[[0, 0, 1]], 0, None])))
    elif fault == "entries-type":
        doc["entries"] = draw(st.sampled_from([{"0": 1}, 3, None, "[]"]))
    text = json.dumps(doc)
    if fault == "repeated-key":
        key = draw(st.sampled_from(sorted(doc)))
        text = text.replace("{", f'{{"{key}": {json.dumps(doc[key])}, ', 1)
    elif fault == "syntax":
        text = text[:draw(st.integers(0, len(text) - 1))]
    data = text.encode()
    if fault == "bad-byte":
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


class TestFileFormats:
    def test_csv_round_trip(self, rng, tmp_path):
        grid = random_grid(rng, 9, 7, fill=0.3)
        path = tmp_path / "coeffs.csv"
        write_coeff_csv(grid, path)
        assert read_coeff_csv(path) == grid
        assert path.read_text().splitlines()[0] == "k,j,coeff"

    def test_json_round_trip(self, rng, tmp_path):
        grid = random_grid(rng, 5, 11, fill=0.4)
        path = tmp_path / "coeffs.json"
        write_coeff_json(grid, path)
        assert read_coeff_json(path) == grid
        assert read_coeff_file(path) == grid

    @settings(deadline=None, database=None)
    @given(data=st.data(), rows=st.integers(1, 12), cols=st.integers(1, 12))
    def test_round_trips_are_exact(self, tmp_path_factory, data, rows, cols):
        # zeros half the time; otherwise any finite value, 5e-324 to 1e308
        finite = st.floats(-1e308, 1e308)
        values = np.array(data.draw(st.lists(
            st.one_of(st.just(0.0), finite),
            min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
        path = tmp_path_factory.mktemp("round-trip") / "coeffs"
        grid = CoeffGrid.from_dense(values)
        write_coeff_json(grid, path)
        assert read_coeff_json(path) == grid
        # a CSV file keeps no bounds: its reader takes the largest indices
        nonzero = finite.filter(bool)
        values[-1, data.draw(st.integers(0, cols - 1))] = data.draw(nonzero)
        values[data.draw(st.integers(0, rows - 1)), -1] = data.draw(nonzero)
        grid = CoeffGrid.from_dense(values)
        write_coeff_csv(grid, path)
        assert read_coeff_csv(path) == grid

    # The CSV reader's contract: each input is accepted as the given entries
    # (bounds inferred from the largest indices) or rejected with a
    # CoeffFileError naming the given line.
    @pytest.mark.parametrize("text, expected", [
        pytest.param('k,j,coeff\n"0","2","2.5"\n', {(0, 2): 2.5}, id="quoted"),
        pytest.param('"k","j","coeff"\n0,2,2.5\n', {(0, 2): 2.5},
                     id="quoted-header"),
        pytest.param("k , j, coeff \n 1 ,0 , -3.5 \n", {(1, 0): -3.5},
                     id="padded"),
        pytest.param("k,j,coeff\n\t1, 2, 3.0\n", {(1, 2): 3.0},
                     id="tab-padded"),
        pytest.param("k,j,coeff\n\u00a01,\u20032,\v3.0\u00a0\n",
                     {(1, 2): 3.0}, id="unicode-space-padded"),
        pytest.param("k,j,coeff\r\n0,1,1.5\r\n2,0,-1\r\n",
                     {(0, 1): 1.5, (2, 0): -1.0}, id="crlf"),
        pytest.param("k,j,coeff\n+1,0,1e-3\n", {(1, 0): 1e-3},
                     id="plus-index-exponent-value"),
        pytest.param("k,j,coeff\n0,0,1\n\n  \t\n1,1,2\n",
                     {(0, 0): 1.0, (1, 1): 2.0}, id="blank-lines-skipped"),
        pytest.param("k,j,coeff\n0,0,1", {(0, 0): 1.0}, id="no-final-newline"),
        pytest.param("k,j,coeff\n", {}, id="header-only"),
        pytest.param("k,j,coeff", {}, id="header-only-no-newline"),
        pytest.param("k,j,coeff\n\n\n", {}, id="header-and-blank-lines"),
        pytest.param("", {}, id="empty-file"),
        pytest.param("k,j,coeff\n0,0,1.0\n3,oops,2.0\n", 3, id="bad-index"),
        pytest.param("k,j,coeff\n0,0,1\n\n3,oops,2\n", 4, id="blank-then-bad"),
        pytest.param("k,j,coeff\n0,0,1\n \n0,1,nan\n", 4,
                     id="space-line-then-nan"),
        pytest.param("k,j,coeff\n0,0,1\n0,1\n", 3, id="two-fields"),
        pytest.param("k,j,coeff\n0,1,2,3\n", 2, id="four-fields"),
        pytest.param("k,j,coeff\n0,0,1,\n", 2, id="trailing-comma"),
        pytest.param("k,j,coeff\n0,,1\n", 2, id="empty-field"),
        pytest.param('k,j,coeff\n0, "1",2\n', 2, id="space-before-quote"),
        pytest.param("k,j,coeff\n# note\n0,0,1\n", 2, id="comment-line"),
        pytest.param("k,j,coeff\n0,0,1\n3.0,0,1\n", 3, id="float-index"),
        pytest.param("k,j,coeff\n-1,0,1\n", 2, id="negative-index"),
        pytest.param("k,j,coeff\n0,0,nan\n", 2, id="nan-value"),
        pytest.param("k,j,coeff\n0,0,inf\n", 2, id="inf-value"),
        pytest.param("k,j,coeff\n0,0,1e400\n", 2, id="overflowing-value"),
        pytest.param("0,0,1.0\n", 1, id="missing-header"),
        pytest.param("k,j,coef\n0,0,1\n", 1, id="misspelled-header"),
        pytest.param("\nk,j,coeff\n0,0,1\n", 1, id="blank-first-line"),
    ])
    def test_csv_reader_contract(self, tmp_path, text, expected):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, dict):
                assert read_coeff_csv(path) == CoeffGrid(expected)
                return
            with pytest.raises(CoeffFileError) as info:
                read_coeff_csv(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        assert [int(n) for n in re.findall(r"\bline (\d+)", message)] == [expected]

    def test_written_bytes(self, tmp_path, capsys):
        grid = CoeffGrid({(0, 0): 1.0, (0, 2): -0.1, (1, 1): 1 / 3,
                          (2, 0): 5e-324, (2, 2): 1e22, (3, 1): -2.5e-7}, 3, 2)
        write_coeff_csv(grid, tmp_path / "g.csv")
        assert (tmp_path / "g.csv").read_bytes() == (
            b"k,j,coeff\r\n0,0,1\r\n0,2,-0.10000000000000001\r\n"
            b"1,1,0.33333333333333331\r\n2,0,4.9406564584124654e-324\r\n"
            b"2,2,1e+22\r\n3,1,-2.4999999999999999e-07\r\n")
        write_coeff_json(grid, tmp_path / "g.json")
        assert (tmp_path / "g.json").read_bytes() == (
            b'{"max_k": 3, "max_j": 2, "entries": [[0, 0, 1.0], [0, 2, -0.1], '
            b'[1, 1, 0.3333333333333333], [2, 0, 5e-324], [2, 2, 1e+22], '
            b'[3, 1, -2.5e-07]]}\n')
        out = tmp_path / "d.csv"
        assert main(["differentiate", "--input", str(tmp_path / "g.csv"),
                     "--n", "3", "--gamma", "1.0", "--r", "1",
                     "--output", str(out), "--eval-grid", "3"]) == 0
        assert capsys.readouterr() == (
            f"wrote 3 derivative coefficients to {out}\n"
            f"wrote 3x3 point values to {out}.values.csv\n", "")
        assert out.read_bytes() == (
            b"k,j,coeff\r\n0,1,0.47140346013085982\r\n"
            b"1,0,1.9762625833649862e-323\r\n2,1,-1.5e-06\r\n")
        assert (tmp_path / "d.csv.values.csv").read_bytes() == (
            b"t,tau,value\r\n1,1,0.21220515839470594\r\n"
            b"1,6.123233995736766e-17,1.2993818399531685e-17\r\n"
            b"1,-1,-0.21220515839470594\r\n"
            b"6.123233995736766e-17,1,0.212207068254023\r\n"
            b"6.123233995736766e-17,6.123233995736766e-17,"
            b"1.2993935344686659e-17\r\n"
            b"6.123233995736766e-17,-1,-0.212207068254023\r\n"
            b"-1,1,0.21220515839470594\r\n"
            b"-1,6.123233995736766e-17,1.2993818399531685e-17\r\n"
            b"-1,-1,-0.21220515839470594\r\n")

    def test_value_table_bytes_match_the_generic_writer(self, tmp_path, rng):
        specials = [-0.0, 5e-324, 1e22, -2.5e-7]
        for rows in range(2, 66):
            for ts, taus in ((cosine_grid(rows), cosine_grid(rows)),
                             (cosine_grid(rows), rng.uniform(-1, 1, 69 - rows))):
                values = rng.normal(size=(ts.size, taus.size))
                values.flat[rng.choice(values.size, 4, replace=False)] = specials
                write_value_table(tmp_path / "fast.csv", ts, taus, values)
                write_csv_table(tmp_path / "generic.csv", "t,tau,value",
                                "%.17g,%.17g,%.17g", np.repeat(ts, taus.size),
                                np.tile(taus, ts.size), values.ravel())
                assert ((tmp_path / "fast.csv").read_bytes()
                        == (tmp_path / "generic.csv").read_bytes())

    @pytest.mark.parametrize("text, line", [
        ("k,j,coeff\n0,0,0\n0,0,1.5\n", 3),
        ("k,j,coeff\n0,0,2\n\n1,1,1\n0,0,0\n", 5),
    ], ids=["zero-first", "after-blank-line"])
    def test_csv_rejects_every_duplicate_pair(self, tmp_path, text, line):
        path = tmp_path / "dup.csv"
        path.write_text(text)
        with pytest.raises(CoeffFileError,
                           match=rf"line {line}: duplicate index pair \(0, 0\)"):
            read_coeff_csv(path)

    @pytest.mark.parametrize("row, bad", [
        (50_000, "0,1"), (50_001, "0,1,2,3"), (120_000, "x,0,1")])
    def test_csv_refusal_past_the_first_parser_chunk(self, tmp_path, row, bad):
        # the parser takes 50 000 rows at a time; one blank line after the
        # header puts data row i on file line i + 3
        lines = [f"{i},{i % 7},0.5" for i in range(200_000)]
        lines[row] = bad
        path = tmp_path / "big.csv"
        path.write_text("k,j,coeff\n\n" + "\n".join(lines) + "\n")
        with pytest.raises(CoeffFileError) as info:
            read_coeff_csv(path)
        assert re.findall(r"\bline (\d+)", str(info.value)) == [str(row + 3)]

    def test_csv_decode_error_names_the_file_offset(self, tmp_path):
        # a bad byte past the reader's first 8 KB block, and a line that
        # breaks the format before it: the byte is reported, at its offset
        data = bytearray(b"k,j,coeff\n0,1\n" + b"".join(
            b"%d,0,1.5\n" % i for i in range(1, 30_000)))
        data[228_905] = 0xFF
        path = tmp_path / "bad.csv"
        path.write_bytes(bytes(data))
        with pytest.raises(CoeffFileError, match=(
                r"^[^:]*bad.csv: 'utf-8' codec can't decode byte 0xff in "
                r"position 228905: invalid start byte$")):
            read_coeff_csv(path)

    @settings(deadline=None, database=None, max_examples=200)
    @given(data=st.data())
    def test_csv_reader_agrees_with_reference(self, tmp_path_factory, data):
        raw = data.draw(near_valid_csv())
        path = tmp_path_factory.mktemp("reference") / "in.csv"
        path.write_bytes(raw)
        try:
            table = reference.read_csv(raw)
        except reference.Refused as refused:
            with pytest.raises(CoeffFileError) as info:
                read_coeff_csv(path)
            named = [int(n) for n in re.findall(r"\bline (\d+)",
                                                 str(info.value))]
            assert named == ([] if refused.line is None else [refused.line])
        else:
            assert read_coeff_csv(path) == CoeffGrid.from_dense(table)

    @settings(deadline=None, database=None, max_examples=400)
    @given(data=st.data())
    def test_json_reader_agrees_with_reference(self, tmp_path_factory, data):
        raw = data.draw(near_valid_json())
        path = tmp_path_factory.mktemp("reference") / "in.json"
        path.write_bytes(raw)
        try:
            table = reference.read_json(raw)
        except reference.Refused as refused:
            with pytest.raises(CoeffFileError) as info:
                read_coeff_json(path)
            named = [int(i) for i in re.findall(r"\bentries\[(\d+)\]",
                                                 str(info.value))]
            assert named == ([] if refused.entry is None else [refused.entry])
        else:
            assert read_coeff_json(path) == CoeffGrid.from_dense(table)

    @pytest.mark.parametrize("doc, message", [
        ('{"max_k": 2, "max_j": 2, "entries": [[0, 0, 0], [0, 0, 1.5]]}',
         r"entries\[1\]: duplicate index pair"),
        ('{"max_k": 2, "max_j": 0, "entries": [[0, 0, 1], [1.5, 0, 2.0]]}',
         r"entries\[1\]: k and j must be integers"),
        ('{"max_k": 2, "max_j": 0, "entries": [[1.0, 0, 2.0]]}',
         r"entries\[0\]: k and j must be integers"),
        ('{"max_k": 2, "max_j": 1, "entries": [[1, true, 2.0]]}',
         r"entries\[0\]: k and j must be integers"),
        ('{"max_k": 2.7, "max_j": 0, "entries": []}', "max_k must be an integer"),
        ('{"max_k": 2, "max_j": true, "entries": []}', "max_j must be an integer"),
        ('{"max_k": 2, "max_j": 0, "entries": [[-1, 0, 1]]}',
         r"entries\[0\]: invalid index pair"),
        ('{"max_k": 2, "max_j": 0, "entries": [[3, 0, 1]]}',
         r"entries\[0\]: entry \(3, 0\) outside declared bounds"),
        ('{"max_k": 2, "max_j": 0, "entries": [[1, 0]]}', "triples"),
        ('{"max_k": 2, "max_j": 0, "entries": {"0": 1}}', "triples"),
        ('{"max_k": 2, "entries": []}', "expected an object"),
        ('{"max_k": 0, "max_j": 0, "entries": [], "entires": [[0, 0, 1]]}',
         "^[^:]*bad.json: unknown key 'entires'$"),
        ('[1, 2]', "expected an object"),
        ('{"max_k": 2,\n "max_j": }', "line 2"),
        ('{"max_k": 1, "max_k": 3, "max_j": 0, "entries": [[3, 0, 1.0]]}',
         "^[^:]*bad.json: duplicate key 'max_k'$"),
        ('{"max_k": 2, "max_j": 2, "entries": [[0, 0, 1], [1, 1, "3.5"]]}',
         r"entries\[1\]: k and j must be integers and the value a number$"),
        ('{"max_k": 2, "max_j": 2, "entries": [[1, 1, true]]}',
         r"entries\[0\]: k and j must be integers and the value a number$"),
        ('{"max_k": 2, "max_j": 2, "entries": [[1, 1, null]]}',
         r"entries\[0\]: k and j must be integers and the value a number$"),
        ('{"max_k": 2, "max_j": 2, "entries": [[1, 1, [2.0]]]}',
         r"entries\[0\]: k and j must be integers and the value a number$"),
        ('{"max_k": 2, "max_j": 2, "entries": [[0, 0, 1], [%d, 1, 2.0]]}'
         % 10**30, r"entries\[1\]: invalid index pair \(%d, 1\)$" % 10**30),
        ('{"max_k": 2, "max_j": 2, "entries": [[0, -%d, 2.0]]}' % 2**64,
         r"entries\[0\]: invalid index pair \(0, -%d\)$" % 2**64),
        ('{"max_k": 2, "max_j": 2, "entries": [[0, 0, 1.0], [1, 1, 1%s]]}'
         % ("0" * 400),
         r"entries\[1\]: coefficient at \(1, 1\) is too large for a float$"),
        # the least integer that rounds past the float range
        ('{"max_k": 2, "max_j": 2, "entries": [[2, 0, -%d]]}'
         % (2**1024 - 2**970),
         r"entries\[0\]: coefficient at \(2, 0\) is too large for a float$"),
        # the first offending entry, although a later index overflows int64
        ('{"max_k": 2, "max_j": 2, "entries": [[-1, 0, 1.0], [%d, 0, 1.0]]}'
         % 2**64, r"entries\[0\]: invalid index pair \(-1, 0\)$"),
    ], ids=["duplicate-after-zero", "fractional-index", "float-index",
            "bool-index", "fractional-bound", "bool-bound", "negative-index",
            "out-of-bounds", "pair-entry", "entries-object", "missing-field",
            "unknown-key", "not-an-object", "syntax-error", "repeated-key", "string-value",
            "bool-value", "null-value", "list-value", "oversized-index",
            "oversized-negative-index", "oversized-value",
            "least-oversized-value", "negative-before-oversized-index"])
    def test_json_reader_rejects(self, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(CoeffFileError, match=message):
            read_coeff_json(path)

    def test_json_accepts_integer_values_and_empty_entries(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text('{"max_k": 3, "max_j": 1, "entries": [[2, 1, 5]]}')
        assert read_coeff_json(path) == CoeffGrid({(2, 1): 5.0}, 3, 1)
        path.write_text('{"max_k": 3, "max_j": 1, "entries": []}')
        assert read_coeff_json(path) == CoeffGrid({}, 3, 1)
        # the largest integer that rounds into the float range is accepted
        path.write_text('{"max_k": 0, "max_j": 0, "entries": [[0, 0, %d]]}'
                        % (2**1024 - 2**970 - 1))
        assert read_coeff_json(path) == CoeffGrid({(0, 0): np.finfo(float).max})

    def test_json_read_frees_the_parse_tree_before_the_table(self, rng, tmp_path):
        # the three column arrays replace the parsed entries: the read peaks
        # where json.load does (it measured about 1.2 times that while the parse
        # tree was kept through the table's build)
        path = tmp_path / "member.json"
        write_coeff_json(random_grid(rng, 127, 127), path)

        def peak(read) -> int:
            tracemalloc.start()
            try:
                read()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def load():
            with open(path) as fh:
                json.load(fh)

        assert peak(lambda: read_coeff_json(path)) <= 1.05 * peak(load)


LONG = "x" * 100_000
HUGE = 10 ** 400


def _written(path, text):
    path.write_text(text)
    return path


def _experiment(tmp_path, text):
    """Run ``experiment`` on a configuration file holding ``text``, which
    must exit 1, and raise its standard error as a ValueError."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["experiment", "--config",
                     str(_written(tmp_path / "config.json", text)),
                     "--output", str(tmp_path / "out")]) == 1
    raise ValueError(err.getvalue())


def _differentiate_p(tmp_path, p):
    """Run ``differentiate`` with ``--p p``, and raise the last line of its
    standard error, the usage error, as a ValueError."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit):
        main(["differentiate", "--input", str(tmp_path / "in.csv"), "--r", "1",
              "--gamma", "1.5", "--delta", "1e-3", "--mu1", "3", "--mu2", "2",
              "--p", p, "--output", str(tmp_path / "out.csv")])
    raise ValueError(err.getvalue().splitlines()[-1])


@pytest.mark.parametrize("refuse, named", [
    (lambda tmp: read_coeff_json(_written(tmp / "in.json", json.dumps(
        {"max_k": 0, "max_j": 0, "entries": [], LONG: 1}))), ": unknown key 'xxx"),
    (lambda tmp: read_coeff_json(_written(tmp / "in.json", '{"%s": 1, "%s": 2}'
                                          % (LONG, LONG))), ": duplicate key 'xxx"),
    (lambda tmp: _experiment(tmp, '{"%s": 1, "%s": 2}' % (LONG, LONG)),
     ": duplicate key 'xxx"),
    (lambda tmp: parse_metric(LONG), "unknown metric 'xxx"),
    (lambda tmp: parse_metric("lqw:" + LONG), "metric 'lqw:xxx"),
    (lambda tmp: NoiseSpec(p=2.0, delta=0.1, mode=LONG), "unknown noise mode 'xxx"),
    (lambda tmp: MetricSpec(kind=LONG), "unknown metric kind 'xxx"),
    (lambda tmp: _differentiate_p(tmp, LONG),
     "argument --p: invalid float value: 'xxx"),
    (lambda tmp: CoeffGrid([((HUGE, 0), 1.0)]),
     "entry 0: invalid index pair (1000"),
    (lambda tmp: read_coeff_json(_written(tmp / "in.json",
        '{"max_k": 2, "max_j": 2, "entries": [[0, %d, 1.0]]}' % HUGE)),
     ": entries[0]: invalid index pair (0, 1000"),
    (lambda tmp: read_coeff_json(_written(tmp / "in.json",
        '{"max_k": %d, "max_j": 2, "entries": []}' % HUGE)),
     ": a 1000"),
    (lambda tmp: build_cross(5, 1.5, HUGE), "derivative order r=1000"),
], ids=["json-unknown-key", "json-duplicate-key", "config-duplicate-key",
        "metric-name", "lqw-suffix", "noise-mode", "metric-kind", "cli-p",
        "grid-index", "json-index", "json-max-k", "cross-order"])
def test_refused_value_is_shown_shortened(tmp_path, refuse, named):
    with pytest.raises(ValueError) as info:
        refuse(tmp_path)
    message = str(info.value)
    assert named in message and len(message) < 200, message


#: A call per function that takes a size, a level or an order, and the
#: argument its refusal names.
SIZED = {
    "cosine_grid": (cosine_grid, "points_per_dim"),
    "gauss_chebyshev_nodes": (gauss_chebyshev_nodes, "n_nodes"),
    "basis_matrix": (lambda m: basis_matrix(m, [0.3]), "max_degree"),
    "analyze": (lambda m: analyze(lambda t, u: t * u, m, 2), "max_k"),
    "make_class_member": (lambda m: make_class_member(
        WienerSpec(s=1.0, mu1=3.0, mu2=2.0), m, 2, 0), "max_k"),
    "CoeffGrid": (lambda m: CoeffGrid([], m, 0), "max_k"),
    "MetricSpec": (lambda m: MetricSpec("sup", eval_grid=m), "eval_grid"),
    "lq_omega_norm": (lambda m: lq_omega_norm(CoeffGrid.from_dense(np.eye(3)),
                                              4.0, m), "quad_n"),
    "sup_norm": (lambda m: sup_norm(CoeffGrid.from_dense(np.eye(3)), m),
                 "points_per_dim"),
    "nikolskii_explicit_bound": (lambda m: nikolskii_explicit_bound(2, m), "max_j"),
    "CrossIndexSet.n": (lambda m: build_cross(m, 1.5, 1).mask(5, 5), "level n"),
    "CrossIndexSet.r": (lambda m: build_cross(4, 1.5, m).mask(5, 5),
                        "derivative order r"),
    "ProblemSpec.r": (lambda m: ProblemSpec(
        r=m, wiener=WienerSpec(s=1.0, mu1=3.0, mu2=2.0), noise_p=2.0),
        "derivative order r"),
    "differentiate_coeffs": (lambda m: differentiate_coeffs(
        CoeffGrid.from_dense(np.eye(5)), m), "derivative order r"),
    "recurrence_partial_t": (lambda m: recurrence_partial_t(
        CoeffGrid.from_dense(np.eye(5)), m, [0.3], [0.2]), "derivative order r"),
}


@pytest.mark.parametrize("name", SIZED)
def test_size_must_be_integral(name):
    call, argument = SIZED[name]
    exact, integral = call(3), call(3.0)
    if isinstance(exact, CoeffGrid):
        assert integral == exact
    else:
        assert np.array_equal(integral, exact)
    for size in (3.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=argument):
            call(size)


_WIENER = WienerSpec(s=1.0, mu1=3.0, mu2=2.0)
_PROBLEM = ProblemSpec(r=1, wiener=_WIENER, noise_p=2.0)

#: A call per real parameter that has an interval, the name its refusal
#: gives and the interval as the refusal writes it.
INTERVALS = {
    "MetricSpec.q": (lambda v: MetricSpec("lqw", q=v), "q", "[2, inf)"),
    "lq_omega_norm.q": (lambda v: lq_omega_norm(CoeffGrid.from_dense(np.eye(3)), v),
                        "q", "[1, inf)"),
    "lq_coefficient_bound.q": (lambda v: lq_coefficient_bound(
        CoeffGrid.from_dense(np.eye(3)), v), "q", "[2, inf)"),
    "ProblemSpec.noise_p": (lambda v: ProblemSpec(r=1, wiener=_WIENER, noise_p=v),
                            "noise_p", "[1, inf]"),
    "ProblemSpec.level_constant": (lambda v: ProblemSpec(
        r=1, wiener=_WIENER, noise_p=2.0, level_constant=v), "level_constant", "(0, inf)"),
    "choose_n.delta": (lambda v: choose_n(v, _PROBLEM), "delta", "(0, 1)"),
    "CrossIndexSet.gamma": (lambda v: CrossIndexSet(4, v, 1), "gamma", "[1, inf)"),
    "ExperimentConfig.deltas": (lambda v: ExperimentConfig(
        problem=_PROBLEM, deltas=(v,), gamma=1.5,
        test_function=TestFunctionSpec("class-member")), "noise levels", "(0, 1)"),
    "WienerSpec.s": (lambda v: WienerSpec(s=v, mu1=3.0, mu2=2.0), "s", "[1, inf)"),
    "WienerSpec.mu1": (lambda v: WienerSpec(s=1.0, mu1=v, mu2=2.0), "mu1", "(0, inf)"),
    "WienerSpec.mu2": (lambda v: WienerSpec(s=1.0, mu1=3.0, mu2=v), "mu2", "(0, inf)"),
    "NoiseSpec.p": (lambda v: NoiseSpec(p=v, delta=0.1), "p", "[1, inf]"),
    "NoiseSpec.delta": (lambda v: NoiseSpec(p=2.0, delta=v), "delta", "[0, 1)"),
    "lp_norm.p": (lambda v: lp_norm([1.0, 2.0], v), "p", "[1, inf]"),
    "make_class_member.epsilon": (lambda v: make_class_member(_WIENER, 2, 2, 0, v),
                                  "epsilon", "(0, inf)"),
}

#: The refusal of q = inf where an Lq norm would be the uniform norm.
SUP_HINTS = {
    "MetricSpec.q": "Lq metric requires a finite q; use 'sup' for q = inf",
    "lq_omega_norm.q": "Lq norm requires a finite q; use sup_norm for q = inf",
}


@pytest.mark.parametrize("name", INTERVALS)
def test_real_parameter_interval(name):
    # a closed end is accepted and the next float beyond it refused; an
    # open end is refused, and NaN too, each with the one message form
    call, argument, interval = INTERVALS[name]
    message = f"{argument} must lie in {interval}"
    low, high = (float(end) for end in interval[1:-1].split(", "))
    for end, closed, outward in ((low, interval[0] == "[", -math.inf),
                                 (high, interval[-1] == "]", math.inf)):
        if closed:
            call(end)
            beyond = [math.nextafter(end, outward)] if math.isfinite(end) else []
        else:
            beyond = [end]
        for value in beyond:
            expected = SUP_HINTS.get(name, message) if value == math.inf else message
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                call(value)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(math.nan)
