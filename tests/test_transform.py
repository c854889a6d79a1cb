import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebdiff2d import (CoeffFileError, CoeffGrid, analyze, build_cross,
                        eval_orthonormal, grid_synthesize,
                        l2_omega_norm,
                        lq_omega_norm, read_coeff_csv, read_coeff_file,
                        read_coeff_json, run_single, synthesize,
                        write_coeff_csv, write_coeff_json)
from helpers import random_grid


class TestCoeffGrid:
    def test_absent_indices_are_zero(self):
        grid = CoeffGrid([((2, 3), 1.5)], 5, 5)
        assert grid.get(2, 3) == 1.5
        assert grid.get(0, 0) == 0.0
        assert grid.get(9, 9) == 0.0
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
            CoeffGrid.from_entries([0, 1, 0], [0, 0, 0], [1.0, 2.0, 0.0])
        with pytest.raises(ValueError, match="entry 1: invalid index pair"):
            CoeffGrid.from_entries([0, 1.5], [0, 0], [1.0, 2.0])

    def test_duplicate_error_names_first_repeat(self, rng):
        for _ in range(5):
            ks = rng.permutation(200)
            pos = np.sort(rng.choice(200, size=3, replace=False))
            ks[pos] = ks[pos[0]]
            with pytest.raises(ValueError, match=rf"^entry {pos[1]}: duplicate"):
                CoeffGrid.from_entries(ks, np.zeros(200, int), np.ones(200))

    def test_from_entries_matches_constructor(self, rng):
        values = rng.uniform(-1, 1, size=(6, 4))
        ks, js = np.nonzero(values > 0)
        expected = CoeffGrid({(k, j): values[k, j] for k, j in zip(ks, js)}, 8, 4)
        assert CoeffGrid.from_entries(ks, js, values[ks, js], 8, 4) == expected
        assert CoeffGrid.from_entries([], [], []) == CoeffGrid()

    def test_items_lexicographic(self, rng):
        grid = random_grid(rng, 6, 6, fill=0.4)
        keys = [key for key, _ in grid.items()]
        assert keys == sorted(keys)
        dense = random_grid(rng, 6, 6, fill=1.0)
        keys = [key for key, _ in dense.items()]
        assert keys == sorted(keys)

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
        for k in range(7):
            for j in range(7):
                assert total.get(k, j) == pytest.approx(a.get(k, j) + b.get(k, j))
        diff = total - b
        assert np.allclose(diff.to_dense()[:5, :7], a.to_dense(), atol=1e-15)
        doubled = 2.0 * a
        assert doubled.get(1, 1) == pytest.approx(2 * a.get(1, 1))

    def test_restrict(self):
        grid = CoeffGrid([((1, 0), 1.0), ((2, 5), 2.0), ((4, 1), 3.0)], 8, 8)
        kept = grid.restrict_to({(1, 0), (4, 1)})
        assert kept.nnz == 2
        assert kept.get(2, 5) == 0.0
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
        grid = analyze(lambda t, u: 1.0, 2, 2)
        assert grid.get(0, 0) == pytest.approx(math.pi, abs=1e-12)
        others = [abs(v) for (k, j), v in grid.items() if (k, j) != (0, 0)]
        assert max(others, default=0.0) <= 1e-12

    def test_basis_member_is_orthonormal(self):
        grid = analyze(lambda t, u: eval_orthonormal(2, t) * eval_orthonormal(5, u), 6, 6)
        assert grid.get(2, 5) == pytest.approx(1.0, abs=1e-12)
        others = [abs(v) for (k, j), v in grid.items() if (k, j) != (2, 5)]
        assert max(others, default=0.0) <= 1e-12

    def test_linear_function(self):
        grid = analyze(lambda t, u: t, 2, 2)
        assert grid.get(1, 0) == pytest.approx(math.pi / math.sqrt(2), abs=1e-12)
        others = [abs(v) for (k, j), v in grid.items() if (k, j) != (1, 0)]
        assert max(others, default=0.0) <= 1e-12

    def test_evaluation_errors_propagate(self):
        def broken(t, u):
            raise RuntimeError("sensor offline")

        with pytest.raises(RuntimeError, match="sensor offline"):
            analyze(broken, 2, 2)

    def test_linearity(self, rng):
        f = lambda t, u: t**3 - 0.5 * u**2
        g = lambda t, u: t * u + 0.25
        alpha, beta = rng.uniform(-2, 2, size=2)
        combo = analyze(lambda t, u: alpha * f(t, u) + beta * g(t, u), 5, 5)
        parts = alpha * analyze(f, 5, 5) + beta * analyze(g, 5, 5)
        assert np.abs(combo.to_dense() - parts.to_dense()).max() <= 1e-12


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
        # math.cos/math.acos round differently from np.cos/np.arccos, so the
        # per-entry sum agrees to roundoff of the terms, not bit for bit
        grid = random_grid(rng, 17, 17, fill=0.7)
        points = [*rng.uniform(-1, 1, size=(40, 2)), (1.0, -1.0), (0.0, 1.0)]
        for t, u in points:
            terms = [value * eval_orthonormal(k, t) * eval_orthonormal(j, u)
                     for (k, j), value in grid.items()]
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

    def test_written_bytes(self, tmp_path):
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
        run_single(tmp_path / "g.csv", 3, 1.0, 1, out, eval_grid=3)
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
        ('[1, 2]', "expected an object"),
        ('{"max_k": 2,\n "max_j": }', "line 2"),
    ], ids=["duplicate-after-zero", "fractional-index", "float-index",
            "bool-index", "fractional-bound", "bool-bound", "negative-index",
            "out-of-bounds", "pair-entry", "entries-object", "missing-field",
            "not-an-object", "syntax-error"])
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
