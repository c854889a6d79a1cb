import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chebdiff2d
from chebdiff2d import (NOISE_MODES, NOISE_SINGLE, NOISE_TOPWEIGHT, NOISE_UNIFORM,
                        CoeffGrid, ExperimentConfig, MetricSpec, NoiseSpec,
                        ProblemSpec, RateReport, RateRow, TestFunctionSpec,
                        TrialRecord, WienerSpec, analyze, build_cross,
                        cardinality, choose_n, config_from_dict,
                        differentiate_coeffs, evaluate_metric, fit_rate,
                        grid_synthesize, make_class_member, parse_metric,
                        perturb, read_coeff_csv, recurrence_partial_t,
                        run_convergence, synthesize,
                        theoretical_rate, truncated_derivative,
                        validate_suite,
                        write_coeff_csv, write_coeff_json)
from chebdiff2d import cli, harness, norms
from chebdiff2d.cli import main
from chebdiff2d.harness import _t_quantile_975
from helpers import random_grid

# child interpreters import the chebdiff2d this one imported, installed or not
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
    str(Path(chebdiff2d.__file__).parents[1]), os.environ.get("PYTHONPATH")))))


def small_config(**overrides):
    base = dict(
        problem=ProblemSpec(r=1, wiener=WienerSpec(s=1.0, mu1=3.0, mu2=2.0),
                            noise_p=2.0, metric=MetricSpec("l2w")),
        deltas=(1e-2, 1e-3, 1e-4),
        gamma=1.5,
        test_function=TestFunctionSpec(kind="class-member", seed=3,
                                       max_k=48, max_j=48),
        metrics=(MetricSpec("l2w"),),
        trials_per_delta=3,
        noise_mode=NOISE_UNIFORM,
        noise_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def small_doc(**fields):
    """A small valid experiment configuration document."""
    doc = {
        "problem": {"r": 1, "s": 1, "mu1": 3.0, "mu2": 2.0, "p": 2},
        "test_function": {"kind": "class-member", "max_k": 8, "max_j": 8},
        "deltas": [1e-2, 1e-3, 1e-4],
        "gamma": 1.5,
    }
    doc.update(fields)
    return doc


def every_trial_computed(config):
    """The sweep with one perturbation per trial, whatever the noise mode."""
    problem = config.problem
    true_grid = config.test_function.build(problem.wiener)
    reference = differentiate_coeffs(true_grid, problem.r)
    trials = []
    for delta in config.deltas:
        n = choose_n(delta, problem)
        cross = build_cross(n, config.gamma, problem.r)
        for trial in range(config.trials_per_delta):
            noise = NoiseSpec(p=problem.noise_p, delta=delta,
                              mode=config.noise_mode,
                              seed=config.noise_seed + trial)
            approx = truncated_derivative(perturb(true_grid, noise, cross), n,
                                          config.gamma, problem.r)
            for metric in config.metrics:
                trials.append(TrialRecord(delta, trial, metric.label, n, config.gamma,
                                          len(cross),
                                          evaluate_metric(approx - reference, metric)))
    return tuple(trials), reports_of(config, trials)


def reports_of(config, trials):
    """The rate reports that :func:`run_convergence` fits to ``trials``."""
    reports = {}
    for metric in config.metrics:
        rows = []
        for delta in config.deltas:
            level = [t for t in trials if t.metric == metric.label and t.delta == delta]
            errors = [t.error for t in level]
            rows.append(RateRow(delta, float(np.mean(errors)), float(np.std(errors)),
                                level[0].n, level[0].cardinality))
        fit = fit_rate([(row.delta, row.mean_error) for row in rows])
        reports[metric.label] = RateReport(
            metric.label, tuple(rows), fit.slope, fit.intercept,
            (fit.ci_low, fit.ci_high),
            theoretical_rate(replace(config.problem, metric=metric)))
    return reports


def assert_matches_every_trial_computed(config, result):
    """``result`` against :func:`every_trial_computed`: ``l2w``, ``n`` and the
    cardinality ``==``, and the reports ``==`` the fit of the sweep's own
    trials.  The sweep takes a ``sup`` or ``lqw`` error as values(approx) -
    values(reference), so it may move by 64 eps times the reference's
    largest absolute value (``sup``) or norm (``lqw``), plus the rounding
    of the error itself: where the error is far above the reference, no
    evaluation but the box-sized product keeps its last bits."""
    trials, reports = every_trial_computed(config)
    reference = differentiate_coeffs(config.test_function.build(config.problem.wiener),
                                     config.problem.r)
    scale = {m.label: evaluate_metric(reference, m) for m in config.metrics}
    assert len(result.trials) == len(trials)
    for got, want in zip(result.trials, trials):
        assert replace(got, error=0.0) == replace(want, error=0.0)
        if got.metric == "l2w":
            assert got.error == want.error
        else:
            assert abs(got.error - want.error) <= (64 * np.finfo(float).eps * scale[got.metric]
                                                   + 16 * np.spacing(want.error))
    assert result.reports == reports_of(config, result.trials)
    assert result.reports.get("l2w") == reports.get("l2w")


def three_metric_config(mode):
    return small_config(
        test_function=TestFunctionSpec(kind="class-member", seed=3,
                                       max_k=32, max_j=32),
        metrics=tuple(parse_metric(m) for m in ("l2w", "sup", "lqw:4")),
        noise_mode=mode)


#: ``experiment`` outputs for GOLDEN_CONFIG, pinned byte for byte.
GOLDEN_CONFIG = {
    "problem": {"r": 1, "s": 1, "mu1": 3.0, "mu2": 2.0, "p": 2},
    "noise": {"mode": "uniform-random", "seed": 5},
    "test_function": {"kind": "class-member", "seed": 2,
                      "max_k": 16, "max_j": 16},
    "deltas": [1e-2, 1e-3, 1e-4],
    "trials_per_delta": 2,
    "gamma": 1.5,
    "metrics": ["l2w", "sup", "lqw:4"],
}
GOLDEN_REPORT = {
    "l2w": {"metric": "l2w", "rows": [
        {"delta": 0.01, "mean_error": 0.05988288464738564,
         "std_error": 0.015201587484260624, "n_used": 4,
         "cardinality": 9},
        {"delta": 0.001, "mean_error": 0.013445217464330906,
         "std_error": 0.004219266688629539, "n_used": 7,
         "cardinality": 17},
        {"delta": 0.0001, "mean_error": 0.003045070647738155,
         "std_error": 0.0011398223876734727, "n_used": 14,
         "cardinality": 36},
    ], "fitted_slope": 0.6468526698836081,
        "intercept": 0.16205743222005786,
        "slope_ci": [0.6330448933284507, 0.6606604464387655],
        "theoretical_slope": 0.42857142857142855},
    "sup": {"metric": "sup", "rows": [
        {"delta": 0.01, "mean_error": 0.07834306843700721,
         "std_error": 0.022146957484873234, "n_used": 4,
         "cardinality": 9},
        {"delta": 0.001, "mean_error": 0.016941340460319088,
         "std_error": 0.00744040397438129, "n_used": 7,
         "cardinality": 17},
        {"delta": 0.0001, "mean_error": 0.007625078208400447,
         "std_error": 0.00425865897167446, "n_used": 14,
         "cardinality": 36},
    ], "fitted_slope": 0.5058781374641637,
        "intercept": -0.33917394074708396,
        "slope_ci": [-0.6618162121568931, 1.6735724870852204],
        "theoretical_slope": 0.2857142857142857},
    "lqw:4": {"metric": "lqw:4", "rows": [
        {"delta": 0.01, "mean_error": 0.056584283265614425,
         "std_error": 0.0160083541076425, "n_used": 4,
         "cardinality": 9},
        {"delta": 0.001, "mean_error": 0.01226315262788269,
         "std_error": 0.004962703686667526, "n_used": 7,
         "cardinality": 17},
        {"delta": 0.0001, "mean_error": 0.0038353318604404064,
         "std_error": 0.00200345873526718, "n_used": 14,
         "cardinality": 36},
    ], "fitted_slope": 0.5844464355037327,
        "intercept": -0.24168023668803418,
        "slope_ci": [0.0001597260513180876, 1.168733144956147],
        "theoretical_slope": 0.35714285714285715},
}
GOLDEN_TRIALS = (
    b"delta,trial,metric,n,gamma,cardinality,error\r\n"
    b"0.01,0,l2w,4,1.5,9,0.075084472131646263\r\n"
    b"0.01,0,sup,4,1.5,9,0.10049002592188044\r\n"
    b"0.01,0,lqw:4,4,1.5,9,0.072592637373256927\r\n"
    b"0.01,1,l2w,4,1.5,9,0.044681297163125015\r\n"
    b"0.01,1,sup,4,1.5,9,0.056196110952133976\r\n"
    b"0.01,1,lqw:4,4,1.5,9,0.040575929157971924\r\n"
    b"0.001,0,l2w,7,1.5,17,0.017664484152960444\r\n"
    b"0.001,0,sup,7,1.5,17,0.024381744434700377\r\n"
    b"0.001,0,lqw:4,7,1.5,17,0.017225856314550217\r\n"
    b"0.001,1,l2w,7,1.5,17,0.0092259507757013661\r\n"
    b"0.001,1,sup,7,1.5,17,0.0095009364859377967\r\n"
    b"0.001,1,lqw:4,7,1.5,17,0.0073004489412151641\r\n"
    b"0.0001,0,l2w,14,1.5,36,0.0019052482600646823\r\n"
    b"0.0001,0,sup,14,1.5,36,0.0033664192367259859\r\n"
    b"0.0001,0,lqw:4,14,1.5,36,0.0018318731251732261\r\n"
    b"0.0001,1,l2w,14,1.5,36,0.0041848930354116279\r\n"
    b"0.0001,1,sup,14,1.5,36,0.011883737180074906\r\n"
    b"0.0001,1,lqw:4,14,1.5,36,0.0058387905957075865\r\n"
)

class TestFitRate:
    def test_exact_power_law(self):
        c = 0.37
        points = [(d, c * d**0.5) for d in (0.1, 0.01, 0.001)]
        fit = fit_rate(points)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(c), abs=1e-12)
        assert fit.ci_low == pytest.approx(fit.ci_high, abs=1e-9)

    def test_constant_errors(self):
        fit = fit_rate([(0.1, 2.0), (0.01, 2.0), (0.001, 2.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_rate([(0.1, 1.0), (0.01, 0.5)])

    def test_one_noise_level_rejected(self):
        # a zero spread of log(delta) would divide by zero
        with pytest.raises(ValueError, match="^rate fitting needs at least 2 "
                                             "distinct noise levels$"):
            fit_rate([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([(0.1, 1.0), (0.01, 0.0), (0.001, 0.1)])

    @pytest.mark.parametrize("points", [
        [(math.inf, 1.0), (0.1, 2.0), (0.01, 3.0)],
        [(math.nan, 1.0), (0.1, 2.0), (0.01, 3.0)],
        [(0.1, math.nan), (0.01, 2.0), (0.001, 3.0)],
        [(0.1, 1.0), (0.01, math.inf), (0.001, 3.0)],
    ], ids=["delta-inf", "delta-nan", "error-nan", "error-inf"])
    def test_non_finite_rejected(self, points):
        # each would give a fit of nan slope and interval
        with pytest.raises(ValueError, match="^rate fitting needs finite positive "
                                             "noise levels and errors$"):
            fit_rate(points)

    def test_noisy_power_law_within_ci(self, rng):
        slope_true = 0.7
        deltas = np.logspace(-1, -6, 12)
        noise = rng.uniform(1.0, 1.1, size=deltas.size)  # multiplicative <= 1.1
        points = list(zip(deltas, 2.0 * deltas**slope_true * noise))
        fit = fit_rate(points)
        assert fit.ci_low <= slope_true <= fit.ci_high

    def test_import_leaves_out_scipy_stats(self):
        # scipy.stats alone takes most of a second to import; the package
        # imports no scipy module at all
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys, chebdiff2d; print(json.dumps("
             "[m for m in sys.modules if m.split('.')[0] == 'scipy']))"],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_scipy_loads_only_to_fit_rates(self, tmp_path):
        # fit_rate was the last user of scipy (scipy.special, for the
        # Student-t quantile) and now computes it itself: differentiate,
        # validate, a rate fit and an experiment load no scipy module
        src = tmp_path / "in.csv"
        write_coeff_csv(analyze(lambda t, u: t**2 * u, 4, 4), src)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(GOLDEN_CONFIG))
        child = """if True:
            import contextlib, io, json, sys
            def scipy_modules():
                return [m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy.")]
            import chebdiff2d
            from chebdiff2d import cli
            loaded = [scipy_modules()]
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(["validate", "--json"]),
                         cli.main(["differentiate", "--input", sys.argv[1],
                                   "--r", "1", "--n", "4", "--gamma", "1.0",
                                   "--output", sys.argv[2]])]
                loaded.append(scipy_modules())
                chebdiff2d.fit_rate([(1e-1, 1.0), (1e-2, 0.2), (1e-3, 0.03)])
                codes.append(cli.main(["experiment", "--config", sys.argv[3],
                                       "--output", sys.argv[4]]))
            loaded.append(scipy_modules())
            print(json.dumps([codes, loaded]))
            """
        proc = subprocess.run(
            [sys.executable, "-c", child, str(src), str(tmp_path / "out.csv"),
             str(config), str(tmp_path / "experiment")],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, 0, 0], [[], [], []]]

    def test_t_quantile_is_correctly_rounded(self):
        # the root of I_x(nu/2, 1/2) / 2 = 0.025, x = nu / (nu + t^2), that
        # is P(T > t) = 0.025, in 50-digit mpmath
        half = mpmath.mpf(1) / 2
        with mpmath.workdps(50):
            for nu in [*range(1, 61), 100, 1000]:
                got = _t_quantile_975(nu)
                root = mpmath.findroot(
                    lambda t: mpmath.betainc(nu * half, half, 0,
                                             nu / (nu + t * t),
                                             regularized=True) / 2
                    - mpmath.mpf("0.025"), mpmath.mpf(got))
                assert got == float(root), nu

    def test_t_quantile_two_degrees_of_freedom(self):
        # nu = 2: P(|T| <= t) = t / sqrt(2 + t^2) = 0.95 at t^2 = 722/39.
        # t lies in [4, 8), where the float spacing is 2^-50: m is the
        # floor of t 2^50, and t rounds up when (m + 1/2)^2 < t^2 2^100.
        m = math.isqrt(722 * 2**100 // 39)
        m += (2 * m + 1) ** 2 * 39 < 4 * 722 * 2**100
        assert _t_quantile_975(2) == math.ldexp(m, -50)


class TestRunConvergence:
    def test_report_structure_and_determinism(self):
        config = small_config()
        first = run_convergence(config)
        second = run_convergence(config)
        assert first.reports["l2w"] == second.reports["l2w"]
        assert first.trials == second.trials
        report = first.reports["l2w"]
        assert [row.delta for row in report.rows] == [1e-2, 1e-3, 1e-4]
        for row in report.rows:
            assert row.n_used == choose_n(row.delta, config.problem)
            assert row.cardinality == cardinality(row.n_used, config.gamma,
                                                  config.problem.r)
            assert row.mean_error > 0
        assert math.isfinite(report.fitted_slope)
        assert report.theoretical_slope == pytest.approx(1.5 / 3.5)

    def test_trial_records_match_rows(self):
        config = small_config()
        result = run_convergence(config)
        for row in result.reports["l2w"].rows:
            errors = [rec.error for rec in result.trials
                      if rec.delta == row.delta and rec.metric == "l2w"]
            assert len(errors) == config.trials_per_delta
            assert np.mean(errors) == pytest.approx(row.mean_error, rel=1e-12)

    @pytest.mark.parametrize("mode", [NOISE_TOPWEIGHT, NOISE_SINGLE])
    def test_seed_independent_trials_equal_every_trial_computed(self, mode):
        config = three_metric_config(mode)
        assert_matches_every_trial_computed(config, run_convergence(config))

    @settings(deadline=None, database=None, max_examples=30)
    @given(mode=st.sampled_from(NOISE_MODES), r=st.integers(1, 3),
           box=st.tuples(st.integers(2, 24), st.integers(0, 24)),
           level_constant=st.sampled_from([1.0, 3.0, 10.0]),
           q=st.sampled_from([3.0, 4.0, 6.0]), seed=st.integers(0, 2 ** 16))
    @example(mode=NOISE_UNIFORM, r=1, box=(6, 3), level_constant=10.0, q=4.0,
             seed=0)  # every cross leaves the 7 x 4 member's box
    def test_engine_matches_the_public_path(self, mode, r, box, level_constant,
                                            q, seed):
        # the sweep takes each trial on the member's leading block; the
        # public path perturbs and differentiates the whole member
        mu1 = 2 * r + 1.5
        problem = ProblemSpec(r=r, wiener=WienerSpec(s=1.0, mu1=mu1, mu2=mu1),
                              noise_p=2.0, metric=MetricSpec("l2w"),
                              level_constant=level_constant)
        config = small_config(
            problem=problem, noise_mode=mode, trials_per_delta=2,
            test_function=TestFunctionSpec(kind="class-member", seed=seed,
                                           max_k=box[0], max_j=box[1]),
            metrics=(MetricSpec("l2w"), MetricSpec("sup", eval_grid=65),
                     MetricSpec("lqw", q=q)))
        assert_matches_every_trial_computed(config, run_convergence(config))

    def test_seeded_trials_differ(self):
        result = run_convergence(three_metric_config(NOISE_UNIFORM))
        groups = {}
        for rec in result.trials:
            groups.setdefault((rec.delta, rec.metric), []).append(rec.error)
        assert len(groups) == 3 * 3
        for errors in groups.values():
            assert len(set(errors)) == len(errors) == 3

    def test_inadmissible_spec_rejected(self):
        config = small_config(
            problem=ProblemSpec(r=1, wiener=WienerSpec(s=1.0, mu1=1.2, mu2=2.0),
                                noise_p=2.0, metric=MetricSpec("l2w")))
        with pytest.raises(ValueError, match="mu1 > 2r - 1/s \\+ 1/2"):
            run_convergence(config)

    def test_inadmissible_gamma_rejected(self):
        config = small_config(gamma=2.0)  # gamma_max = 2.5/1.5 < 2
        with pytest.raises(ValueError, match="gamma"):
            run_convergence(config)

    def test_only_the_measured_metrics_are_checked(self):
        # problem.metric (sup) would refuse mu1 = 2; the sweep measures l2w only
        problem = ProblemSpec(r=1, wiener=WienerSpec(s=1.0, mu1=2.0, mu2=1.5),
                              noise_p=2.0, metric=MetricSpec("sup"))
        config = small_config(problem=problem, gamma=1.2)
        assert run_convergence(config) == run_convergence(replace(
            config, problem=replace(problem, metric=MetricSpec("l2w"))))

    def test_one_restriction_per_level(self, monkeypatch):
        restrict_to, levels = CoeffGrid.restrict_to, []

        def counted(grid, cross):
            levels.append(cross.n)
            return restrict_to(grid, cross)

        monkeypatch.setattr(CoeffGrid, "restrict_to", counted)
        result = run_convergence(small_config(trials_per_delta=2))
        assert levels == [row.n_used for row in result.reports["l2w"].rows]  # 3 levels

    def test_noisy_tables_checked_before_the_member_is_built(self, monkeypatch):
        def build(spec, wiener):
            raise AssertionError("the class member was built")

        monkeypatch.setattr(TestFunctionSpec, "build", build)
        config = small_config(
            deltas=(1e-2, 1e-4, 1e-18), trials_per_delta=10,
            test_function=TestFunctionSpec(kind="class-member", seed=42,
                                           max_k=256, max_j=256),
            metrics=tuple(parse_metric(m) for m in ("l2w", "sup", "lqw:4")))
        with pytest.raises(ValueError, match="^a 138951 x 2683 coefficient table "
                           "exceeds the limit MAX_TABLE_ENTRIES = 67108864$"):
            run_convergence(config)

    @pytest.mark.parametrize("metric, grid", [
        (MetricSpec("lqw", q=4.0), "16383 x 16383 quadrature"),  # 2 * 8191 + 1 nodes
        (MetricSpec("lqw", q=3.0), "32765 x 32765 quadrature"),  # 4 * 8191 + 1
        (MetricSpec("sup", eval_grid=8193), "8193 x 8193 evaluation"),
    ], ids=["lqw:4", "lqw:3", "sup"])
    def test_metric_grids_checked_before_the_member_is_built(self, monkeypatch,
                                                             metric, grid):
        def build(spec, wiener):
            raise AssertionError("the class member was built")

        monkeypatch.setattr(TestFunctionSpec, "build", build)
        config = small_config(
            test_function=TestFunctionSpec(kind="class-member", seed=42,
                                           max_k=8191, max_j=8191),
            metrics=(MetricSpec("l2w"), metric))
        with pytest.raises(ValueError, match=f"^a {grid} grid exceeds the limit "
                           "MAX_TABLE_ENTRIES = 67108864$"):
            run_convergence(config)

    @pytest.mark.parametrize("member, quadrature", [
        (TestFunctionSpec(kind="class-member", seed=3, max_k=60, max_j=20), 119),
        (TestFunctionSpec(kind="class-member", seed=3, max_k=8, max_j=8), 27),  # n = 14
        (TestFunctionSpec(kind="named-analytic", name="exp-cos"), 81),  # a 41 x 41 box
    ], ids=["member", "block", "analytic"])
    def test_grid_check_sizes_the_largest_grid_the_sweep_builds(self, monkeypatch, member,
                                                                quadrature):
        # the member's box (less the r rows the derivative drops) or the last
        # level's block, whichever is larger, sets each metric's largest grid
        checked, built = {}, {}
        check, basis = harness._check_table_size, norms._basis

        def checked_size(max_k, max_j, what="coefficient table"):
            if what.endswith(" grid"):
                checked[what] = max_k + 1
            return check(max_k, max_j, what)

        def built_basis(degree, nodes, size):
            built[f"{nodes} grid"] = max(built.get(f"{nodes} grid", 0), size)
            return basis(degree, nodes, size)

        monkeypatch.setattr(harness, "_check_table_size", checked_size)
        monkeypatch.setattr(norms, "_basis", built_basis)
        run_convergence(small_config(
            test_function=member,
            metrics=(MetricSpec("l2w"), MetricSpec("lqw", q=4.0, eval_grid=2),
                     MetricSpec("sup", eval_grid=33)),
            trials_per_delta=2))
        assert checked == built
        assert checked["quadrature grid"] == quadrature  # 2 * (largest degree) + 1

    def test_multiple_metrics(self):
        config = small_config(metrics=(MetricSpec("l2w"),
                                       MetricSpec("sup", eval_grid=65)))
        result = run_convergence(config)
        assert set(result.reports) == {"l2w", "sup"}
        assert result.reports["sup"].theoretical_slope == pytest.approx(1.0 / 3.5)

    def test_noise_free_level_sweep_decreases(self):
        problem = ProblemSpec(r=1, wiener=WienerSpec(s=1.0, mu1=3.0, mu2=2.0),
                              noise_p=2.0, metric=MetricSpec("l2w"))
        tf = TestFunctionSpec(kind="class-member", seed=5, max_k=64, max_j=64)
        grid = tf.build(problem.wiener)
        reference = differentiate_coeffs(grid, problem.r)
        values = [evaluate_metric(truncated_derivative(grid, n, 1.5, problem.r)
                                  - reference, MetricSpec("l2w"))
                  for n in (4, 8, 16, 32)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestConfigParsing:
    def test_round_trip_from_dict(self):
        doc = {
            "problem": {"r": 1, "s": 1, "mu1": 3.0, "mu2": 2.0, "p": 2,
                        "level_constant": 1.0},
            "noise": {"mode": "adversarial-topweight", "seed": 11},
            "test_function": {"kind": "class-member", "seed": 4,
                              "max_k": 32, "max_j": 32, "epsilon": 0.01},
            "deltas": [1e-2, 1e-3, 1e-4],
            "trials_per_delta": 2,
            "gamma": 1.25,
            "metrics": ["l2w", "lqw:4"],
            "output_path": "out",
        }
        config = config_from_dict(doc)
        assert config.problem.noise_p == 2.0
        assert config.noise_mode == NOISE_TOPWEIGHT
        assert config.metrics[1].q == 4.0
        assert config.output_path == "out"

    def test_p_inf_string(self):
        doc = {
            "problem": {"r": 1, "s": 1, "mu1": 3.0, "mu2": 2.0, "p": "inf"},
            "test_function": {"kind": "named-analytic", "id": "exp-cos"},
            "deltas": [1e-1, 1e-2, 1e-3],
            "gamma": 1.0,
            "metrics": ["l2w"],
        }
        assert math.isinf(config_from_dict(doc).problem.noise_p)

    def test_absent_keys_take_dataclass_defaults(self):
        doc = small_doc(test_function={"kind": "class-member"})
        assert config_from_dict(doc) == ExperimentConfig(
            problem=ProblemSpec(r=1, wiener=WienerSpec(s=1.0, mu1=3.0, mu2=2.0),
                                noise_p=2.0),
            deltas=(1e-2, 1e-3, 1e-4),
            gamma=1.5,
            test_function=TestFunctionSpec(kind="class-member"),
            metrics=(MetricSpec("l2w"),),
        )

    def test_integral_floats_build_the_integer_config(self):
        doc = small_doc(trials_per_delta=2)
        floats = small_doc(trials_per_delta=2.0)
        floats["problem"] = dict(floats["problem"], r=1.0)
        floats["test_function"] = dict(floats["test_function"], max_k=8.0)
        # repr tells 1.0 from 1, which == does not
        assert repr(config_from_dict(floats)) == repr(config_from_dict(doc))

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing required field"):
            config_from_dict({"deltas": [0.1]})

    @pytest.mark.parametrize("key, value, expected", [
        ("problem", [], "a JSON object, got list"),
        ("problem", True, "a JSON object, got bool"),
        ("metrics", [3], "a string, got 3"),
        ("metrics", [True], "a string, got bool"),
        ("output_path", 3, "a string, got 3"),
        ("output_path", True, "a string, got bool"),
        ("gamma", "y", "a number, got 'y'"),
        ("gamma", True, "a number, got bool"),
        ("trials_per_delta", 2.5, "an integer, got 2.5"),
        ("trials_per_delta", True, "an integer, got bool"),
        ("problem.p", "x", "a number or 'inf', got 'x'"),
        ("problem.p", True, "a number or 'inf', got bool"),
    ])
    def test_converter_message(self, key, value, expected):
        # one message form for every JSON type a field takes
        doc = small_doc()
        section, _, name = key.rpartition(".")
        (doc[section] if section else doc)[name] = value
        with pytest.raises(ValueError) as info:
            config_from_dict(doc)
        assert str(info.value) == f"configuration field {key!r}: expected {expected}"

    def test_readme_example(self):
        # the documented example holds only fields the parser knows
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Experiment configuration", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        config = config_from_dict(json.loads(block))
        assert config.noise_mode == NOISE_TOPWEIGHT
        assert config.test_function == TestFunctionSpec(
            kind="class-member", seed=42, max_k=256, max_j=256, epsilon=0.01)
        assert config.output_path == "results"

    def test_deltas_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            small_config(deltas=(1e-3, 1e-2, 1e-4))

    def test_integral_float_trials_per_delta_runs_as_integer(self):
        config = small_config(trials_per_delta=3.0)
        assert type(config.trials_per_delta) is int
        assert config == small_config(trials_per_delta=3)
        assert run_convergence(config) == run_convergence(small_config())

    @pytest.mark.parametrize("overrides, message", [
        (dict(trials_per_delta=0), r"^trials_per_delta must be an integer >= 1$"),
        # without the check, run_convergence raises a TypeError naming nothing
        (dict(trials_per_delta=2.5), r"^trials_per_delta must be an integer >= 1$"),
        (dict(trials_per_delta=math.nan), r"^trials_per_delta must be an integer >= 1$"),
        (dict(trials_per_delta=math.inf), r"^trials_per_delta must be an integer >= 1$"),
        (dict(deltas=()), r"need at least one noise level"),
        (dict(deltas=(0.0,)), r"noise levels must lie in \(0, 1\)"),
        (dict(deltas=(1.0,)), r"noise levels must lie in \(0, 1\)"),
        (dict(deltas=(2.0,)), r"noise levels must lie in \(0, 1\)"),
        (dict(noise_mode="bogus"), r"unknown noise mode 'bogus'"),
        (dict(metrics=()), r"need at least one metric"),
        (dict(metrics=(MetricSpec("l2w"), MetricSpec("sup"), MetricSpec("l2w"))),
         r"metric 'l2w' is given twice"),
        (dict(trials_per_delta=2**20), r"^deltas x trials_per_delta x metrics = "
         r"3145728 exceeds the limit MAX_TRIAL_RECORDS = 1048576$"),
    ], ids=["trials-0", "trials-2.5", "trials-nan", "trials-inf", "no-deltas",
            "delta-0", "delta-1", "delta-2", "noise-mode", "no-metrics",
            "repeated-metric", "trial-records"])
    def test_config_checks(self, overrides, message):
        # the checks a config built in code, not parsed, goes through
        with pytest.raises(ValueError, match=message):
            small_config(**overrides)


class TestDifferentiateCommand:
    """One ``differentiate`` command, run in process through ``main``."""

    @staticmethod
    def differentiate(src, out, n, *extra):
        return main(["differentiate", "--input", str(src), "--n", str(n),
                     "--gamma", "1.0", "--r", "1", "--output", str(out), *extra])

    def test_polynomial_derivative_file(self, tmp_path, capsys):
        grid = analyze(lambda t, u: t**3, 8, 0)
        src = tmp_path / "input.csv"
        write_coeff_csv(grid, src)
        out = tmp_path / "deriv.csv"
        assert self.differentiate(src, out, 8, "--eval-grid", "5") == 0
        result = read_coeff_csv(out)
        probes = np.linspace(-0.95, 0.95, 10)
        for t in probes:
            assert synthesize(result, float(t), 0.1) == pytest.approx(
                3 * t**2, abs=1e-10)
        assert result == truncated_derivative(read_coeff_csv(src), 8, 1.0, 1)
        table = (tmp_path / "deriv.csv.values.csv").read_text().splitlines()
        assert table[0] == "t,tau,value"
        assert len(table) == 1 + 25
        assert capsys.readouterr() == (
            f"wrote {result.nnz} derivative coefficients to {out}\n"
            f"wrote 5x5 point values to {out}.values.csv\n", "")

    @pytest.mark.parametrize("eval_grid, message", [
        pytest.param(1, "--eval-grid must be an integer >= 2", id="1-below 2 points"),
        (200_000, "limit MAX_TABLE_ENTRIES = ")])
    def test_value_grid_checked_before_reading(self, tmp_path, capsys,
                                               eval_grid, message):
        # reading the missing input would exit 2 with FileNotFoundError instead
        out = tmp_path / "deriv.csv"
        assert self.differentiate(tmp_path / "missing.csv", out, 4,
                                  "--eval-grid", str(eval_grid)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert not out.exists()

    def test_empty_input_gives_zero_output(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("k,j,coeff\n")
        out = tmp_path / "deriv.csv"
        assert self.differentiate(src, out, 4) == 0
        assert read_coeff_csv(out).nnz == 0
        assert capsys.readouterr() == (
            f"wrote 0 derivative coefficients to {out}\n", "")


class TestValidateSuite:
    def test_all_checks_pass(self):
        results = validate_suite()
        failed = [res.name for res in results if not res.passed]
        assert failed == []

    def test_records_zeta0_resolution(self):
        results = {res.name: res for res in validate_suite()}
        res = results["derivative-zeta0-resolution"]
        assert res.passed
        assert res.measured <= 1e-12
        assert "1/sqrt(2)" in res.detail

    def test_records_nikolskii_ratio(self):
        results = {res.name: res for res in validate_suite()}
        res = results["nikolskii-explicit-bound"]
        assert res.passed and res.measured <= 1.0

    def test_a_raising_check_is_a_failed_check(self, monkeypatch):
        def _check_boom():
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "_CHECKS", (_check_boom,))
        [res] = validate_suite()
        assert (res.name, res.passed, res.detail) == (
            "check_boom", False, "raised RuntimeError('boom')")
        assert math.isnan(res.measured)

    def test_derivative_oracle_refuses_a_derivative_off_by_1e9(self, monkeypatch):
        # the check measures about 5e-15; a derivative scaled by 1 + 1e-9
        # measures 1e-9 and must fail
        exact = harness.differentiate_coeffs
        monkeypatch.setattr(harness, "differentiate_coeffs",
                            lambda grid, r, **kw: CoeffGrid.from_dense(
                                exact(grid, r, **kw).to_dense() * (1 + 1e-9)))
        res = harness._check_derivative_oracle()
        assert res.name == "derivative-fd-oracle" and not res.passed
        assert res.measured == pytest.approx(1e-9, rel=0.05)

    def test_oracle_detects_corrupted_derivative_constant(self):
        # doubling the degree-0 weight must break the oracle comparison
        from chebdiff2d import ZETA_0, recurrence_partial_t
        grid = CoeffGrid([((1, 0), 1.0)])
        bad = differentiate_coeffs(grid, 1, zeta0=2 * ZETA_0)
        ts = np.array([0.2, -0.5]); taus = np.array([0.1, 0.8])
        oracle = recurrence_partial_t(grid, 1, ts, taus)
        spectral = np.array([synthesize(bad, t, u) for t, u in zip(ts, taus)])
        assert np.abs(spectral - oracle).max() / np.abs(oracle).max() > 1e-3


def exact_partial_t(grid, r, t, tau):
    """d^r/dt^r of the expansion at (t, tau), rounded once to a float: the
    differentiated three-term recurrence run in exact rationals on the
    dyadic point, times the float normalisation constants."""
    def table(m, x, degree):
        d = [[Fraction(0)] * (degree + 2) for _ in range(m + 1)]
        d[0][0], d[0][1] = Fraction(1), Fraction(x)
        if m >= 1:
            d[1][1] = Fraction(1)
        for k in range(1, degree):
            for o in range(m + 1):
                d[o][k + 1] = (2 * Fraction(x) * d[o][k] - d[o][k - 1]
                               + (2 * o * d[o - 1][k] if o else 0))
        scale = [Fraction(1 / math.sqrt(math.pi))]
        scale += [Fraction(math.sqrt(2 / math.pi))] * degree
        return [v * c for v, c in zip(d[m], scale)]
    a = grid.to_dense()
    bt, btau = table(r, t, grid.max_k), table(0, tau, grid.max_j)
    return float(sum(Fraction(a[k, j]) * bt[k] * btau[j]
                     for k, j in zip(*np.nonzero(a))))


class TestRecurrenceOracle:
    def test_matches_exact_recurrence(self, rng):
        # measured worst 1.1e-15 over six seeds of these draws; the bound
        # leaves a factor of about 9
        worst = 0.0
        for r in range(5):
            for max_k, max_j in ((24, 24), (13, 7), (r, 0), (20, 3)):
                grid = random_grid(rng, max_k, max_j)
                ts = np.concatenate([[-1.0, 1.0, 0.0, 1.0, -1.0],
                                     rng.uniform(-1, 1, 7)])
                taus = np.concatenate([[1.0, -1.0, 0.0, -1.0, 1.0],
                                       rng.uniform(-1, 1, 7)])
                exact = np.array([exact_partial_t(grid, r, t, u)
                                  for t, u in zip(ts, taus)])
                got = recurrence_partial_t(grid, r, ts, taus)
                worst = max(worst, np.abs(got - exact).max()
                            / np.abs(exact).max())
        assert worst <= 1e-14

    def test_table_above_the_limit_is_refused_first(self):
        # (r + 1) x points x (degree + 2) floats: 1.9 GB at r = 10**7
        grid = CoeffGrid.from_dense(np.eye(11))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^a 10000001 x 24 recurrence table "
                               "exceeds the limit MAX_TABLE_ENTRIES = 67108864$"):
                recurrence_partial_t(grid, 10 ** 7, [0.1, 0.2], [0.3, 0.4])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_no_points_give_an_empty_result(self):
        got = recurrence_partial_t(CoeffGrid.from_dense(np.eye(11)), 3, [], [])
        assert got.shape == (0,)

    def test_validate_passes_where_longdouble_is_double(self):
        # as on MSVC Windows and macOS arm64, where long double is a double
        child = """if True:
            import sys
            import numpy
            numpy.longdouble = numpy.float64
            from chebdiff2d.cli import main
            sys.exit(main(["validate", "--json"]))
            """
        proc = subprocess.run([sys.executable, "-c", child],
                              capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = json.loads(proc.stdout)
        assert len(doc) == 14 and all(entry["passed"] for entry in doc)


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "chebdiff2d", *args],
                              capture_output=True, text=True, env=CHILD_ENV)

    def test_cross_count(self):
        proc = self.run_cli("cross", "--n", "4", "--gamma", "1", "--r", "1",
                            "--count")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "12"

    def test_cross_listing(self):
        proc = self.run_cli("cross", "--n", "2", "--gamma", "1", "--r", "2")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["k,j", "2,0", "2,1"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma, code, out", [("inf", 1, ""),
                                                  ("2000", 0, "10\n")],
                             ids=["inf", "2000"])
    def test_cross_extreme_gamma(self, capsys, gamma, code, out):
        # in process: a traceback or a numpy warning would escape main()
        assert main(["cross", "--n", "5", "--gamma", gamma, "--r", "1",
                     "--count"]) == code
        captured = capsys.readouterr()
        assert captured.out == out
        assert captured.err == ("" if code == 0 else
                                "error: gamma must lie in [1, inf)\n")

    @pytest.mark.parametrize("n, gamma, r, message", [
        ("2000000", "1.5", "1", "level n=2000000 exceeds the limit MAX_LEVEL = 1048576"),
        ("8", "0.5", "1", "gamma must lie in [1, inf)"),
        ("5", "1.5", "2000000",
         "derivative order r=2000000 exceeds the limit MAX_LEVEL = 1048576"),
    ], ids=["level", "gamma", "order"])
    def test_refused_cross_prints_nothing(self, capsys, n, gamma, r, message):
        # the listing's header and the count are printed only after the
        # cross is built
        for count in ([], ["--count"]):
            assert main(["cross", "--n", n, "--gamma", gamma, "--r", r, *count]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_large_lqw_experiment_refused_before_the_member(self, tmp_path, capsys,
                                                           monkeypatch):
        def build(spec, wiener):
            raise AssertionError("the class member was built")

        monkeypatch.setattr(TestFunctionSpec, "build", build)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(small_doc(
            test_function={"kind": "class-member", "max_k": 8191, "max_j": 8191},
            metrics=["lqw:4"])))
        assert main(["experiment", "--config", str(path),
                     "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", "error: a 16383 x 16383 quadrature grid "
                                       "exceeds the limit MAX_TABLE_ENTRIES = 67108864\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("exc, message", [
        (MemoryError(), "out of memory"),
        (MemoryError("Unable to allocate 512. MiB for an array"),
         "Unable to allocate 512. MiB for an array"),
    ], ids=["bare", "numpy"])
    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch, exc, message):
        def grid_synthesize(coeffs, ts, taus):
            raise exc

        monkeypatch.setattr(cli, "grid_synthesize", grid_synthesize)
        src = tmp_path / "in.csv"
        src.write_text("k,j,coeff\n0,0,1\n3,0,0.5\n2,1,-0.25\n")
        assert main(["differentiate", "--input", str(src), "--r", "1", "--n", "4",
                     "--gamma", "1.5", "--eval-grid", "5",
                     "--output", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_differentiate_and_errors(self, tmp_path):
        grid = analyze(lambda t, u: t**2, 4, 0)
        src = tmp_path / "in.csv"
        write_coeff_csv(grid, src)
        out = tmp_path / "out.csv"
        proc = self.run_cli("differentiate", "--input", str(src), "--r", "1",
                            "--n", "4", "--gamma", "1.0", "--output", str(out))
        assert proc.returncode == 0
        deriv = read_coeff_csv(out)
        assert synthesize(deriv, 0.5, 0.0) == pytest.approx(1.0, abs=1e-10)

        proc = self.run_cli("differentiate", "--input", str(src), "--r", "5",
                            "--n", "3", "--gamma", "1.0", "--output", str(out))
        assert proc.returncode == 1  # n < r: invalid configuration

        proc = self.run_cli("differentiate", "--input", str(tmp_path / "no.csv"),
                            "--r", "1", "--n", "4", "--gamma", "1.0",
                            "--output", str(out))
        assert proc.returncode == 2  # missing input file

        # malformed files exit 2 with one message naming the line or entry,
        # or for bytes that are not UTF-8 the decoding error
        undecodable = "'utf-8' codec can't decode byte 0xff in position"
        for name, text, where in (
                ("bad.csv", b"k,j,coeff\n0,0,1\n\n2,0,nan\n", "line 4"),
                ("bad.json", b'{"max_k": 2, "max_j": 0, "entries": '
                             b'[[0, 0, 1], [1.5, 0, 2]]}', "entries[1]"),
                ("huge.json", b'{"max_k": 2, "max_j": 2, "entries": '
                              b'[[0, 0, 1.0], [1, 1, 1%s]]}' % (b"0" * 400),
                 "entries[1]"),
                ("bytes.json", b"\xff\xfe", f"{undecodable} 0"),
                ("header.csv", b"k,j\xff,coeff\n0,0,1\n", f"{undecodable} 3"),
                ("body.csv", b"k,j,coeff\n0,0,1\n\xff\n", f"{undecodable} 16")):
            bad = tmp_path / name
            bad.write_bytes(text)
            proc = self.run_cli("differentiate", "--input", str(bad), "--r", "1",
                                "--n", "4", "--gamma", "1.0", "--output", str(out))
            assert proc.returncode == 2
            assert proc.stderr.startswith(f"error: {bad}: {where}: ")
            assert "Traceback" not in proc.stderr
            assert "Warning" not in proc.stderr

        empty = tmp_path / "empty.csv"
        empty.write_text("k,j,coeff\n")
        proc = self.run_cli("differentiate", "--input", str(empty), "--r", "1",
                            "--n", "4", "--gamma", "1.0", "--output", str(out))
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_differentiate_csv_and_json_write_the_same_bytes(self, tmp_path,
                                                            capsys):
        grid = make_class_member(
            WienerSpec(s=1.0, mu1=3.0, mu2=2.0), 40, 30, seed=7)
        outputs = []
        for fmt, write in (("csv", write_coeff_csv), ("json", write_coeff_json)):
            src = tmp_path / f"in.{fmt}"
            write(grid, src)
            out = tmp_path / f"out-{fmt}.csv"
            assert main(["differentiate", "--input", str(src), "--r", "1",
                         "--n", "16", "--gamma", "1.5", "--output", str(out),
                         "--eval-grid", "17"]) == 0
            outputs.append((out.read_bytes(),
                            Path(f"{out}.values.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1].count(b"\r\n") == 1 + 17 * 17
        assert capsys.readouterr().err == ""

    def test_differentiate_overflow(self, tmp_path):
        # one error line naming the entry: no numpy warning, no traceback
        src = tmp_path / "big.csv"
        src.write_text("k,j,coeff\n600,0,1e308\n")
        out = tmp_path / "o.csv"
        proc = self.run_cli("differentiate", "--input", str(src), "--r", "1",
                            "--n", "600", "--gamma", "1.5", "--output", str(out))
        assert proc.returncode == 1
        assert proc.stderr == "error: non-finite coefficient at (1, 0)\n"
        assert not out.exists()

    def test_differentiate_overflow_names_the_step(self, tmp_path):
        # the derivative stops at the first step that overflows
        src = tmp_path / "big.csv"
        src.write_text("k,j,coeff\n600,0,1e308\n")
        out = tmp_path / "o.csv"
        proc = self.run_cli("differentiate", "--input", str(src), "--r", "2",
                            "--n", "600", "--gamma", "1.5", "--output", str(out))
        assert proc.returncode == 1
        assert proc.stderr == ("error: derivative of order r = 2: step 1 leaves "
                               "a non-finite coefficient\n")
        assert not out.exists()

    def test_differentiate_auto_level(self, tmp_path):
        grid = analyze(lambda t, u: t**2, 4, 0)
        src = tmp_path / "in.csv"
        write_coeff_csv(grid, src)
        out = tmp_path / "out.csv"
        proc = self.run_cli("differentiate", "--input", str(src), "--r", "1",
                            "--delta", "1e-3", "--mu1", "3",
                            "--mu2", "2", "--p", "2", "--gamma", "1.5",
                            "--output", str(out))
        assert proc.returncode == 0
        assert "n = 7" in proc.stdout  # 1000**(1/3.5) rounds to 7
        proc = self.run_cli("differentiate", "--input", str(src), "--r", "1",
                            "--delta", "1e-3", "--gamma", "1.5",
                            "--output", str(out))
        assert proc.returncode == 1
        assert "--delta needs --mu1, --mu2, --p" in proc.stderr

    def test_delta_needs_the_class_parameters(self, tmp_path, capsys):
        # in process, so a line trace sees the refusal
        src = tmp_path / "in.csv"
        src.write_text("k,j,coeff\n0,0,1.0\n")
        out = tmp_path / "out.csv"
        assert main(["differentiate", "--input", str(src), "--r", "1",
                     "--delta", "1e-3", "--gamma", "1.5", "--output", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: --delta needs --mu1, --mu2, --p\n")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["differentiate", "--delta", "1e-300", "--mu1", "3", "--mu2", "2", "--p", "2"],
        ["differentiate", "--n", "9" * 90],
        ["cross", "--n", "9" * 90, "--count"],
    ], ids=["auto-level", "differentiate-n", "cross-n"])
    def test_level_refusal_shows_the_level_shortened(self, tmp_path, capsys, args):
        # the level rule and the cross refuse a level in one function, which
        # shows an integer of over 40 digits as its first 18 and last 19
        src = tmp_path / "in.csv"
        src.write_text("k,j,coeff\n0,0,1.0\n")
        files = ["--input", str(src), "--output", str(tmp_path / "out.csv")]
        assert main([*args, "--r", "1", "--gamma", "1.5",
                     *(files if args[0] == "differentiate" else [])]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err) < 200
        assert re.fullmatch(r"error: level n=\d{18}\.\.\.\d{19} exceeds the limit "
                            r"MAX_LEVEL = 1048576\n", err), err
        assert not (tmp_path / "out.csv").exists()

    def test_differentiate_level_above_max_level(self, tmp_path, capsys):
        # refused by the level rule, before a level is announced
        src = tmp_path / "in.csv"
        src.write_text("k,j,coeff\n0,0,1.0\n")
        assert main(["differentiate", "--input", str(src), "--r", "1",
                     "--delta", "1e-300", "--mu1", "3", "--mu2", "2", "--p", "2",
                     "--gamma", "1.5", "--output", str(tmp_path / "out.csv")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: level n=")
        assert err.endswith(" exceeds the limit MAX_LEVEL = 1048576\n")

    @pytest.mark.parametrize("command", ["experiment", "differentiate"])
    def test_derivative_order_above_max_level(self, tmp_path, capsys, command):
        # int(1e308) has 309 digits, too many for the spec's float arithmetic
        if command == "experiment":
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps(small_doc(problem={
                "r": 1e308, "s": 1, "mu1": 3.0, "mu2": 2.0, "p": 2})))
            argv = ["experiment", "--config", str(cfg_path)]
        else:
            src = tmp_path / "in.csv"
            src.write_text("k,j,coeff\n0,0,1.0\n")
            argv = ["differentiate", "--input", str(src), "--r", str(int(1e308)),
                    "--delta", "1e-3", "--mu1", "3", "--mu2", "2", "--p", "2",
                    "--gamma", "1.5"]
        assert main([*argv, "--output", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: derivative order r=100000000000000001...4885715430223118336"
                       " exceeds the limit MAX_LEVEL = 1048576\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf], ids=["nan", "inf"])
    def test_experiment_non_finite_epsilon(self, tmp_path, capsys, epsilon):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(small_doc(test_function={
            "kind": "class-member", "max_k": 8, "max_j": 8, "epsilon": epsilon})))
        assert main(["experiment", "--config", str(cfg_path),
                     "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: epsilon must lie in (0, inf)\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["differentiate", "experiment"])
    def test_infinite_level_constant_refused_at_once(self, tmp_path, capsys, command):
        # refused with the spec, not later as a level above MAX_LEVEL
        out = tmp_path / "out"
        if command == "differentiate":
            src = tmp_path / "in.csv"
            src.write_text("k,j,coeff\n0,0,1.0\n")
            args = ["--input", str(src), "--r", "1", "--gamma", "1.5", "--delta", "1e-3",
                    "--mu1", "3", "--mu2", "2", "--p", "2", "--level-constant", "inf"]
        else:
            doc = small_doc()
            doc["problem"]["level_constant"] = math.inf
            src = tmp_path / "config.json"
            src.write_text(json.dumps(doc))  # json writes inf as Infinity
            assert "Infinity" in src.read_text()
            args = ["--config", str(src)]
        assert main([command, *args, "--output", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: level_constant must lie in (0, inf)\n")
        assert not out.exists()

    def test_experiment_outputs(self, tmp_path):
        config = {
            "problem": {"r": 1, "s": 1, "mu1": 3.0, "mu2": 2.0, "p": 2},
            "noise": {"mode": "uniform-random", "seed": 5},
            "test_function": {"kind": "class-member", "seed": 2,
                              "max_k": 32, "max_j": 32},
            "deltas": [1e-2, 1e-3, 1e-4],
            "trials_per_delta": 2,
            "gamma": 1.5,
            "metrics": ["l2w"],
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        proc = self.run_cli("experiment", "--config", str(cfg_path),
                            "--output", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "l2w" in report
        assert len(report["l2w"]["rows"]) == 3
        trials = (tmp_path / "out" / "trials.csv").read_text().splitlines()
        assert trials[0] == "delta,trial,metric,n,gamma,cardinality,error"
        assert len(trials) == 1 + 3 * 2

    def test_experiment_written_bytes(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(GOLDEN_CONFIG))
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg_path),
                     "--output", str(out)]) == 0
        assert (out / "trials.csv").read_bytes() == GOLDEN_TRIALS
        assert (out / "report.json").read_bytes() == (
            json.dumps(GOLDEN_REPORT, indent=2) + "\n").encode()

    def test_experiment_named_analytic(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(small_doc(
            test_function={"kind": "named-analytic", "id": "exp-cos"},
            trials_per_delta=2)))
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg_path),
                     "--output", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())["l2w"]["rows"]
        assert [(row["delta"], row["n_used"]) for row in rows] == [
            (1e-2, 4), (1e-3, 7), (1e-4, 14)]  # round(delta**(-1/3.5))

    def test_usage_error_exit_code(self, tmp_path, capsys):
        differentiate = ["differentiate", "--input", str(tmp_path / "in.csv"),
                         "--r", "1", "--gamma", "1.5",
                         "--output", str(tmp_path / "out.csv")]
        for args, message in (
                # the settings of an experiment come only from its file
                (["experiment", "--config", str(tmp_path / "config.json"),
                  "--gamma", "1.2"], "unrecognized arguments: --gamma 1.2"),
                # the level is given, or chosen for a noise level: not both
                (differentiate, "one of the arguments --n --delta is required"),
                (differentiate + ["--n", "8", "--delta", "1e-3"],
                 "argument --delta: not allowed with argument --n"),
                (differentiate + ["--delta", "1e-3", "--mu1", "3", "--mu2",
                                  "2", "--p", "abc"],
                 "argument --p: invalid float value: 'abc'")):
            with pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert message in err
            assert "Traceback" not in err and "parse_p" not in err

    @pytest.mark.parametrize("trials", [2**18, 10**400], ids=["over", "400-digits"])
    def test_experiment_trial_budget_exit_code(self, tmp_path, capsys, trials):
        # 3 deltas x trials x 2 metrics records, refused before any work
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(small_doc(trials_per_delta=trials,
                                                 metrics=["l2w", "sup"])))
        assert main(["experiment", "--config", str(cfg_path),
                     "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "deltas x trials_per_delta x metrics = " in err and len(err) < 200
        assert not (tmp_path / "out").exists()

    def test_experiment_invalid_config_exit_code(self, tmp_path):
        config = {
            "problem": {"r": 1, "s": 1, "mu1": 1.2, "mu2": 2.0, "p": 2},
            "test_function": {"kind": "class-member", "seed": 2,
                              "max_k": 16, "max_j": 16},
            "deltas": [1e-2, 1e-3, 1e-4],
            "gamma": 1.0,
            "metrics": ["l2w"],
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        proc = self.run_cli("experiment", "--config", str(cfg_path))
        assert proc.returncode == 1
        assert "mu1" in proc.stderr

    @pytest.mark.parametrize("name, text, code, limit", [
        ("big.csv", "k,j,coeff\n1000000000,1000000000,1.0\n", 2,
         "limit MAX_TABLE_ENTRIES"),
        ("big.json", '{"max_k": 1000000000, "max_j": 1000000000, '
                     '"entries": []}', 2, "limit MAX_TABLE_ENTRIES"),
        ("config.json", json.dumps(small_doc(test_function={
            "kind": "class-member", "max_k": 10**12, "max_j": 16})), 1,
         "limit MAX_TABLE_ENTRIES"),
        ("config.json", json.dumps(small_doc(deltas=[1e-2, 1e-3, 1e-40])), 1,
         "limit MAX_LEVEL"),
        ("config.json", json.dumps(small_doc(problem={
            "r": 1, "s": 1, "mu1": 3.0, "mu2": 2.0, "p": 2,
            "level_constant": 1e308})), 1, "limit MAX_LEVEL"),
        # the noisy table of the last level spans its gamma = 1 cross
        ("config.json", json.dumps(small_doc(
            test_function={"kind": "class-member", "max_k": 16, "max_j": 16},
            gamma=1.0, deltas=[1e-2, 1e-3, 1e-15])), 1,
         "a 19308 x 19308 coefficient table exceeds the limit MAX_TABLE_ENTRIES"),
        ("auto-n", "", 1, "limit MAX_LEVEL"),
        ("values.csv", "k,j,coeff\n0,0,1.0\n", 1, "limit MAX_TABLE_ENTRIES"),
    ], ids=["csv", "json", "config-max-k", "config-tiny-delta",
            "config-huge-level-constant", "config-noise-table",
            "auto-n-huge-level-constant",
            "eval-grid"])
    def test_size_limits(self, tmp_path, capsys, name, text, code, limit):
        # files exit 2 and configurations 1, before anything is allocated
        path = tmp_path / name
        path.write_text(text)
        if name == "config.json":
            args = ["experiment", "--config", str(path),
                    "--output", str(tmp_path / "out")]
        elif name == "auto-n":
            args = ["differentiate", "--input", str(path), "--r", "1",
                    "--delta", "1e-2", "--mu1", "3", "--mu2", "2",
                    "--p", "2", "--level-constant", "1e308", "--gamma", "1.5",
                    "--output", str(tmp_path / "out.csv")]
        else:
            args = ["differentiate", "--input", str(path), "--r", "1",
                    "--n", "4", "--gamma", "1.0",
                    "--output", str(tmp_path / "out.csv")]
            if name == "values.csv":
                args += ["--eval-grid", "200000"]
        start = time.monotonic()
        assert main(args) == code
        assert time.monotonic() - start < 2.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{limit} = " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc.update(metrics=[]), "'metrics'"),
        (lambda doc: doc.update(metrics=[4]), "'metrics'"),
        (lambda doc: [doc], "JSON object"),
        (lambda doc: doc["problem"].update(s=[1]), "'problem.s'"),
        (lambda doc: doc["problem"].update(r=1.5), "'problem.r'"),
        (lambda doc: doc.update(trials_per_delta=None), "'trials_per_delta'"),
        (lambda doc: doc.update(noise="x"), "'noise'"),
        (lambda doc: doc.update(deltas="0.1"), "'deltas'"),
        (lambda doc: doc.update(test_function={"kind": "named-analytic",
                                               "id": 3}), "'test_function.id'"),
        (lambda doc: doc.update(test_function={"kind": "named-analytic",
                                               "name": "exp-cos"}),
         "missing required field 'test_function.id'"),
        (lambda doc: doc.update(test_function={"kind": "named-analytic",
                                               "id": "nope"}),
         "configuration field 'test_function.id'"),
        (lambda doc: doc.update(test_function={"kind": "foo"}),
         "configuration field 'test_function.kind'"),
        (lambda doc: doc.update(noise={"mode": "bogus"}),
         "configuration field 'noise.mode'"),
        (lambda doc: doc.update(metrics=["lqw:4", "lqw:4.0"]),
         "configuration field 'metrics': metric 'lqw:4' is given twice"),
        (lambda doc: doc.update(metrics=["l2w", "lqw:inf"]),
         "Lq metric requires a finite q; use 'sup' for q = inf"),
        (lambda doc: doc["problem"].update(s=math.inf),
         "s must lie in [1, inf)"),
        (lambda doc: doc["problem"].update(mu1=200.0, mu2=199.0)
         or doc.update(gamma=1.0),
         "the class norm overflows for s = 1.0, mu1 = 200.0, mu2 = 199.0"),
        # json.dumps never repeats a key, so this edit returns the text
        (lambda doc: json.dumps(doc)[:-1] + ', "gamma": 1.2}',
         "config.json: duplicate key 'gamma'"),
        # p is a JSON number or exactly "inf"
        *[(lambda doc, p=p: doc["problem"].update(p=p),
           "configuration field 'problem.p': expected a number or 'inf'")
          for p in ("2", " 2 ", "Infinity", True)],
    ])
    def test_experiment_malformed_config(self, tmp_path, capsys, edit, field):
        # in process: an exception escaping main() is what prints a traceback
        doc = small_doc()
        doc = edit(doc) or doc
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code = main(["experiment", "--config", str(cfg_path),
                     "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, field", [
        (small_doc(gamma=list(range(100_000))), "'gamma'"),
        (small_doc(trials_per_delta=json.loads("[" * 900 + "]" * 900)),
         "'trials_per_delta'"),
        (small_doc(deltas=[{"x" * 100_000: 1}]), "'deltas'"),
        (small_doc(noise={"mode": "x" * 100_000}), "'noise.mode'"),
    ], ids=["long-array", "deep-array", "long-key", "long-string"])
    def test_config_error_message_is_bounded(self, doc, field):
        with pytest.raises(ValueError) as info:
            config_from_dict(doc)
        message = str(info.value)
        assert field in message and len(message) < 200, message

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc.update(trial_per_delta=3), "trial_per_delta"),
        (lambda doc: doc["problem"].update(level_constnt=5),
         "problem.level_constnt"),
        (lambda doc: doc["test_function"].update(sead=3), "test_function.sead"),
        (lambda doc: doc.update(noise={"mdoe": "single-coefficient"}),
         "noise.mdoe"),
        # a field of the other kind of test function
        (lambda doc: doc.update(test_function={
            "kind": "named-analytic", "id": "exp-cos", "max_k": 8}),
         "test_function.max_k"),
    ], ids=["top", "problem", "test-function", "noise", "other-kind"])
    def test_experiment_unknown_field(self, tmp_path, capsys, edit, field):
        doc = small_doc()
        edit(doc)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["experiment", "--config", str(cfg_path),
                     "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: configuration has unknown field '{field}'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, message", [
        # the top level is read before problem, test_function and noise
        (small_doc(problem={"r": "x"}, gamma="y", extra=1),
         "configuration field 'gamma': expected a number, got 'y'"),
        (small_doc(problem={"r": "x"}, extra=1),
         "configuration has unknown field 'extra'"),
        (small_doc(test_function={"kind": "named-analytic", "id": "nope"}),
         "configuration field 'test_function.id': unknown analytic function "
         "'nope' (expected exp-cos, exp-cos-pi2)"),
    ], ids=["top-first", "top-unknown-first", "analytic-id"])
    def test_experiment_fault_order(self, tmp_path, capsys, doc, message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["experiment", "--config", str(cfg_path),
                     "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command, code", [("differentiate", 2),
                                               ("experiment", 1)])
    def test_deeply_nested_json(self, tmp_path, capsys, command, code):
        # too deep for the decoder: refused like bad syntax, naming the path
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        if command == "differentiate":
            args = ["differentiate", "--input", str(path), "--r", "1",
                    "--n", "4", "--gamma", "1.0",
                    "--output", str(tmp_path / "out.csv")]
        else:
            args = ["experiment", "--config", str(path),
                    "--output", str(tmp_path / "out")]
        assert main(args) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_level_rule_flags_need_delta(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        write_coeff_csv(analyze(lambda t, u: t**2, 4, 0), src)
        out = tmp_path / "out.csv"
        assert main(["differentiate", "--input", str(src), "--r", "1",
                     "--gamma", "1.5", "--output", str(out), "--n", "8",
                     "--mu1", "3", "--p", "2", "--level-constant", "9"]) == 1
        assert capsys.readouterr().err == (
            "error: only --delta takes --mu1, --p, --level-constant\n")
        assert not out.exists()
        # under --delta, --s and --level-constant default to 1
        for extra, n in (([], 7), (["--s", "1", "--level-constant", "2"], 14)):
            assert main(["differentiate", "--input", str(src), "--r", "1",
                         "--gamma", "1.5", "--output", str(out),
                         "--delta", "1e-3", "--mu1", "3", "--mu2", "2",
                         "--p", "2", *extra]) == 0
            assert f"n = {n}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("failing", [False, True], ids=["pass", "fail"])
    def test_validate_text(self, capsys, monkeypatch, failing):
        results = validate_suite()
        if failing:
            results[3] = replace(results[3], passed=False)
            monkeypatch.setattr(harness, "validate_suite", lambda: results)
        assert main(["validate"]) == failing
        lines = capsys.readouterr().out.splitlines()
        assert len(results) == len(harness._CHECKS) == 14
        assert lines[28:] == (["1 of 14 checks failed"] if failing else [])
        width = max(len(res.name) for res in results)
        for res, status, detail in zip(results, lines[:28:2], lines[1:28:2], strict=True):
            word = "PASS" if res.passed else "FAIL"
            assert status == f"[{word}] {res.name:<{width}}  measured={res.measured:.6e}"
            assert detail == f"       {res.detail}"

    def test_validate_json(self):
        proc = self.run_cli("validate", "--json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert all(entry["passed"] for entry in doc)
