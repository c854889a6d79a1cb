import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import chebdiff2d
from chebdiff2d import (NOISE_SINGLE, NOISE_TOPWEIGHT, NOISE_UNIFORM,
                        CoeffGrid, ExperimentConfig, MetricSpec, NoiseSpec,
                        ProblemSpec, RateReport, RateRow, TestFunctionSpec,
                        TrialRecord, WienerSpec, analyze, build_cross,
                        cardinality, choose_n, config_from_dict,
                        differentiate_coeffs, evaluate_metric, fit_rate,
                        grid_synthesize, parse_metric, perturb,
                        read_coeff_csv, run_convergence, run_single,
                        synthesize, theoretical_rate, truncated_derivative,
                        validate_suite, with_metric,
                        write_coeff_csv)
from chebdiff2d.cli import main

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
    trials, rows = [], {m.label: [] for m in config.metrics}
    for delta in config.deltas:
        n = choose_n(delta, problem)
        cross = build_cross(n, config.gamma, problem.r)
        errors = {m.label: [] for m in config.metrics}
        for trial in range(config.trials_per_delta):
            noise = NoiseSpec(p=problem.noise_p, delta=delta,
                              mode=config.noise_mode,
                              seed=config.noise_seed + trial)
            approx = truncated_derivative(perturb(true_grid, noise, cross), n,
                                          config.gamma, problem.r)
            for metric in config.metrics:
                value = evaluate_metric(approx - reference, metric)
                errors[metric.label].append(value)
                trials.append(TrialRecord(delta, trial, metric.label, n,
                                          config.gamma, len(cross), value))
        for label, vals in errors.items():
            rows[label].append(RateRow(delta, float(np.mean(vals)),
                                       float(np.std(vals)), n, len(cross)))
    reports = {}
    for metric in config.metrics:
        fit = fit_rate([(row.delta, row.mean_error) for row in rows[metric.label]])
        reports[metric.label] = RateReport(
            metric.label, tuple(rows[metric.label]), fit.slope, fit.intercept,
            (fit.ci_low, fit.ci_high),
            theoretical_rate(with_metric(problem, metric)))
    return tuple(trials), reports


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
        {"delta": 0.01, "mean_error": 0.0783430684370072,
         "std_error": 0.022146957484873234, "n_used": 4,
         "cardinality": 9},
        {"delta": 0.001, "mean_error": 0.016941340460319088,
         "std_error": 0.007440403974381295, "n_used": 7,
         "cardinality": 17},
        {"delta": 0.0001, "mean_error": 0.007625078208400447,
         "std_error": 0.004258658971674458, "n_used": 14,
         "cardinality": 36},
    ], "fitted_slope": 0.5058781374641637,
        "intercept": -0.33917394074708396,
        "slope_ci": [-0.6618162121568922, 1.6735724870852196],
        "theoretical_slope": 0.2857142857142857},
    "lqw:4": {"metric": "lqw:4", "rows": [
        {"delta": 0.01, "mean_error": 0.056584283265614425,
         "std_error": 0.0160083541076425, "n_used": 4,
         "cardinality": 9},
        {"delta": 0.001, "mean_error": 0.012263152627882691,
         "std_error": 0.004962703686667528, "n_used": 7,
         "cardinality": 17},
        {"delta": 0.0001, "mean_error": 0.0038353318604404055,
         "std_error": 0.00200345873526718, "n_used": 14,
         "cardinality": 36},
    ], "fitted_slope": 0.5844464355037327,
        "intercept": -0.24168023668803418,
        "slope_ci": [0.00015972605131853168, 1.1687331449561467],
        "theoretical_slope": 0.35714285714285715},
}
GOLDEN_TRIALS = (
    b"delta,trial,metric,n,gamma,cardinality,error\r\n"
    b"0.01,0,l2w,4,1.5,9,0.075084472131646263\r\n"
    b"0.01,0,sup,4,1.5,9,0.10049002592188043\r\n"
    b"0.01,0,lqw:4,4,1.5,9,0.072592637373256927\r\n"
    b"0.01,1,l2w,4,1.5,9,0.044681297163125015\r\n"
    b"0.01,1,sup,4,1.5,9,0.056196110952133962\r\n"
    b"0.01,1,lqw:4,4,1.5,9,0.040575929157971924\r\n"
    b"0.001,0,l2w,7,1.5,17,0.017664484152960444\r\n"
    b"0.001,0,sup,7,1.5,17,0.024381744434700384\r\n"
    b"0.001,0,lqw:4,7,1.5,17,0.01722585631455022\r\n"
    b"0.001,1,l2w,7,1.5,17,0.0092259507757013661\r\n"
    b"0.001,1,sup,7,1.5,17,0.0095009364859377932\r\n"
    b"0.001,1,lqw:4,7,1.5,17,0.0073004489412151633\r\n"
    b"0.0001,0,l2w,14,1.5,36,0.0019052482600646823\r\n"
    b"0.0001,0,sup,14,1.5,36,0.003366419236725988\r\n"
    b"0.0001,0,lqw:4,14,1.5,36,0.0018318731251732259\r\n"
    b"0.0001,1,l2w,14,1.5,36,0.0041848930354116279\r\n"
    b"0.0001,1,sup,14,1.5,36,0.011883737180074905\r\n"
    b"0.0001,1,lqw:4,14,1.5,36,0.0058387905957075856\r\n"
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

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([(0.1, 1.0), (0.01, 0.0), (0.001, 0.1)])

    def test_noisy_power_law_within_ci(self, rng):
        slope_true = 0.7
        deltas = np.logspace(-1, -6, 12)
        noise = rng.uniform(1.0, 1.1, size=deltas.size)  # multiplicative <= 1.1
        points = list(zip(deltas, 2.0 * deltas**slope_true * noise))
        fit = fit_rate(points)
        assert fit.ci_low <= slope_true <= fit.ci_high

    def test_import_leaves_out_scipy_stats(self):
        # scipy.stats alone takes most of a second to import
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, chebdiff2d; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


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
        result = run_convergence(config)
        trials, reports = every_trial_computed(config)
        assert result.trials == trials
        assert result.reports == reports

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

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing required field"):
            config_from_dict({"deltas": [0.1]})

    def test_deltas_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            small_config(deltas=(1e-3, 1e-2, 1e-4))

    @pytest.mark.parametrize("overrides, message", [
        (dict(trials_per_delta=0), r"trials_per_delta must be >= 1"),
        (dict(deltas=()), r"need at least one noise level"),
        (dict(deltas=(0.0,)), r"noise levels must lie in \(0, 1\)"),
        (dict(deltas=(1.0,)), r"noise levels must lie in \(0, 1\)"),
        (dict(deltas=(2.0,)), r"noise levels must lie in \(0, 1\)"),
        (dict(noise_mode="bogus"), r"unknown noise mode 'bogus'"),
        (dict(metrics=()), r"need at least one metric"),
        (dict(metrics=(MetricSpec("l2w"), MetricSpec("sup"), MetricSpec("l2w"))),
         r"metric 'l2w' is given twice"),
    ], ids=["trials-0", "no-deltas", "delta-0", "delta-1", "delta-2",
            "noise-mode", "no-metrics", "repeated-metric"])
    def test_config_checks(self, overrides, message):
        # the checks a config built in code, not parsed, goes through
        with pytest.raises(ValueError, match=message):
            small_config(**overrides)


class TestRunSingle:
    def test_polynomial_derivative_file(self, tmp_path):
        grid = analyze(lambda t, u: t**3, 8, 0)
        src = tmp_path / "input.csv"
        write_coeff_csv(grid, src)
        out = tmp_path / "deriv.csv"
        result = run_single(src, 8, 1.0, 1, out, eval_grid=5)
        probes = np.linspace(-0.95, 0.95, 10)
        for t in probes:
            assert synthesize(result, float(t), 0.1) == pytest.approx(
                3 * t**2, abs=1e-10)
        reread = read_coeff_csv(out)
        assert reread == result
        table = (tmp_path / "deriv.csv.values.csv").read_text().splitlines()
        assert table[0] == "t,tau,value"
        assert len(table) == 1 + 25

    @pytest.mark.parametrize("eval_grid, message", [
        (1, "at least 2 points"), (200_000, "limit MAX_TABLE_ENTRIES = ")])
    def test_value_grid_checked_before_reading(self, tmp_path, eval_grid,
                                               message):
        # reading the missing input would raise FileNotFoundError instead
        out = tmp_path / "deriv.csv"
        with pytest.raises(ValueError, match=message):
            run_single(tmp_path / "missing.csv", 4, 1.0, 1, out,
                       eval_grid=eval_grid)
        assert not out.exists()

    def test_empty_input_gives_zero_output(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("k,j,coeff\n")
        out = tmp_path / "deriv.csv"
        result = run_single(src, 4, 1.0, 1, out)
        assert result.nnz == 0


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

    def test_oracle_detects_corrupted_derivative_constant(self):
        # doubling the degree-0 weight must break the oracle comparison
        from chebdiff2d import ZETA_0, fd_partial_t
        grid = CoeffGrid([((1, 0), 1.0)])
        bad = differentiate_coeffs(grid, 1, zeta0=2 * ZETA_0)
        ts = np.array([0.2, -0.5]); taus = np.array([0.1, 0.8])
        fd = fd_partial_t(grid, 1, ts, taus)
        spectral = np.array([synthesize(bad, t, u) for t, u in zip(ts, taus)])
        assert np.abs(spectral - fd).max() / np.abs(fd).max() > 1e-3


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
                                "error: gamma must be finite and >= 1 "
                                "(got gamma=inf)\n")

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
                                  "2", "--p", "abc"], "argument --p: invalid")):
            with pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert message in err
            assert "Traceback" not in err

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
         "MAX_TABLE_ENTRIES"),
        ("big.json", '{"max_k": 1000000000, "max_j": 1000000000, '
                     '"entries": []}', 2, "MAX_TABLE_ENTRIES"),
        ("config.json", json.dumps(small_doc(test_function={
            "kind": "class-member", "max_k": 10**12, "max_j": 16})), 1,
         "MAX_TABLE_ENTRIES"),
        ("config.json", json.dumps(small_doc(deltas=[1e-2, 1e-3, 1e-40])), 1,
         "MAX_LEVEL"),
        ("config.json", json.dumps(small_doc(problem={
            "r": 1, "s": 1, "mu1": 3.0, "mu2": 2.0, "p": 2,
            "level_constant": 1e308})), 1, "MAX_LEVEL"),
        ("auto-n", "", 1, "MAX_LEVEL"),
        ("values.csv", "k,j,coeff\n0,0,1.0\n", 1, "MAX_TABLE_ENTRIES"),
    ], ids=["csv", "json", "config-max-k", "config-tiny-delta",
            "config-huge-level-constant", "auto-n-huge-level-constant",
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
        assert err.startswith("error: ") and f"limit {limit} = " in err
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
        (lambda doc: doc["problem"].update(s=math.inf),
         "s must be >= 1 and finite"),
        (lambda doc: doc["problem"].update(mu1=200.0, mu2=199.0)
         or doc.update(gamma=1.0),
         "the class norm overflows for s = 1.0, mu1 = 200.0, mu2 = 199.0"),
    ])
    def test_experiment_malformed_config(self, tmp_path, capsys, edit, field):
        # in process: an exception escaping main() is what prints a traceback
        doc = small_doc()
        doc = edit(doc) or doc
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        code = main(["experiment", "--config", str(cfg_path),
                     "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "out").exists()

    def test_validate_json(self):
        proc = self.run_cli("validate", "--json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert all(entry["passed"] for entry in doc)
