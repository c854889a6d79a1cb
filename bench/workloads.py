"""The two benchmark workloads: inputs, one round of work, output checks.

Each workload is a ``Workload`` with three steps:

* ``prepare(seed, workdir, write)`` builds the inputs from the seed and,
  with ``write``, writes the input files; it is the part timed as set-up;
* ``run_round(inputs)`` does one round of the same operations through
  chebdiff2d's public API and returns a ``Round``;
* ``check(inputs, outputs)`` compares the last round's outputs with
  properties and with the independent oracle and returns the problems found.

chebdiff2d is looked up as ``cd.<name>`` at call time, so a tracer that
rebinds the package's functions sees the calls.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import chebdiff2d as cd
import oracle
from chebdiff2d import cli

DELTAS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5)
TRIALS = 10
GAMMA = 1.5
MEMBER_SEED = 42     # acceptance seeds, reproduced by --seed 0
NOISE_SEED = 1000
SLOPE_TOL = {"l2w": 0.10, "sup": 0.12, "lqw": 0.12}
ERROR_RTOL = 1e-10
NOISE_ATOL = 1e-12
OUTPUT_RTOL = 1e-12
CLI_BOX = 512
CLI_EVAL_GRID = 257


@dataclass
class Round:
    """One round: wall time of each pass, operations attempted and failed."""

    pass_walls: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object
    run_round: object
    check: object


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# rate sweeps

def _sweep_config(mu1, mu2, metrics, mode, member_seed, noise_seed):
    """Built like tests/test_acceptance.py::rate_config, metrics and seeds aside."""
    problem = cd.ProblemSpec(r=1, wiener=cd.WienerSpec(s=1.0, mu1=mu1, mu2=mu2),
                             noise_p=2.0, metric=metrics[0])
    return cd.ExperimentConfig(
        problem=problem,
        deltas=DELTAS,
        gamma=GAMMA,
        test_function=cd.TestFunctionSpec(kind="class-member", seed=member_seed,
                                          max_k=256, max_j=256, epsilon=0.01),
        metrics=tuple(metrics),
        trials_per_delta=TRIALS,
        noise_mode=mode,
        noise_seed=noise_seed,
    )


def prepare_topweight(seed: int, workdir: Path, write: bool = True):
    member, noise = MEMBER_SEED + seed, NOISE_SEED + seed
    mode = cd.NOISE_TOPWEIGHT
    return [
        _sweep_config(3.0, 2.0, [cd.MetricSpec("l2w")], mode, member, noise),
        _sweep_config(3.5, 3.0, [cd.MetricSpec("sup", eval_grid=257)], mode,
                      member, noise),
        _sweep_config(3.0, 2.0, [cd.MetricSpec("lqw", q=4.0)], mode, member, noise),
    ]


def run_sweeps(configs) -> Round:
    """One round is every sweep of the workload, run back to back."""
    out = Round(outputs=[])
    wall = 0.0
    for config in configs:
        trials = len(config.deltas) * config.trials_per_delta
        out.attempted += trials
        try:
            result, seconds = _timed(cd.run_convergence, config)
        except ValueError:
            out.failed += trials
            continue
        wall += seconds
        out.outputs.append((config, result))
    out.pass_walls.append(wall)
    return out


def _check_sweep(config, result) -> list[str]:
    problems = []
    prob = config.problem
    wiener = prob.wiener
    true_grid = cd.make_class_member(wiener, config.test_function.max_k,
                                     config.test_function.max_j,
                                     config.test_function.seed,
                                     config.test_function.epsilon)
    true_dense = true_grid.to_dense()
    reference = oracle.derivative(true_dense, prob.r)
    records = {(rec.delta, rec.trial, rec.metric): rec for rec in result.trials}

    for metric in config.metrics:
        label = metric.label
        report = result.reports[label]
        want = oracle.exponent(metric.kind, wiener.mu1, wiener.s, prob.noise_p,
                               prob.r, metric.q)
        if abs(report.theoretical_slope - want) > 1e-12:
            problems.append(f"{label}: predicted slope {report.theoretical_slope} "
                            f"!= {want}")
        means = [row.mean_error for row in report.rows]
        slope = oracle.loglog_slope([row.delta for row in report.rows], means)
        if abs(slope - report.fitted_slope) > 1e-9:
            problems.append(f"{label}: fitted slope {report.fitted_slope} != "
                            f"least squares {slope}")
        if abs(report.fitted_slope - want) > SLOPE_TOL[metric.kind]:
            problems.append(f"{label}: slope {report.fitted_slope:.4f} not within "
                            f"{SLOPE_TOL[metric.kind]} of {want:.4f}")

    for index, delta in enumerate(config.deltas):
        trial = index % config.trials_per_delta
        n = oracle.level(delta, wiener.mu1, wiener.s, prob.noise_p, prob.r,
                         prob.level_constant)
        noise = cd.NoiseSpec(p=prob.noise_p, delta=delta, mode=config.noise_mode,
                             seed=config.noise_seed + trial)
        cross = cd.build_cross(n, config.gamma, prob.r)
        perturbed = cd.perturb(true_grid, noise, cross).to_dense()
        xi = oracle.subtract(perturbed, true_dense)
        mask = oracle.cross_mask(xi.shape, n, config.gamma, prob.r)
        lp = float(np.sum(np.abs(xi[mask]) ** prob.noise_p) ** (1.0 / prob.noise_p))
        if abs(lp - delta) > NOISE_ATOL or np.any(xi[~mask]):
            problems.append(f"delta={delta:g}: noise l_p norm {lp!r} or support off")
        approx = oracle.truncated_derivative(perturbed, n, config.gamma, prob.r)
        error = oracle.subtract(approx, reference)
        for metric in config.metrics:
            rec = records[(delta, trial, metric.label)]
            if rec.n != n or rec.cardinality != oracle.cross_size(n, config.gamma, prob.r):
                problems.append(f"delta={delta:g}: level {rec.n} or cardinality "
                                f"{rec.cardinality} differs from the set definition")
            want = oracle.metric(error, metric.kind, metric.q, metric.eval_grid)
            if abs(rec.error - want) > ERROR_RTOL * abs(want):
                problems.append(f"delta={delta:g} trial {trial} {metric.label}: "
                                f"error {rec.error!r} != oracle {want!r}")
    return problems


def check_topweight(configs, outputs) -> list[str]:
    return [p for config, result in outputs for p in _check_sweep(config, result)]


# ---------------------------------------------------------------------------
# single-shot CLI commands: differentiate and validate

# (input format, n, r, with --eval-grid): each setting of each factor twice
CLI_CALLS = (("csv", 16, 1, False), ("csv", 256, 2, True),
             ("json", 16, 2, True), ("json", 256, 1, False))
VALIDATE_ARGV = ["validate", "--json"]


def _cli(argv) -> tuple[int, str]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, sink.getvalue()


def prepare_commands(seed: int, workdir: Path, write: bool = True):
    member = cd.make_class_member(cd.WienerSpec(s=1.0, mu1=3.0, mu2=2.0),
                                  CLI_BOX, CLI_BOX, MEMBER_SEED + seed)
    paths = {"csv": workdir / "member.csv", "json": workdir / "member.json"}
    if write:
        cd.write_coeff_csv(member, paths["csv"])
        cd.write_coeff_json(member, paths["json"])
    calls = []
    for index, (fmt, n, r, values) in enumerate(CLI_CALLS):
        output = workdir / f"deriv-{index}.csv"
        argv = ["differentiate", "--input", str(paths[fmt]), "--r", str(r),
                "--n", str(n), "--gamma", str(GAMMA), "--output", str(output)]
        if values:
            argv += ["--eval-grid", str(CLI_EVAL_GRID)]
        calls.append((argv, n, r, values, output))
    return {"dense": member.to_dense(), "calls": calls}


def run_commands(inputs) -> Round:
    """One round is the four calls of CLI_CALLS and one ``validate --json``.

    The operations are the differentiate calls (failed when the exit code
    is not 0) and the validate checks (failed when one reports
    ``passed: false``).
    """
    start = time.perf_counter()
    codes = [_cli(argv)[0] for argv, *_ in inputs["calls"]]
    code, text = _cli(VALIDATE_ARGV)
    out = Round(pass_walls=[time.perf_counter() - start])
    try:
        results = json.loads(text)
    except json.JSONDecodeError:
        results = [{"passed": False}]
    checks_failed = sum(not res["passed"] for res in results)
    out.attempted = len(codes) + len(results)
    out.failed = sum(c != 0 for c in codes) + checks_failed
    out.outputs = {"codes": codes, "validate": (code, checks_failed)}
    return out


def _read_coeffs(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["k", "j", "coeff"]:
        raise ValueError(f"{path}: header {rows[0]}")
    ks = np.array([int(r[0]) for r in rows[1:]], dtype=int)
    js = np.array([int(r[1]) for r in rows[1:]], dtype=int)
    out = np.zeros((ks.max(initial=0) + 1, js.max(initial=0) + 1))
    out[ks, js] = [float(r[2]) for r in rows[1:]]
    return out


def check_commands(inputs, outputs) -> list[str]:
    problems = []
    for (argv, n, r, values, output), code in zip(inputs["calls"], outputs["codes"]):
        if code != 0:
            continue
        want = oracle.truncated_derivative(inputs["dense"], n, GAMMA, r)
        gap = oracle.relative_gap(_read_coeffs(output), want)
        if gap > OUTPUT_RTOL:
            problems.append(f"{output.name}: coefficients off by {gap:.3e}")
        if values:
            table = np.loadtxt(f"{output}.values.csv", delimiter=",", skiprows=1)
            nodes = oracle.cosine_nodes(CLI_EVAL_GRID)
            grid_t, grid_tau = np.meshgrid(nodes, nodes, indexing="ij")
            expect = oracle.values(want, nodes, nodes).ravel()
            scale = float(np.abs(expect).max())
            off = float(np.abs(table[:, 2] - expect).max()) / scale
            if (table.shape != (CLI_EVAL_GRID**2, 3) or off > OUTPUT_RTOL
                    or np.abs(table[:, 0] - grid_t.ravel()).max() > 1e-15
                    or np.abs(table[:, 1] - grid_tau.ravel()).max() > 1e-15):
                problems.append(f"{output.name}.values.csv: values off by {off:.3e}")
    code, checks_failed = outputs["validate"]
    if code != (1 if checks_failed else 0):
        problems.append(f"validate exited {code} with {checks_failed} failed checks")
    return problems


WORKLOADS = {
    "sweep-topweight": Workload("sweep-topweight", prepare_topweight, run_sweeps,
                                check_topweight),
    "commands": Workload("commands", prepare_commands, run_commands, check_commands),
}
