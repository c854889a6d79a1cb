"""Experiment engine: single-shot differentiation runs, noise-level sweeps
with log-log rate fitting, and the executable validation suite.

A convergence experiment builds a test function in coefficient space,
perturbs its coefficients on the truncation cross at each noise level,
applies the truncated derivative, and measures the error against the exact
derivative (the untruncated coefficient derivative of the unperturbed grid)
in the requested metrics.  The fitted slope of log(error) versus log(delta)
is then compared with the predicted exponent.

Everything is deterministic: identical configuration and seeds reproduce
reports bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass

import numpy as np
from scipy.special import stdtrit

from .basis import (basis_matrix, eval_orthonormal, gauss_chebyshev_nodes,
                    peak_value)
from .diffop import ZETA_0, differentiate_coeffs, truncated_derivative
from .hypercross import build_cross, cardinality
from .model import (NOISE_MODES, NOISE_UNIFORM, SEED_INDEPENDENT_MODES,
                    NoiseSpec, WienerSpec, lp_norm, make_class_member, perturb,
                    wiener_norm)
from .norms import (MetricSpec, cosine_grid, evaluate_metric, l2_omega_norm,
                    lq_coefficient_bound, lq_omega_norm,
                    nikolskii_explicit_bound, parse_metric, sup_norm)
from .transform import (MAX_TABLE_ENTRIES, CoeffGrid, analyze,
                        grid_synthesize, read_coeff_file, synthesize,
                        write_coeff_csv, write_csv_table)
from .tuning import (ProblemSpec, choose_n, gamma_admissible, gamma_range,
                     theoretical_rate, validate_spec, with_metric)

# ---------------------------------------------------------------------------
# test functions

#: The kinds a :class:`TestFunctionSpec` accepts.
TEST_FUNCTION_KINDS = ("class-member", "named-analytic")

#: Named analytic test functions: id -> (callable, box_k, box_j).  The box
#: degrees are chosen so the analysis truncation error of these entire
#: functions sits far below roundoff.
ANALYTIC_FUNCTIONS = {
    "exp-cos": (lambda t, tau: math.exp(t) * math.cos(tau), 40, 40),
    "exp-cos-pi2": (lambda t, tau: math.exp(t) * math.cos(math.pi * tau / 2.0),
                    40, 40),
}


@dataclass(frozen=True)
class TestFunctionSpec:
    """Either a synthetic class member or a named analytic function."""

    __test__ = False  # a library class, not a pytest test class

    kind: str  # "class-member" | "named-analytic"
    seed: int = 0
    max_k: int = 256
    max_j: int = 256
    epsilon: float = 0.01
    name: str | None = None

    def __post_init__(self):
        if self.kind not in TEST_FUNCTION_KINDS:
            raise ValueError(f"unknown test function kind {self.kind!r}")
        if self.kind == "named-analytic" and self.name not in ANALYTIC_FUNCTIONS:
            raise ValueError(f"unknown analytic function {self.name!r}; "
                             f"known: {sorted(ANALYTIC_FUNCTIONS)}")

    def build(self, wiener: WienerSpec) -> CoeffGrid:
        if self.kind == "class-member":
            return make_class_member(wiener, self.max_k, self.max_j,
                                     self.seed, self.epsilon)
        f, box_k, box_j = ANALYTIC_FUNCTIONS[self.name]
        return analyze(f, box_k, box_j)


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    deltas: tuple[float, ...]
    gamma: float
    test_function: TestFunctionSpec
    metrics: tuple[MetricSpec, ...]
    trials_per_delta: int = 10
    noise_mode: str = NOISE_UNIFORM
    noise_seed: int = 0
    output_path: str | None = None

    def __post_init__(self):
        if self.trials_per_delta < 1:
            raise ValueError("trials_per_delta must be >= 1")
        if not self.deltas:
            raise ValueError("need at least one noise level")
        for d in self.deltas:
            if not 0.0 < d < 1.0:
                raise ValueError("noise levels must lie in (0, 1)")
        if any(a <= b for a, b in zip(self.deltas, self.deltas[1:])):
            raise ValueError("noise levels must be strictly decreasing")
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.noise_mode!r}")
        if not self.metrics:
            raise ValueError("need at least one metric")
        # two metrics with one label would share that label's rows
        labels = [metric.label for metric in self.metrics]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValueError(f"configuration field 'metrics': metric "
                                 f"{label!r} is given twice")


def parse_p(value) -> float:
    """Noise norm index from config/CLI: a number, or the string "inf"."""
    if value == "inf":
        return math.inf
    return float(value)


def _field(section: dict, key: str, convert, where: str = ""):
    """``convert(section[key])``.

    A missing key, or a value ``convert`` rejects with TypeError or
    ValueError, is a ValueError naming the field ``where + key``.
    """
    if key not in section:
        raise ValueError(f"configuration is missing required field "
                         f"{where + key!r}")
    try:
        return convert(section[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"configuration field {where + key!r}: {exc}") from None


def _optional(section: dict, where: str = "", **converters) -> dict:
    """Each ``key=convert`` whose key ``section`` holds, read by
    :func:`_field`.  An absent key is left out, so the dataclass field it
    fills keeps its default."""
    return {key: _field(section, key, convert, where)
            for key, convert in converters.items() if key in section}


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("expected a JSON object")
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _one_of(what: str, options):
    """Converter for a string among ``options``; ``what`` names it in the
    message, as in "unknown noise mode 'x'"."""
    def parse(value) -> str:
        if _text(value) not in options:
            raise ValueError(f"unknown {what} {value!r} "
                             f"(expected {', '.join(options)})")
        return value
    return parse


def _list_of(convert):
    """Converter for a nonempty JSON array whose items pass ``convert``."""
    def parse(value) -> tuple:
        if not isinstance(value, list) or not value:
            raise TypeError("expected a nonempty JSON array")
        return tuple(convert(item) for item in value)
    return parse


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from the JSON configuration document.

    Every field is checked as it is read: a missing or malformed one is a
    ValueError that names it.
    """
    if not isinstance(doc, dict):
        raise ValueError("configuration must be a JSON object")
    prob = _field(doc, "problem", _object)
    wiener = WienerSpec(s=_field(prob, "s", _number, "problem."),
                        mu1=_field(prob, "mu1", _number, "problem."),
                        mu2=_field(prob, "mu2", _number, "problem."))
    metrics = (_field(doc, "metrics", _list_of(lambda m: parse_metric(_text(m))))
               if "metrics" in doc else (parse_metric("l2w"),))
    problem = ProblemSpec(
        r=_field(prob, "r", _integer, "problem."),
        wiener=wiener,
        noise_p=_field(prob, "p", parse_p, "problem."),
        metric=metrics[0],
        **_optional(prob, "problem.", level_constant=_number),
    )
    tf = _field(doc, "test_function", _object)
    kind = _field(tf, "kind", _one_of("test function kind", TEST_FUNCTION_KINDS),
                  "test_function.")
    if kind == "class-member":
        test_function = TestFunctionSpec(kind=kind, **_optional(
            tf, "test_function.", seed=_integer, max_k=_integer,
            max_j=_integer, epsilon=_number))
    else:
        test_function = _field(
            tf, "id", lambda v: TestFunctionSpec(kind=kind, name=_text(v)),
            "test_function.")
    noise = _field(doc, "noise", _object) if "noise" in doc else {}
    noise_fields = _optional(noise, "noise.", seed=_integer,
                             mode=_one_of("noise mode", NOISE_MODES))
    return ExperimentConfig(
        problem=problem,
        deltas=_field(doc, "deltas", _list_of(_number)),
        gamma=_field(doc, "gamma", _number),
        test_function=test_function,
        metrics=metrics,
        **_optional(doc, trials_per_delta=_integer,
                    output_path=lambda v: v if v is None else _text(v)),
        **{"noise_" + key: value for key, value in noise_fields.items()},
    )


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# rate fitting

@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    ci_low: float
    ci_high: float


def fit_rate(points) -> RateFit:
    """Ordinary least squares of log(error) against log(delta).

    Needs at least three points with positive delta and error; the 95%
    confidence interval comes from the standard regression formulas (it
    degenerates to the point estimate when the fit is exact).
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("rate fitting needs at least 3 points")
    if any(d <= 0 or e <= 0 for d, e in pts):
        raise ValueError("rate fitting needs positive noise levels and errors")
    x = np.log([d for d, _ in pts])
    y = np.log([e for _, e in pts])
    n = len(pts)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (intercept + slope * x)
    s2 = float(np.sum(resid**2)) / (n - 2)
    se = math.sqrt(s2 / sxx)
    tq = float(stdtrit(n - 2, 0.975))  # Student-t 97.5 % quantile
    return RateFit(slope, intercept, slope - tq * se, slope + tq * se)


# ---------------------------------------------------------------------------
# convergence experiments

@dataclass(frozen=True)
class RateRow:
    delta: float
    mean_error: float
    std_error: float
    n_used: int
    cardinality: int


@dataclass(frozen=True)
class TrialRecord:
    delta: float
    trial: int
    metric: str
    n: int
    gamma: float
    cardinality: int
    error: float


@dataclass(frozen=True)
class RateReport:
    """Per-metric sweep summary: rows sorted by descending noise level."""

    metric: str
    rows: tuple[RateRow, ...]
    fitted_slope: float
    intercept: float
    slope_ci: tuple[float, float]
    theoretical_slope: float


@dataclass(frozen=True)
class ExperimentResult:
    reports: dict[str, RateReport]
    trials: tuple[TrialRecord, ...]


def _check_config(config: ExperimentConfig) -> None:
    for metric in config.metrics:
        spec = with_metric(config.problem, metric)
        violations = validate_spec(spec)
        if violations:
            raise ValueError(f"inadmissible spec for metric {metric.label}: "
                             + "; ".join(violations))
        if not gamma_admissible(spec, config.gamma):
            rng = gamma_range(spec)
            raise ValueError(f"gamma={config.gamma} outside admissible range "
                             f"[{rng[0]}, {rng[1]}) for metric {metric.label}")


def run_convergence(config: ExperimentConfig) -> ExperimentResult:
    """Run the noise-level sweep and fit one rate per requested metric."""
    _check_config(config)
    problem = config.problem
    # building a cross checks its level, so every level is checked first
    crosses = [build_cross(choose_n(delta, problem), config.gamma, problem.r)
               for delta in config.deltas]
    true_grid = config.test_function.build(problem.wiener)
    reference = differentiate_coeffs(true_grid, problem.r)

    # a seed-independent mode gives every trial at a level the same noise,
    # so trial 0 is computed and the later trials repeat its values
    seeded = config.noise_mode not in SEED_INDEPENDENT_MODES
    trials: list[TrialRecord] = []
    per_metric_rows: dict[str, list[RateRow]] = {m.label: [] for m in config.metrics}
    for delta, cross in zip(config.deltas, crosses):
        n, card = cross.n, len(cross)
        errors: dict[str, list[float]] = {m.label: [] for m in config.metrics}
        for trial in range(config.trials_per_delta):
            if trial == 0 or seeded:
                noise = NoiseSpec(p=problem.noise_p, delta=delta,
                                  mode=config.noise_mode,
                                  seed=config.noise_seed + trial)
                perturbed = perturb(true_grid, noise, cross)
                approx = truncated_derivative(perturbed, n, config.gamma, problem.r)
                err_grid = approx - reference
                values = [evaluate_metric(err_grid, m) for m in config.metrics]
            for metric, value in zip(config.metrics, values):
                errors[metric.label].append(value)
                trials.append(TrialRecord(delta, trial, metric.label, n,
                                          config.gamma, card, value))
        for metric in config.metrics:
            vals = np.array(errors[metric.label])
            per_metric_rows[metric.label].append(
                RateRow(delta, float(vals.mean()), float(vals.std()), n, card))

    reports: dict[str, RateReport] = {}
    for metric in config.metrics:
        rows = per_metric_rows[metric.label]
        fit = fit_rate([(row.delta, row.mean_error) for row in rows])
        reports[metric.label] = RateReport(
            metric=metric.label,
            rows=tuple(rows),
            fitted_slope=fit.slope,
            intercept=fit.intercept,
            slope_ci=(fit.ci_low, fit.ci_high),
            theoretical_slope=theoretical_rate(with_metric(problem, metric)),
        )
    return ExperimentResult(reports=reports, trials=tuple(trials))


def write_trials_csv(trials, path) -> None:
    # the columns are the TrialRecord fields, in order
    write_csv_table(path, "delta,trial,metric,n,gamma,cardinality,error",
                    "%.17g,%d,%s,%d,%.17g,%d,%.17g",
                    *zip(*map(astuple, trials)))


def report_json_dict(result: ExperimentResult) -> dict:
    return {label: asdict(report) for label, report in result.reports.items()}


# ---------------------------------------------------------------------------
# single-shot runs

def run_single(coeff_input, n: int, gamma: float, r: int, output,
               eval_grid: int | None = None):
    """Differentiate a coefficient file and write the result.

    Reads the input grid (CSV or JSON by suffix), applies the truncated
    derivative, writes the output coefficients as CSV, and optionally
    evaluates the derivative on an eval_grid x eval_grid cosine tensor grid
    (written next to the output as ``<output>.values.csv``).  Returns the
    derivative grid.  The value grid is checked before the input is read:
    it needs at least 2 and at most MAX_TABLE_ENTRIES points.
    """
    if eval_grid is not None:
        if eval_grid * eval_grid > MAX_TABLE_ENTRIES:
            raise ValueError(f"a {eval_grid} x {eval_grid} value grid exceeds "
                             f"the limit MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES}")
        nodes = cosine_grid(eval_grid)
    grid = read_coeff_file(coeff_input)
    result = truncated_derivative(grid, n, gamma, r)
    write_coeff_csv(result, output)
    if eval_grid is not None:
        values = grid_synthesize(result, nodes, nodes)
        write_csv_table(f"{output}.values.csv", "t,tau,value",
                        "%.17g,%.17g,%.17g", np.repeat(nodes, nodes.size),
                        np.tile(nodes, nodes.size), values.ravel())
    return result


# ---------------------------------------------------------------------------
# finite-difference oracle

_LD = np.longdouble
_FD_STEP = 1e-5


def _synthesize_longdouble(coeffs: CoeffGrid, ts: np.ndarray,
                           taus: np.ndarray) -> np.ndarray:
    """Extended-precision evaluation at paired points, independent of the
    production (double/BLAS) synthesis path."""
    inv_sqrt_pi = 1.0 / np.sqrt(_LD(np.pi))
    sqrt_2_pi = np.sqrt(_LD(2.0) / _LD(np.pi))
    kd = np.arange(coeffs.max_k + 1, dtype=_LD)
    jd = np.arange(coeffs.max_j + 1, dtype=_LD)
    bt = np.cos(np.outer(np.arccos(ts.astype(_LD)), kd)) * sqrt_2_pi
    bt[:, 0] = inv_sqrt_pi
    btau = np.cos(np.outer(np.arccos(taus.astype(_LD)), jd)) * sqrt_2_pi
    btau[:, 0] = inv_sqrt_pi
    dense = coeffs.to_dense().astype(_LD)
    return np.einsum("pk,kj,pj->p", bt, dense, btau)


def fd_partial_t(coeffs: CoeffGrid, r: int, ts, taus) -> np.ndarray:
    """Central-difference r-th partial derivative in t of the synthesized
    surface at paired points (ts[i], taus[i]).

    Second-order stencils of step h = _FD_STEP, evaluated in extended
    precision, keep the h**(-r) roundoff amplification below the comparison
    tolerances for r <= 3.  Points must stay at least 2h inside [-1, 1].
    """
    if r not in (1, 2, 3):
        raise ValueError("finite-difference oracle supports r in {1, 2, 3}")
    ts = np.asarray(ts, dtype=float)
    taus = np.asarray(taus, dtype=float)
    if np.any(np.abs(ts) > 1.0 - 2.5 * _FD_STEP):
        raise ValueError("probe points must stay at least 2h inside [-1, 1]")
    hl = _LD(_FD_STEP)

    def f(shift):
        return _synthesize_longdouble(coeffs, (ts.astype(_LD) + shift), taus)

    if r == 1:
        vals = (f(hl) - f(-hl)) / (2 * hl)
    elif r == 2:
        vals = (f(hl) - 2 * f(_LD(0.0)) + f(-hl)) / (hl * hl)
    else:
        vals = (f(2 * hl) - 2 * f(hl) + 2 * f(-hl) - f(-2 * hl)) / (2 * hl**3)
    return vals.astype(float)


# ---------------------------------------------------------------------------
# validation suite

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    detail: str


def _probe_points(rng: np.random.Generator, count: int):
    return (rng.uniform(-0.9, 0.9, size=count),
            rng.uniform(-1.0, 1.0, size=count))


def _random_grid(rng: np.random.Generator, max_k: int, max_j: int) -> CoeffGrid:
    return CoeffGrid.from_dense(
        rng.uniform(-1.0, 1.0, size=(max_k + 1, max_j + 1)))


def _derivative_oracle_residual(zeta0: float) -> float:
    """Worst relative deviation between the coefficient derivative (built
    with the given degree-0 weight) and extended-precision finite
    differences, over the two lowest-degree inputs."""
    rng = np.random.default_rng(1729)
    ts, taus = _probe_points(rng, 10)
    worst = 0.0
    for k in (1, 2):
        grid = CoeffGrid([((k, 0), 1.0)])
        deriv = differentiate_coeffs(grid, 1, zeta0=zeta0)
        spectral = np.array([synthesize(deriv, t, u) for t, u in zip(ts, taus)])
        fd = fd_partial_t(grid, 1, ts, taus)
        scale = max(np.abs(fd).max(), 1e-30)
        worst = max(worst, float(np.abs(spectral - fd).max() / scale))
    return worst


def _check_zeta0() -> CheckResult:
    candidates = {
        "1/sqrt(2)": 1.0 / math.sqrt(2.0),
        "sqrt(2)": math.sqrt(2.0),
    }
    residuals = {name: _derivative_oracle_residual(value)
                 for name, value in candidates.items()}
    chosen = min(residuals, key=residuals.get)
    ok = (math.isclose(candidates[chosen], ZETA_0)
          and residuals[chosen] <= 1e-12
          and min(v for n, v in residuals.items() if n != chosen) > 1e-3)
    detail = (f"oracle selects zeta0 = {chosen} "
              f"(residuals: " + ", ".join(f"{n}: {v:.3e}"
                                          for n, v in residuals.items())
              + f"); built-in constant {ZETA_0:.12f}")
    return CheckResult("derivative-zeta0-resolution", ok, residuals[chosen], detail)


def _check_orthonormality() -> CheckResult:
    deg = 24
    b = basis_matrix(deg, gauss_chebyshev_nodes(deg + 1))
    gram = b.T @ (math.pi / (deg + 1) * b)
    dev = float(np.abs(gram - np.eye(deg + 1)).max())
    return CheckResult("basis-gram-identity", dev <= 1e-12, dev,
                       f"max |Gram - I| over degrees 0..{deg}")


def _check_quadrature() -> CheckResult:
    rng = np.random.default_rng(7)
    n_nodes = 8
    nodes = gauss_chebyshev_nodes(n_nodes)
    # exact weighted monomial integrals: I_0 = pi, I_m = I_{m-2}*(m-1)/m
    exact = [math.pi, 0.0]
    for m in range(2, 2 * n_nodes):
        exact.append(exact[m - 2] * (m - 1) / m if m % 2 == 0 else 0.0)
    worst = 0.0
    for _ in range(20):
        coeffs = rng.uniform(-1, 1, size=2 * n_nodes)
        quad = float(np.sum(math.pi / n_nodes
                            * np.polynomial.polynomial.polyval(nodes, coeffs)))
        ref = math.fsum(c * i for c, i in zip(coeffs, exact))
        worst = max(worst, abs(quad - ref) / max(abs(ref), 1e-12))
    return CheckResult("quadrature-monomial-exactness", worst <= 1e-11, worst,
                       f"worst relative error, degree <= {2 * n_nodes - 1}")


def _check_peak_bound() -> CheckResult:
    rng = np.random.default_rng(11)
    worst = -math.inf
    for _ in range(10_000):
        k = int(rng.integers(0, 60))
        t = float(rng.uniform(-1, 1))
        worst = max(worst, abs(eval_orthonormal(k, t)) - peak_value(k))
    return CheckResult("basis-peak-bound", worst <= 1e-14, worst,
                       "max(|T_k(t)| - T_k(1)) over 10^4 samples")


def _check_roundtrip() -> CheckResult:
    rng = np.random.default_rng(13)
    grid = _random_grid(rng, 16, 16)
    back = analyze(lambda t, u: synthesize(grid, t, u), 16, 16)
    dev = float(np.abs(back.to_dense() - grid.to_dense()).max())
    return CheckResult("analyze-synthesize-roundtrip", dev <= 1e-11, dev,
                       "max coefficient deviation, 16x16 box")


def _check_parseval() -> CheckResult:
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        grid = _random_grid(rng, 20, 20)
        a = l2_omega_norm(grid)
        b = lq_omega_norm(grid, 2.0)
        worst = max(worst, abs(a - b) / a)
    return CheckResult("parseval-consistency", worst <= 1e-10, worst,
                       "coefficient vs quadrature L2, 20 random grids")


def _check_cross() -> CheckResult:
    spots = (cardinality(4, 1.0, 1), cardinality(4, 2.0, 1),
             cardinality(3, 1.7, 3))
    ok = spots == (12, 9, 2)
    rng = np.random.default_rng(19)
    agree = True
    for _ in range(500):
        r = int(rng.integers(1, 4))
        n = int(rng.integers(r, 40))
        gamma = float(rng.uniform(1.0, 3.0))
        cross = build_cross(n, gamma, r)
        # k * j <= k * j**gamma <= n, so no j above n // k can belong
        brute = {(k, j) for k in range(r, n + 1) for j in range(n // k + 1)
                 if j == 0 or k * float(j) ** gamma <= n * (1 + 1e-12)}
        agree = agree and set(cross) == brute and len(cross) == len(brute)
    return CheckResult("cross-enumeration", ok and agree,
                       float(spots[0]),
                       f"spot cardinalities {spots}, fuzz agreement: {agree}")


def _check_cross_growth() -> CheckResult:
    ns = [2**e for e in range(10, 18)]
    ratio2 = [cardinality(n, 2.0, 1) / n for n in ns]
    ratio1 = [cardinality(n, 1.0, 1) / (n * math.log(n)) for n in ns]
    spread2 = max(ratio2) / min(ratio2)
    spread1 = max(ratio1) / min(ratio1)
    ok = spread2 < 4.0 and spread1 < 4.0
    return CheckResult("cross-cardinality-growth", ok, max(spread1, spread2),
                       f"bracket spreads gamma=2: {spread2:.3f}, "
                       f"gamma=1: {spread1:.3f}")


def _check_derivative_oracle() -> CheckResult:
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(10):
        grid = _random_grid(rng, 10, 10)
        for r in (1, 2, 3):
            deriv = differentiate_coeffs(grid, r)
            ts, taus = _probe_points(rng, 20)
            spectral = np.array([synthesize(deriv, t, u)
                                 for t, u in zip(ts, taus)])
            fd = fd_partial_t(grid, r, ts, taus)
            worst = max(worst, float(np.abs(spectral - fd).max()
                                     / np.abs(spectral).max()))
    return CheckResult("derivative-fd-oracle", worst <= 1e-5, worst,
                       "relative sup deviation, 10 grids x r in {1,2,3}")


def _check_truncation_decay() -> CheckResult:
    f, box_k, box_j = ANALYTIC_FUNCTIONS["exp-cos"]
    grid = analyze(f, box_k, box_j)
    reference = differentiate_coeffs(grid, 1)
    errors = []
    for n in (4, 8, 16):
        approx = truncated_derivative(grid, n, 1.0, 1)
        errors.append(sup_norm(approx - reference, 129))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    ok = all(rho >= 10.0 for rho in ratios)
    return CheckResult("truncation-decay-analytic", ok, min(ratios),
                       f"sup errors {[f'{e:.3e}' for e in errors]} "
                       f"for n in (4, 8, 16)")


def _check_noise_saturation() -> CheckResult:
    worst = 0.0
    cross = build_cross(12, 1.5, 1)
    base = CoeffGrid([((2, 1), 0.7), ((5, 0), -0.3)], 12, 12)
    for p in (1.0, 2.0, 5.0, math.inf):
        for mode in NOISE_MODES:
            noise = NoiseSpec(p=p, delta=0.37, mode=mode, seed=99)
            noise_grid = perturb(base, noise, cross) - base
            xi = [noise_grid.get(k, j) for k, j in cross]
            worst = max(worst, abs(lp_norm(xi, p) - 0.37))
    return CheckResult("noise-lp-saturation", worst <= 1e-12, worst,
                       "max |lp(noise) - delta| over p and modes")


def _check_nikolskii() -> CheckResult:
    rng = np.random.default_rng(29)
    bound = nikolskii_explicit_bound(16, 16)
    worst = 0.0
    for _ in range(200):
        grid = _random_grid(rng, 16, 16)
        ratio = sup_norm(grid, 257) / (bound * l2_omega_norm(grid))
        worst = max(worst, ratio)
    return CheckResult("nikolskii-explicit-bound", worst <= 1.0, worst,
                       "max sup / (bound * L2) over 200 random polynomials")


def _check_lq_bound_constant() -> CheckResult:
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(60):
        grid = _random_grid(rng, 12, 12)
        for q in (2.0, 4.0, 8.0):
            worst = max(worst, lq_omega_norm(grid, q)
                        / lq_coefficient_bound(grid, q))
    return CheckResult("lq-coefficient-bound-constant", worst <= 3.0, worst,
                       "max Lq / coefficient bound over 60 grids, q in {2,4,8}")


def _check_rate_formulas() -> CheckResult:
    wiener = WienerSpec(s=1.0, mu1=3.0, mu2=2.0)
    l2 = ProblemSpec(r=1, wiener=wiener, noise_p=2.0, metric=MetricSpec("l2w"))
    lq2 = with_metric(l2, MetricSpec("lqw", q=2.0))
    same_rate = math.isclose(theoretical_rate(l2), theoretical_rate(lq2))
    same_gamma = math.isclose(gamma_range(l2)[1], gamma_range(lq2)[1])
    member = make_class_member(wiener, 32, 32, seed=5)
    unit = abs(wiener_norm(member, wiener) - 1.0)
    ok = same_rate and same_gamma and unit <= 1e-12
    return CheckResult("tuning-and-member-consistency", ok, unit,
                       f"Lq(q=2) matches L2 formulas: {same_rate and same_gamma}; "
                       f"|member norm - 1| = {unit:.2e}")


_CHECKS = (
    _check_zeta0,
    _check_orthonormality,
    _check_quadrature,
    _check_peak_bound,
    _check_roundtrip,
    _check_parseval,
    _check_cross,
    _check_cross_growth,
    _check_derivative_oracle,
    _check_truncation_decay,
    _check_noise_saturation,
    _check_nikolskii,
    _check_lq_bound_constant,
    _check_rate_formulas,
)


def validate_suite() -> list[CheckResult]:
    """Run every invariant check; failures are entries, never exceptions."""
    results = []
    for check in _CHECKS:
        try:
            results.append(check())
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(check.__name__.strip("_"), False,
                                       math.nan, f"raised {exc!r}"))
    return results
