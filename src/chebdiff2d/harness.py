"""Experiment engine: noise-level sweeps with log-log rate fitting, the
derivative oracle and the executable validation suite.  It opens no file:
the command line (:mod:`chebdiff2d.cli`) reads and writes them.

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

import functools
import math
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext

import numpy as np

from .basis import (_check_table_size, _interval, _one_of, _shown, _size,
                    basis_matrix, gauss_chebyshev_nodes)
from .diffop import ZETA_0, differentiate_coeffs, truncated_derivative
from .hypercross import build_cross, cardinality
from .model import (NOISE_MODES, NOISE_UNIFORM, SEED_INDEPENDENT_MODES,
                    NoiseSpec, WienerSpec, lp_norm, make_class_member, perturb,
                    wiener_norm)
from .norms import (MetricSpec, _error_metrics, _grid, l2_omega_norm,
                    lq_coefficient_bound, lq_omega_norm,
                    nikolskii_explicit_bound, parse_metric, sup_norm)
from .transform import CoeffGrid, analyze, synthesize
from .tuning import ProblemSpec, choose_n, gamma_range, theoretical_rate

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
        _one_of("test function kind", TEST_FUNCTION_KINDS)(self.kind)
        if self.kind == "named-analytic":
            _one_of("analytic function", tuple(ANALYTIC_FUNCTIONS))(self.name)

    def build(self, wiener: WienerSpec) -> CoeffGrid:
        if self.kind == "class-member":
            return make_class_member(wiener, self.max_k, self.max_j,
                                     self.seed, self.epsilon)
        f, box_k, box_j = ANALYTIC_FUNCTIONS[self.name]
        return analyze(f, box_k, box_j)


# ---------------------------------------------------------------------------
# configuration

#: Most trial records (deltas x trials x metrics) a sweep keeps: about
#: 0.5 GB at 0.5 KB a record.
MAX_TRIAL_RECORDS = 2 ** 20


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    deltas: tuple[float, ...]
    gamma: float
    test_function: TestFunctionSpec
    metrics: tuple[MetricSpec, ...] = (MetricSpec("l2w"),)
    trials_per_delta: int = 10
    noise_mode: str = NOISE_UNIFORM
    noise_seed: int = 0
    output_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "trials_per_delta",
                           _size(self.trials_per_delta, "trials_per_delta", 1))
        if not self.deltas:
            raise ValueError("need at least one noise level")
        for d in self.deltas:
            _interval(d, "noise levels", 0, 1, "()")
        if any(a <= b for a, b in zip(self.deltas, self.deltas[1:])):
            raise ValueError("noise levels must be strictly decreasing")
        _one_of("noise mode", NOISE_MODES)(self.noise_mode)
        if not self.metrics:
            raise ValueError("need at least one metric")
        # two metrics with one label would share that label's rows
        labels = [metric.label for metric in self.metrics]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValueError(f"configuration field 'metrics': metric "
                                 f"{label!r} is given twice")
        records = len(self.deltas) * self.trials_per_delta * len(labels)
        if records > MAX_TRIAL_RECORDS:
            raise ValueError(f"deltas x trials_per_delta x metrics = {_shown(records)} "
                             f"exceeds the limit MAX_TRIAL_RECORDS = {MAX_TRIAL_RECORDS}")


def _field(section: dict, key: str, convert, where: str):
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


def _section(section: dict, where: str, required: dict, optional: dict) -> dict:
    """Every field of ``required`` and each one of ``optional`` present, read
    by :func:`_field`; then any other key of ``section`` is a ValueError."""
    fields = {key: _field(section, key, convert, where)
              for key, convert in {**required, **optional}.items()
              if key in required or key in section}
    for key in section:
        if key not in fields:
            raise ValueError(f"configuration has unknown field {_shown(where + key)}")
    return fields


def _typed(kind: str, test, convert=None):
    """Converter for a JSON value of one type: a bool, or a value that fails
    ``test``, is a TypeError "expected <kind>, got <value>"."""
    def parse(value):
        if isinstance(value, bool) or not test(value):
            raise TypeError(f"expected {kind}, got {_shown(value)}")
        return value if convert is None else convert(value)
    return parse


_object = _typed("a JSON object", lambda v: isinstance(v, dict))
_text = _typed("a string", lambda v: isinstance(v, str))
_number = _typed("a number", lambda v: isinstance(v, (int, float)), float)
_noise_p = _typed("a number or 'inf'",  # float("inf") is inf
                  lambda v: v == "inf" or isinstance(v, (int, float)), float)
_integer = _typed("an integer", lambda v: isinstance(v, (int, float)) and v % 1 == 0, int)


def _list_of(convert):
    """Converter for a nonempty JSON array whose items pass ``convert``."""
    def parse(value) -> tuple:
        if not isinstance(value, list) or not value:
            raise TypeError("expected a nonempty JSON array")
        return tuple(convert(item) for item in value)
    return parse


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from the JSON configuration document, one
    field table per object: a missing, malformed or unknown field is a
    ValueError that names it.  A field left out keeps its default."""
    if not isinstance(doc, dict):
        raise ValueError("configuration must be a JSON object")
    top = _section(doc, "", dict(problem=_object, test_function=_object,
                                 deltas=_list_of(_number), gamma=_number),
                   dict(metrics=_list_of(lambda m: parse_metric(_text(m))),
                        noise=_object, trials_per_delta=_integer,
                        output_path=lambda v: v if v is None else _text(v)))
    prob = _section(top.pop("problem"), "problem.",
                    dict(r=_integer, s=_number, mu1=_number, mu2=_number,
                         p=_noise_p), dict(level_constant=_number))
    problem = ProblemSpec(  # **prob: r, and level_constant if given
        wiener=WienerSpec(prob.pop("s"), prob.pop("mu1"), prob.pop("mu2")),
        noise_p=prob.pop("p"), **prob,
        metric=top.get("metrics", ExperimentConfig.metrics)[0])
    tf = top.pop("test_function")
    kind = _field(tf, "kind", _one_of("test function kind", TEST_FUNCTION_KINDS),
                  "test_function.")
    required, optional = {  # one field table per kind, besides "kind"
        "class-member": ({}, dict(seed=_integer, max_k=_integer, max_j=_integer,
                                  epsilon=_number)),
        "named-analytic": (dict(id=_one_of("analytic function",
                                           tuple(ANALYTIC_FUNCTIONS))), {}),
    }[kind]
    spec = _section(tf, "test_function.", dict(required, kind=_text), optional)
    test_function = TestFunctionSpec(name=spec.pop("id", None), **spec)
    noise = _section(top.pop("noise", {}), "noise.", {},
                     dict(seed=_integer, mode=_one_of("noise mode", NOISE_MODES)))
    return ExperimentConfig(
        problem=problem, test_function=test_function, **top,
        **{"noise_" + key: value for key, value in noise.items()})


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

    Needs at least three points with finite positive delta and error, at
    two distinct noise levels or more; the 95% confidence interval comes from
    the standard regression formulas (it degenerates to the point estimate
    when the fit is exact).
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("rate fitting needs at least 3 points")
    if not all(0 < d < math.inf and 0 < e < math.inf for d, e in pts):
        raise ValueError("rate fitting needs finite positive noise levels "
                         "and errors")
    x = np.log([d for d, _ in pts])
    if x.min() == x.max():
        raise ValueError("rate fitting needs at least 2 distinct noise levels")
    y = np.log([e for _, e in pts])
    n = len(pts)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (intercept + slope * x)
    s2 = float(np.sum(resid**2)) / (n - 2)
    se = math.sqrt(s2 / sxx)
    tq = _t_quantile_975(n - 2)
    return RateFit(slope, intercept, slope - tq * se, slope + tq * se)


def _atan(x: Decimal) -> Decimal:
    """arctan(x) for x >= 0 in the current decimal context: halve the
    angle by ``atan x = 2 atan(x / (1 + sqrt(1 + x^2)))`` until x <= 1/20,
    then sum the Taylor series."""
    halvings = 0
    while x > Decimal("0.05"):
        x /= 1 + (1 + x * x).sqrt()
        halvings += 1
    total, term, k = Decimal(0), x, 1
    while total + term / k != total:
        total += term / k
        term *= -x * x
        k += 2
    return total * 2 ** halvings


@functools.cache  # every rate fit of a sweep asks for the same nu
def _t_quantile_975(nu: int) -> float:
    """The 97.5 % quantile of Student's t with ``nu >= 1`` degrees of
    freedom, correctly rounded.

    Newton's method solves P(|T| <= t) = 0.95 in 60-digit decimals, with
    the finite-sum distribution function of integer ``nu`` (Abramowitz and
    Stegun 26.7.3 for odd ``nu``, 26.7.4 for even) and the density from
    ``math.lgamma``.  The start, two terms of A&S 26.7.5, lies below the
    root, where the concave distribution function keeps Newton's steps.
    """
    odd = nu % 2
    log_density = (math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2)
                   - math.log(nu * math.pi) / 2)
    z = 1.959963984540054  # normal 97.5 % quantile
    t = z + (z**3 + z) / (4 * nu) + (5 * z**5 + 16 * z**3 + 3 * z) / (96 * nu**2)
    with localcontext() as ctx:
        ctx.prec = 60
        pi = 4 * _atan(Decimal(1))
        t, step = Decimal(t), Decimal(1)
        while abs(step) > t.scaleb(-45):
            # with theta = atan(t / sqrt(nu)): sin(theta) (1 + cos^2/2 + ...)
            # for even nu, (2/pi) (theta + sin cos (1 + 2 cos^2/3 + ...)) for odd
            cos2 = nu / (nu + t * t)
            term = t / (nu + t * t).sqrt() * (cos2.sqrt() if odd else 1)
            inside = Decimal(0)
            for k in range(1 + odd, nu, 2):
                inside += term
                term *= cos2 * k / (k + 1)
            if odd:
                inside = 2 * (_atan(t / Decimal(nu).sqrt()) + inside) / pi
            density = math.exp(log_density
                               - (nu + 1) / 2 * math.log1p(float(t) ** 2 / nu))
            step = (inside - Decimal("0.95")) / Decimal(2 * density)
            t -= step
    return float(t)


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


def run_convergence(config: ExperimentConfig) -> ExperimentResult:
    """Run the noise-level sweep and fit one rate per requested metric."""
    problem, gamma, metrics = config.problem, config.gamma, config.metrics
    specs = [replace(problem, metric=metric) for metric in metrics]
    for spec in specs:
        low, high = gamma_range(spec)
        if not low <= gamma < high:
            raise ValueError(f"gamma={gamma} outside admissible range "
                             f"[{low}, {high}) for metric {spec.metric.label}")
    # every level, the noisy table that spans its cross, and each grid metric's
    # grid on the largest error table (the member's box or a block) are checked first
    levels = [(delta, build_cross(choose_n(delta, specs[0]), gamma, problem.r))
              for delta in config.deltas]
    tf = config.test_function
    rows, cols = ((tf.max_k, tf.max_j) if tf.kind == "class-member"
                  else ANALYTIC_FUNCTIONS[tf.name][1:])
    for _, cross in levels:
        _check_table_size(cross.n, cross.j_bound)
        rows, cols = max(rows, cross.n), max(cols, cross.j_bound)
    shape = (rows + 1 - problem.r, cols + 1)  # the derivative drops r rows
    for nodes, size in filter(None, (_grid(m, shape) for m in metrics)):
        _check_table_size(size - 1, size - 1, f"{nodes} grid")
    true_grid = config.test_function.build(problem.wiener)
    errors_of = _error_metrics(differentiate_coeffs(true_grid, problem.r), metrics)

    # errors[level, trial, metric]; a seed-independent mode gives every trial
    # at a level the same noise, so trial 0 is computed and the rest copy it
    errors = np.empty((len(levels), config.trials_per_delta, len(metrics)))
    computed = (1 if config.noise_mode in SEED_INDEPENDENT_MODES
                else config.trials_per_delta)
    for (delta, cross), block in zip(levels, errors):
        # trials perturb the leading block, restricted to the cross once
        member = CoeffGrid.from_dense(
            true_grid._dense[: cross.n + 1, : cross.j_bound + 1]).restrict_to(cross)
        for trial in range(computed):
            noise = NoiseSpec(p=problem.noise_p, delta=delta, mode=config.noise_mode,
                              seed=config.noise_seed + trial)
            block[trial] = errors_of(differentiate_coeffs(
                perturb(member, noise, cross), problem.r))
        block[computed:] = block[0]

    trials = tuple(TrialRecord(delta, trial, metric.label, cross.n, gamma,
                               len(cross), error)
                   for (delta, cross), block in zip(levels, errors.tolist())
                   for trial, row in enumerate(block)
                   for metric, error in zip(metrics, row))
    reports: dict[str, RateReport] = {}
    for i, spec in enumerate(specs):
        rows = tuple(RateRow(delta, float(column.mean()), float(column.std()),
                             cross.n, len(cross))
                     for (delta, cross), column in zip(levels, errors[:, :, i]))
        fit = fit_rate([(row.delta, row.mean_error) for row in rows])
        reports[spec.metric.label] = RateReport(
            metric=spec.metric.label,
            rows=rows,
            fitted_slope=fit.slope,
            intercept=fit.intercept,
            slope_ci=(fit.ci_low, fit.ci_high),
            theoretical_slope=theoretical_rate(spec),
        )
    return ExperimentResult(reports=reports, trials=trials)


# ---------------------------------------------------------------------------
# derivative oracle

def _recurrence_table(m: int, points, degree: int) -> np.ndarray:
    """Table (i, k) of the m-th derivative of the orthonormal T_k at
    points[i], k = 0..degree, from the differentiated three-term recurrence
    T_{k+1}^(m) = 2t T_k^(m) + 2m T_k^(m-1) - T_{k-1}^(m) of the classical
    polynomials, run for all orders up to m at once."""
    points = np.asarray(points, dtype=float)
    _check_table_size(m, max(points.size, 1) * (degree + 2) - 1, "recurrence table")
    d = np.zeros((m + 1, points.size, degree + 2))
    d[0, :, 0] = 1.0
    d[0, :, 1] = points
    d[1:2, :, 1] = 1.0
    twice_order = 2.0 * np.arange(1, m + 1)[:, None]
    for k in range(1, degree):
        d[:, :, k + 1] = 2.0 * points * d[:, :, k] - d[:, :, k - 1]
        d[1:, :, k + 1] += twice_order * d[:-1, :, k]
    return d[m, :, :degree + 1] * np.sqrt(
        np.where(np.arange(degree + 1) > 0, 2.0, 1.0) / math.pi)


def recurrence_partial_t(coeffs: CoeffGrid, r: int, ts, taus) -> np.ndarray:
    """r-th partial derivative in t of the expansion at paired points
    (ts[i], taus[i]), for any order r >= 0 and any points in [-1, 1].

    An oracle for the coefficient derivative that shares no code with it or
    with the cosine basis: the basis derivatives come from the three-term
    recurrence in float64, and one einsum (no BLAS call) contracts them
    with the coefficient table.
    """
    r = _size(r, "derivative order r")
    return np.einsum("pk,kj,pj->p", _recurrence_table(r, ts, coeffs.max_k),
                     coeffs._dense, _recurrence_table(0, taus, coeffs.max_j))


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
    return CoeffGrid._wrap(rng.uniform(-1.0, 1.0, size=(max_k + 1, max_j + 1)))


def _oracle_deviation(grid: CoeffGrid, r: int, ts, taus,
                      zeta0: float = ZETA_0) -> float:
    """Relative sup deviation, at paired probe points, of the pointwise
    synthesized coefficient derivative (degree-0 weight ``zeta0``) from
    :func:`recurrence_partial_t`."""
    deriv = differentiate_coeffs(grid, r, zeta0=zeta0)
    spectral = np.array([synthesize(deriv, t, u) for t, u in zip(ts, taus)])
    oracle = recurrence_partial_t(grid, r, ts, taus)
    return float(np.abs(spectral - oracle).max()
                 / max(np.abs(oracle).max(), 1e-30))


def _check_zeta0() -> CheckResult:
    candidates = {
        "1/sqrt(2)": 1.0 / math.sqrt(2.0),
        "sqrt(2)": math.sqrt(2.0),
    }
    # each weight's worst deviation over the two lowest-degree inputs
    ts, taus = _probe_points(np.random.default_rng(1729), 10)
    residuals = {name: max(_oracle_deviation(CoeffGrid([((k, 0), 1.0)]), 1,
                                             ts, taus, value) for k in (1, 2))
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
    ks, ts = rng.integers(0, 60, 10_000), rng.uniform(-1, 1, 10_000)
    values = basis_matrix(59, ts)[np.arange(10_000), ks]
    worst = float(np.max(np.abs(values) - basis_matrix(59, [1.0])[0, ks]))
    return CheckResult("basis-peak-bound", worst <= 1e-14, worst,
                       "max(|T_k(t)| - T_k(1)) over 10^4 samples")


def _check_roundtrip() -> CheckResult:
    rng = np.random.default_rng(13)
    grid = _random_grid(rng, 16, 16)
    back = analyze(lambda t, u: synthesize(grid, t, u), 16, 16)
    dev = float(np.abs(back._dense - grid._dense).max())
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
            worst = max(worst, _oracle_deviation(grid, r, *_probe_points(rng, 20)))
    return CheckResult("derivative-fd-oracle", worst <= 1e-12, worst,
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
            table = (perturb(base, noise, cross) - base)._dense
            xi = table[cross.mask(*table.shape)]
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
    lq2 = replace(l2, metric=MetricSpec("lqw", q=2.0))
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
