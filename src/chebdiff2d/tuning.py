"""A-priori parameter choice: truncation level, admissible shapes, rates.

Given the smoothness of the target class, the noise norm index p and the
output metric, the truncation level grows like
delta**(-1/(mu1 - 1/p + 1/s)) and balances truncation against noise
amplification.  The predicted accuracy exponent and the admissible range of
the cross shape parameter gamma depend on the output metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .hypercross import MAX_LEVEL, cardinality
from .model import WienerSpec
from .norms import MetricSpec


@dataclass(frozen=True)
class ProblemSpec:
    """Everything the parameter-choice rules need.

    ``level_constant`` scales the truncation-level rule; rates (log-log
    slopes) do not depend on it, so it defaults to 1 and is exposed as a
    sweep parameter.
    """

    r: int
    wiener: WienerSpec
    noise_p: float
    metric: MetricSpec = field(default_factory=lambda: MetricSpec("l2w"))
    level_constant: float = 1.0

    def __post_init__(self):
        if int(self.r) != self.r or self.r < 1:
            raise ValueError("derivative order r must be an integer >= 1")
        if not self.noise_p >= 1:
            raise ValueError("noise_p must be >= 1 (math.inf allowed)")
        if not self.level_constant > 0:
            raise ValueError("level_constant must be positive")


#: Metric kind -> (shift a(1/s, q); the bounds 2r - a and -a as the
#: messages spell them; whether mu2 > mu1 - 2r is required).  The shift
#: sets the admissibility bounds mu1 > 2r - a and mu2 > -a, the rate and
#: gamma_max.
_RULES = {
    "l2w": (lambda inv_s, q: inv_s - 0.5, "2r - 1/s + 1/2", "1/2 - 1/s", True),
    "sup": (lambda inv_s, q: inv_s - 1.0, "2r - 1/s + 1", "1 - 1/s", True),
    "lqw": (lambda inv_s, q: inv_s + 1.0 / q - 1.0, "2r - 1/s - 1/q + 1",
            "1 - 1/s - 1/q", False),
}


def _shift(spec: ProblemSpec) -> float:
    return _RULES[spec.metric.kind][0](1.0 / spec.wiener.s, spec.metric.q)


def _checks(spec: ProblemSpec) -> list[tuple[str, float, float]]:
    _, mu1_bound, mu2_bound, coupled = _RULES[spec.metric.kind]
    mu1, mu2, a = spec.wiener.mu1, spec.wiener.mu2, _shift(spec)
    checks = [(f"mu1 > {mu1_bound}", mu1, 2 * spec.r - a)]
    if coupled:
        checks.append(("mu2 > mu1 - 2r", mu2, mu1 - 2 * spec.r))
    return checks + [(f"mu2 > {mu2_bound}", mu2, -a)]


def validate_spec(spec: ProblemSpec) -> list[str]:
    """Check the metric-specific smoothness inequalities.

    Returns an empty list when the parameters are admissible, otherwise one
    message per violated inequality, naming it and the required bound.
    """
    return [
        f"{name} violated (need > {bound:.6g}, got {value:.6g})"
        for name, value, bound in _checks(spec)
        if not value > bound
    ]


def _require_valid(spec: ProblemSpec) -> None:
    violations = validate_spec(spec)
    if violations:
        raise ValueError("inadmissible problem spec: " + "; ".join(violations))


def choose_n(delta: float, spec: ProblemSpec) -> int:
    """Truncation level for noise level delta, floored at r.

    Follows level_constant * delta**(-1/(mu1 - 1/p + 1/s)), rounded to the
    nearest integer; a level that overflows to inf is refused.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    _require_valid(spec)
    inv_p = 0.0 if math.isinf(spec.noise_p) else 1.0 / spec.noise_p
    exponent = 1.0 / (spec.wiener.mu1 - inv_p + 1.0 / spec.wiener.s)
    level = spec.level_constant * delta ** -exponent
    if not math.isfinite(level):
        raise ValueError(f"level n={level} exceeds the limit MAX_LEVEL = {MAX_LEVEL}")
    return max(spec.r, round(level))


def gamma_range(spec: ProblemSpec) -> tuple[float, float]:
    """Half-open admissible interval [1, gamma_max) of the cross shape.

    The interval is empty when gamma_max <= 1; callers must treat that as a
    configuration error.
    """
    _require_valid(spec)
    a = _shift(spec)
    return (1.0, (spec.wiener.mu2 + a) / (spec.wiener.mu1 - 2 * spec.r + a))


def gamma_admissible(spec: ProblemSpec, gamma: float) -> bool:
    low, high = gamma_range(spec)
    return low <= gamma < high


def theoretical_rate(spec: ProblemSpec) -> float:
    """Predicted exponent of delta in the accuracy bound for this metric."""
    _require_valid(spec)
    mu1 = spec.wiener.mu1
    inv_p = 0.0 if math.isinf(spec.noise_p) else 1.0 / spec.noise_p
    return (mu1 - 2 * spec.r + _shift(spec)) / (mu1 - inv_p + 1.0 / spec.wiener.s)


def expected_cardinality(delta: float, spec: ProblemSpec, gamma: float) -> int:
    """Data budget of the method: cross cardinality at the chosen level."""
    if not gamma_admissible(spec, gamma):
        raise ValueError(f"gamma={gamma} outside admissible range "
                         f"{gamma_range(spec)}")
    return cardinality(choose_n(delta, spec), gamma, spec.r)


def with_metric(spec: ProblemSpec, metric: MetricSpec) -> ProblemSpec:
    """Copy of the problem parameters targeting a different output metric."""
    return replace(spec, metric=metric)
