"""A-priori parameter choice: truncation level, admissible shapes, rates.

Given the smoothness of the target class, the noise norm index p and the
output metric, the truncation level grows like
delta**(-1/(mu1 - 1/p + 1/s)) and balances truncation against noise
amplification.  The predicted accuracy exponent and the admissible range of
the cross shape parameter gamma depend on the output metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .basis import _interval
from .hypercross import _level
from .model import WienerSpec
from .norms import MetricSpec


@dataclass(frozen=True)
class ProblemSpec:
    """Everything the parameter-choice rules need.

    ``level_constant``, in (0, inf), scales the truncation-level rule; rates
    (log-log slopes) do not depend on it, so it defaults to 1 and is
    exposed as a sweep parameter.  ``noise_p`` lies in [1, inf].
    """

    r: int
    wiener: WienerSpec
    noise_p: float
    metric: MetricSpec = field(default_factory=lambda: MetricSpec("l2w"))
    level_constant: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "r", _level(self.r, "derivative order r"))
        _interval(self.noise_p, "noise_p", 1, math.inf, "[]")
        _interval(self.level_constant, "level_constant", 0, math.inf, "()")


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


def _require_valid(spec: ProblemSpec) -> None:
    """Refuse a spec that violates a metric-specific smoothness inequality;
    the message names each violated inequality and its required bound."""
    _, mu1_bound, mu2_bound, coupled = _RULES[spec.metric.kind]
    mu1, mu2, a = spec.wiener.mu1, spec.wiener.mu2, _shift(spec)
    checks = [(f"mu1 > {mu1_bound}", mu1, 2 * spec.r - a)]
    if coupled:
        checks.append(("mu2 > mu1 - 2r", mu2, mu1 - 2 * spec.r))
    checks.append((f"mu2 > {mu2_bound}", mu2, -a))
    violations = [f"{name} violated (need > {bound:.6g}, got {value:.6g})"
                  for name, value, bound in checks if not value > bound]
    if violations:
        raise ValueError(f"inadmissible spec for metric {spec.metric.label}: "
                         + "; ".join(violations))


def choose_n(delta: float, spec: ProblemSpec) -> int:
    """Truncation level for noise level delta, floored at r.

    Follows level_constant * delta**(-1/(mu1 - 1/p + 1/s)), rounded to the
    nearest integer; a level above MAX_LEVEL, one that overflows to inf
    included, is refused by the cross's own check.
    """
    _interval(delta, "delta", 0, 1, "()")
    _require_valid(spec)
    exponent = 1.0 / (spec.wiener.mu1 - 1.0 / spec.noise_p + 1.0 / spec.wiener.s)
    level = spec.level_constant * delta ** -exponent
    return _level(max(spec.r, round(level)) if math.isfinite(level) else level)


def gamma_range(spec: ProblemSpec) -> tuple[float, float]:
    """Half-open admissible interval [1, gamma_max) of the cross shape.

    The interval is empty when gamma_max <= 1; callers must treat that as a
    configuration error.
    """
    _require_valid(spec)
    a = _shift(spec)
    return (1.0, (spec.wiener.mu2 + a) / (spec.wiener.mu1 - 2 * spec.r + a))


def theoretical_rate(spec: ProblemSpec) -> float:
    """Predicted exponent of delta in the accuracy bound for this metric."""
    _require_valid(spec)
    mu1, inv_p = spec.wiener.mu1, 1.0 / spec.noise_p
    return (mu1 - 2 * spec.r + _shift(spec)) / (mu1 - inv_p + 1.0 / spec.wiener.s)

