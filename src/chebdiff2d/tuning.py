"""A-priori parameter choice: truncation level, admissible shapes, rates.

Given the smoothness of the target class, the noise norm index p and the
output metric, the truncation level grows like
delta**(-1/(mu1 - 1/p + 1/s)) and balances truncation against noise
amplification.  The predicted accuracy exponent and the admissible range of
the cross shape parameter gamma come from the metric's row in norms._METRICS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .basis import _interval
from .hypercross import _level
from .model import WienerSpec
from .norms import _METRICS, MetricSpec


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


def _admissible_shift(spec: ProblemSpec) -> float:
    """The shift a(1/s, q) of the spec's metric; a spec that violates an
    inequality of the metric's _METRICS row is refused, the message naming
    each violated inequality and its required bound."""
    row = _METRICS[spec.metric.kind]
    mu1, mu2 = spec.wiener.mu1, spec.wiener.mu2
    a = row.shift(1.0 / spec.wiener.s, spec.metric.q)
    checks = [(f"mu1 > {row.mu1_bound}", mu1, 2 * spec.r - a)]
    if row.coupled:
        checks.append(("mu2 > mu1 - 2r", mu2, mu1 - 2 * spec.r))
    checks.append((f"mu2 > {row.mu2_bound}", mu2, -a))
    violations = [f"{name} violated (need > {bound:.6g}, got {value:.6g})"
                  for name, value, bound in checks if not value > bound]
    if violations:
        raise ValueError(f"inadmissible spec for metric {spec.metric.label}: "
                         + "; ".join(violations))
    return a


def choose_n(delta: float, spec: ProblemSpec) -> int:
    """Truncation level for noise level delta, floored at r.

    Follows level_constant * delta**(-1/(mu1 - 1/p + 1/s)), rounded to the
    nearest integer; a level above MAX_LEVEL, one that overflows to inf
    included, is refused by the cross's own check.
    """
    _interval(delta, "delta", 0, 1, "()")
    _admissible_shift(spec)  # refuses an inadmissible spec
    exponent = 1.0 / (spec.wiener.mu1 - 1.0 / spec.noise_p + 1.0 / spec.wiener.s)
    level = spec.level_constant * delta ** -exponent
    return _level(max(spec.r, round(level)) if math.isfinite(level) else level)


def gamma_range(spec: ProblemSpec) -> tuple[float, float]:
    """Half-open admissible interval [1, gamma_max) of the cross shape.

    The interval is empty when gamma_max <= 1; callers must treat that as a
    configuration error.
    """
    a = _admissible_shift(spec)
    return (1.0, (spec.wiener.mu2 + a) / (spec.wiener.mu1 - 2 * spec.r + a))


def theoretical_rate(spec: ProblemSpec) -> float:
    """Predicted exponent of delta in the accuracy bound for this metric."""
    mu1, a = spec.wiener.mu1, _admissible_shift(spec)
    return (mu1 - 2 * spec.r + a) / (mu1 - 1.0 / spec.noise_p + 1.0 / spec.wiener.s)

