import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from chebdiff2d import (MetricSpec, ProblemSpec, WienerSpec, cardinality,
                        choose_n, gamma_range, theoretical_rate)
from chebdiff2d.hypercross import MAX_LEVEL


def make_spec(r=1, s=1.0, mu1=3.0, mu2=2.0, p=2.0, metric=None, constant=1.0):
    return ProblemSpec(r=r, wiener=WienerSpec(s=s, mu1=mu1, mu2=mu2),
                       noise_p=p, metric=metric or MetricSpec("l2w"),
                       level_constant=constant)


class TestValidateSpec:
    @pytest.mark.parametrize("field, message", [
        (dict(p=0.5), r"noise_p must lie in \[1, inf\]"),
        (dict(constant=0), r"level_constant must lie in \(0, inf\)"),
    ], ids=["noise-p", "level-constant"])
    def test_problem_spec_refusal(self, field, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_spec(**field)

    def test_derivative_order_up_to_max_level(self):
        # choose_n floors n at r, and no cross has n > MAX_LEVEL
        assert make_spec(r=MAX_LEVEL).r == MAX_LEVEL
        with pytest.raises(ValueError, match=f"^derivative order r={MAX_LEVEL + 1} "
                           f"exceeds the limit MAX_LEVEL = {MAX_LEVEL}$"):
            make_spec(r=MAX_LEVEL + 1)

    def test_admissible_l2(self):
        assert gamma_range(make_spec(mu1=3.0, mu2=2.0))[1] > 1.0

    def test_l2_smoothness_violation(self):
        with pytest.raises(ValueError, match=re.escape(
                "metric l2w: mu1 > 2r - 1/s + 1/2 violated (need > 1.5, "
                "got 1.4)") + "$"):
            gamma_range(make_spec(mu1=1.4, mu2=2.0))

    def test_uniform_metric_violation(self):
        spec = make_spec(mu1=1.9, mu2=3.0, metric=MetricSpec("sup"))
        with pytest.raises(ValueError, match=re.escape("mu1 > 2r - 1/s + 1 ")):
            gamma_range(spec)

    def test_second_parameter_condition(self):
        with pytest.raises(ValueError, match=re.escape("mu2 > mu1 - 2r ")):
            gamma_range(make_spec(mu1=4.0, mu2=1.5))

    def test_lq_conditions(self):
        metric = MetricSpec("lqw", q=4.0)
        assert gamma_range(make_spec(mu1=3.0, mu2=2.0, metric=metric))[0] == 1.0
        with pytest.raises(ValueError,
                           match=re.escape("mu1 > 2r - 1/s - 1/q + 1 ")):
            gamma_range(make_spec(mu1=1.7, mu2=2.0, metric=metric))

    @pytest.mark.parametrize("metric, mu1, expected", [
        (MetricSpec("l2w"), 2.2, [
            "mu1 > 2r - 1/s + 1/2 violated (need > 2.25, got 2.2)",
            "mu2 > mu1 - 2r violated (need > 0.2, got 0.1)",
            "mu2 > 1/2 - 1/s violated (need > 0.25, got 0.1)"]),
        (MetricSpec("sup"), 2.5, [
            "mu1 > 2r - 1/s + 1 violated (need > 2.75, got 2.5)",
            "mu2 > mu1 - 2r violated (need > 0.5, got 0.1)",
            "mu2 > 1 - 1/s violated (need > 0.75, got 0.1)"]),
        # mu2 < mu1 - 2r here too, but Lq has no such condition
        (MetricSpec("lqw", q=4.0), 2.2, [
            "mu1 > 2r - 1/s - 1/q + 1 violated (need > 2.5, got 2.2)",
            "mu2 > 1 - 1/s - 1/q violated (need > 0.5, got 0.1)"]),
    ], ids=["l2w", "sup", "lqw"])
    def test_full_message_list(self, metric, mu1, expected):
        spec = make_spec(s=4.0, mu1=mu1, mu2=0.1, metric=metric)
        # choose_n and theoretical_rate refuse with the same message
        for call in (gamma_range, lambda x: choose_n(0.1, x), theoretical_rate):
            with pytest.raises(ValueError) as info:
                call(spec)
            assert str(info.value) == (f"inadmissible spec for metric "
                                       f"{metric.label}: " + "; ".join(expected))


class TestChooseN:
    def test_reference_value(self):
        # exponent 1/(3 - 1/2 + 1) = 1/3.5; 1000**(1/3.5) = 7.197
        assert choose_n(1e-3, make_spec()) == 7

    def test_floor_at_order(self):
        spec = make_spec(r=1, mu1=10.0, mu2=9.5, p=math.inf)
        assert choose_n(0.5, spec) == 1  # 2**(1/11) rounds to 1
        spec3 = make_spec(r=3, mu1=10.0, mu2=9.0, p=math.inf)
        assert choose_n(0.5, spec3) == 3

    def test_exponent_scaling(self):
        spec = make_spec()
        n3, n6 = choose_n(1e-3, spec), choose_n(1e-6, spec)
        factor = 1000.0 ** (1 / 3.5)
        # both levels are rounded, so allow the propagated rounding slack
        slack = factor * (0.5 / (n3 * factor) + 0.5 / (n3 * factor) + 0.5 / n3)
        assert abs(n6 / n3 - factor) <= slack + 0.25

    def test_domain(self):
        with pytest.raises(ValueError):
            choose_n(0.0, make_spec())
        with pytest.raises(ValueError):
            choose_n(1.0, make_spec())

    def test_nonincreasing_in_delta(self):
        spec = make_spec()
        levels = [choose_n(d, spec) for d in (0.5, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5)]
        assert all(a <= b for a, b in zip(levels, levels[1:]))

    def test_rougher_classes_need_higher_levels(self):
        # smaller mu1 shrinks the exponent denominator, raising the level
        for delta in (1e-2, 1e-3, 1e-4):
            rough = choose_n(delta, make_spec(mu1=2.2, mu2=1.0))
            smooth = choose_n(delta, make_spec(mu1=4.0, mu2=2.5))
            assert rough >= smooth

    def test_level_constant_scales(self):
        assert choose_n(1e-3, make_spec(constant=2.0)) == 14

    def test_levels_above_max_level_refused(self):
        # the cross's own limit: n = MAX_LEVEL is the largest level it builds
        assert choose_n(1 - 1e-12, make_spec(constant=MAX_LEVEL)) == MAX_LEVEL
        for delta, constant in [(0.5, MAX_LEVEL), (1e-300, 1.0), (0.5, 1e308)]:
            # a level of over 40 digits is shown as its first 18 and last 19
            with pytest.raises(ValueError, match=r"^level n=(\d{1,40}|\d{18}\.\.\.\d{19}"
                               f"|inf) exceeds the limit MAX_LEVEL = {MAX_LEVEL}$"):
                choose_n(delta, make_spec(constant=constant))


class TestGammaRange:
    def test_l2_reference(self):
        spec = make_spec(r=1, s=2.0, mu1=3.0, mu2=4.0)
        low, high = gamma_range(spec)
        assert low == 1.0
        assert high == pytest.approx(4.0, rel=1e-12)

    def test_uniform_reference(self):
        spec = make_spec(r=1, s=1.0, mu1=4.0, mu2=4.0, metric=MetricSpec("sup"))
        assert gamma_range(spec)[1] == pytest.approx(2.0, rel=1e-12)

    def test_lq_at_two_matches_l2(self):
        base = make_spec(s=1.5, mu1=3.2, mu2=2.7)
        lq2 = replace(base, metric=MetricSpec("lqw", q=2.0))
        assert gamma_range(base)[1] == pytest.approx(gamma_range(lq2)[1], rel=1e-14)

    def test_admissibility_predicate(self):
        spec = make_spec(r=1, s=2.0, mu1=3.0, mu2=4.0)
        low, high = gamma_range(spec)
        assert low <= 1.0 < high
        assert low <= 3.9 < high
        assert not low <= 4.0 < high
        assert not low <= 0.9 < high

    def test_nontrivial_iff_mu2_exceeds_shifted_mu1(self, rng=None):
        import numpy as np
        gen = np.random.default_rng(5)
        for _ in range(100):
            r = int(gen.integers(1, 3))
            s = float(gen.uniform(1, 3))
            mu1 = 2 * r - 1 / s + 0.5 + float(gen.uniform(0.05, 3))
            mu2 = float(gen.uniform(max(0.5 - 1 / s, 0) + 0.05, mu1 + 2))
            try:
                high = gamma_range(make_spec(r=r, s=s, mu1=mu1, mu2=mu2))[1]
            except ValueError:  # inadmissible
                continue
            assert (high > 1.0) == (mu2 > mu1 - 2 * r)


class TestTheoreticalRate:
    def test_l2_reference(self):
        assert theoretical_rate(make_spec()) == pytest.approx(1.5 / 3.5, rel=1e-12)

    def test_uniform_reference(self):
        spec = make_spec(metric=MetricSpec("sup"))
        assert theoretical_rate(spec) == pytest.approx(1.0 / 3.5, rel=1e-12)

    def test_lq_at_two_matches_l2(self):
        base = make_spec(s=1.5, mu1=3.2, mu2=2.7, p=5.0)
        lq2 = replace(base, metric=MetricSpec("lqw", q=2.0))
        assert theoretical_rate(base) == pytest.approx(theoretical_rate(lq2),
                                                       rel=1e-14)

    def test_positive_on_admissible_specs(self):
        import numpy as np
        gen = np.random.default_rng(6)
        metrics = [MetricSpec("l2w"), MetricSpec("sup"), MetricSpec("lqw", q=4.0)]
        count = 0
        while count < 60:
            r = int(gen.integers(1, 4))
            s = float(gen.uniform(1, 3))
            mu1 = float(gen.uniform(0.5, 10))
            mu2 = float(gen.uniform(0.1, 10))
            p = float(gen.choice([1.0, 2.0, 5.0, math.inf]))
            metric = metrics[int(gen.integers(0, 3))]
            spec = make_spec(r=r, s=s, mu1=mu1, mu2=mu2, p=p, metric=metric)
            try:
                rate = theoretical_rate(spec)
            except ValueError:  # inadmissible
                continue
            assert rate > 0
            count += 1


class TestExpectedCardinality:
    def test_budget_tracks_level(self):
        spec = make_spec(mu1=3.0, mu2=4.0)  # gamma_max = 4.5/1.5 = 3
        ratios = [cardinality(choose_n(d, spec), 2.0, 1) / choose_n(d, spec)
                  for d in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
        assert max(ratios) / min(ratios) < 4.0


@settings(deadline=None, database=None)
@given(deltas=st.lists(st.floats(1e-12, 0.999), min_size=2, max_size=2),
       r=st.integers(1, 3), s=st.floats(1.0, 8.0), mu1=st.floats(0.5, 12.0),
       mu2=st.floats(0.5, 12.0), p=st.sampled_from([1.0, 2.0, 3.5, math.inf]),
       constant=st.floats(0.01, 100.0))
def test_choose_n_is_monotone_in_delta(deltas, r, s, mu1, mu2, p, constant):
    # a smaller noise level never gives a smaller level
    spec = make_spec(r=r, s=s, mu1=mu1, mu2=mu2, p=p, constant=constant)
    small, large = sorted(deltas)
    try:
        assert choose_n(small, spec) >= choose_n(large, spec)
    except ValueError as exc:  # an inadmissible spec, or a level above MAX_LEVEL
        if "exceeds the limit MAX_LEVEL" in str(exc):
            # a level too large for the larger delta is too large for the smaller
            with pytest.raises(ValueError, match="exceeds the limit MAX_LEVEL"):
                choose_n(small, spec)
        else:
            assert str(exc).startswith("inadmissible spec")
        reject()
