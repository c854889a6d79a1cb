import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebdiff2d import (NOISE_MODES, NOISE_SINGLE, NOISE_TOPWEIGHT,
                        NOISE_UNIFORM, SEED_INDEPENDENT_MODES, CoeffGrid,
                        MetricSpec, NoiseSpec, WienerSpec, build_cross,
                        differentiate_coeffs, evaluate_metric, lp_norm,
                        make_class_member, perturb, wiener_norm)
from chebdiff2d import model
from helpers import random_grid


class TestWienerNorm:
    def test_underline_convention(self):
        spec = WienerSpec(s=2.0, mu1=5.0, mu2=7.0)
        grid = CoeffGrid([((0, 0), 1.0)])
        assert wiener_norm(grid, spec) == pytest.approx(1.0, abs=1e-15)

    def test_single_entry(self):
        spec = WienerSpec(s=1.0, mu1=1.0, mu2=2.0)
        grid = CoeffGrid([((2, 3), 0.5)])
        assert wiener_norm(grid, spec) == pytest.approx(9.0, abs=1e-12)

    def test_two_entries_l2(self):
        spec = WienerSpec(s=2.0, mu1=1.0, mu2=1.0)
        grid = CoeffGrid([((1, 0), 3.0), ((0, 1), 4.0)])
        assert wiener_norm(grid, spec) == pytest.approx(5.0, abs=1e-12)

    def test_homogeneous(self, rng):
        spec = WienerSpec(s=1.5, mu1=2.0, mu2=1.0)
        grid = random_grid(rng, 6, 6, fill=0.5)
        for alpha in (-2.5, 0.3):
            scaled = CoeffGrid.from_dense(alpha * grid.to_dense())
            assert wiener_norm(scaled, spec) == pytest.approx(
                abs(alpha) * wiener_norm(grid, spec), rel=1e-12)

    def test_monotone_in_smoothness(self, rng):
        grid = random_grid(rng, 8, 8)
        base = wiener_norm(grid, WienerSpec(s=1.0, mu1=1.0, mu2=1.0))
        assert wiener_norm(grid, WienerSpec(s=1.0, mu1=1.5, mu2=1.0)) >= base
        assert wiener_norm(grid, WienerSpec(s=1.0, mu1=1.0, mu2=2.0)) >= base

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WienerSpec(s=0.5, mu1=1.0, mu2=1.0)
        with pytest.raises(ValueError):
            WienerSpec(s=1.0, mu1=0.0, mu2=1.0)
        with pytest.raises(ValueError, match=r"^s must lie in \[1, inf\)$"):
            WienerSpec(s=math.inf, mu1=1.0, mu2=1.0)
        for mu1, mu2, name in ((math.inf, 1.0, "mu1"), (1.0, math.inf, "mu2"),
                               (math.nan, 1.0, "mu1")):
            with pytest.raises(ValueError, match=rf"^{name} must lie in \(0, inf\)$"):
                WienerSpec(s=1.0, mu1=mu1, mu2=mu2)

    @pytest.mark.parametrize("entries", [
        [((300, 0), 1e-300)],  # the weight 300**200 overflows
        [((0, 0), 1e308), ((0, 1), 1e308)],  # the sum overflows
    ], ids=["weight", "sum"])
    def test_overflowing_norm_refused(self, entries):
        # a numpy warning would fail the test before the ValueError
        with pytest.raises(ValueError, match="class norm overflows for "
                           "s = 1.0, mu1 = 200.0, mu2 = 1.0"):
            wiener_norm(CoeffGrid(entries), WienerSpec(s=1.0, mu1=200.0, mu2=1.0))


class TestClassMember:
    def test_unit_norm(self):
        spec = WienerSpec(s=1.0, mu1=3.0, mu2=2.0)
        member = make_class_member(spec, 32, 32, seed=3)
        assert abs(wiener_norm(member, spec) - 1.0) <= 1e-12

    def test_nonpositive_epsilon_refused(self):
        with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, inf\)$"):
            make_class_member(WienerSpec(s=1.0, mu1=3.0, mu2=2.0), 4, 4, seed=0,
                              epsilon=0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_epsilon_refused(self, epsilon):
        with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, inf\)$"):
            make_class_member(WienerSpec(s=1.0, mu1=3.0, mu2=2.0), 4, 4, seed=0,
                              epsilon=epsilon)

    def test_deterministic(self):
        spec = WienerSpec(s=2.0, mu1=2.5, mu2=2.5)
        a = make_class_member(spec, 16, 16, seed=11)
        b = make_class_member(spec, 16, 16, seed=11)
        assert a == b
        c = make_class_member(spec, 16, 16, seed=12)
        assert a != c

    def test_full_box_support(self):
        spec = WienerSpec(s=1.0, mu1=3.0, mu2=3.0)
        member = make_class_member(spec, 10, 12, seed=5)
        assert member.nnz == 11 * 13

    def test_tail_decay_rate(self):
        # tails of the box projection are sign-independent, so this is
        # deterministic; window (10, 20, 40) avoids both small-n sum
        # corrections and depletion near the 64-box edge
        spec = WienerSpec(s=1.0, mu1=3.0, mu2=3.0)
        member = make_class_member(spec, 64, 64, seed=7, epsilon=0.01)
        dense = member.to_dense()
        levels = [10, 20, 40]
        tails = []
        for n in levels:
            mask = np.ones_like(dense, dtype=bool)
            mask[: n + 1, : n + 1] = False
            tails.append(math.sqrt(float(np.sum(dense[mask] ** 2))))
        slope = np.polyfit(np.log(levels), np.log(tails), 1)[0]
        assert slope == pytest.approx(-(3.0 + 0.01) + 0.5, abs=0.1)

    def test_tail_sums_converge_for_wide_margin(self):
        # admissibility guard: with margin epsilon chosen so s*(mu+eps)
        # weighting leaves a convergent exponent, the unnormalized profile
        # norm stabilizes between boxes 64 and 128 (< 1% change).  The
        # default margin 0.01 intentionally sits at the unit-ball boundary
        # and does not have this property.
        spec = WienerSpec(s=1.0, mu1=3.0, mu2=2.0)
        eps = 4.0

        def profile_norm(box):
            uk = np.maximum(1, np.arange(box + 1, dtype=float))
            prof = np.outer(uk ** (-spec.mu1 - eps), uk ** (-spec.mu2 - eps))
            weights = np.outer(uk ** (spec.s * spec.mu1),
                               uk ** (spec.s * spec.mu2))
            return float(np.sum(weights * np.abs(prof) ** spec.s)) ** (1 / spec.s)

        n64, n128 = profile_norm(64), profile_norm(128)
        assert abs(n128 - n64) / n64 < 0.01
        # members at both boxes are exactly unit-norm regardless
        for box in (64, 128):
            member = make_class_member(spec, box, box, seed=1, epsilon=eps)
            assert abs(wiener_norm(member, spec) - 1.0) <= 1e-12


class TestPerturb:
    def test_zero_delta_is_identity(self):
        grid = CoeffGrid([((1, 1), 0.5)], 8, 8)
        noise = NoiseSpec(p=2.0, delta=0.0, mode=NOISE_UNIFORM, seed=1)
        assert perturb(grid, noise, build_cross(8, 1.0, 1)) == grid

    @pytest.mark.parametrize("mode", NOISE_MODES)
    def test_is_the_sum_with_its_noise_bit_for_bit(self, rng, mode):
        # signed zeros included: where there is no noise, -0.0 + 0.0 is +0.0
        values = rng.uniform(-1.0, 1.0, size=(9, 7))
        values[rng.random(values.shape) < 0.3] = -0.0
        grid = CoeffGrid.from_dense(values)
        cross = build_cross(12, 1.5, 1)
        noise = NoiseSpec(p=2.0, delta=0.3, mode=mode, seed=4)
        alone = perturb(CoeffGrid.from_dense(np.zeros((9, 7))), noise, cross)
        expected = (grid + alone)._dense
        got = perturb(grid, noise, cross)._dense
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_uniform_all_zero_draw_puts_delta_on_the_first_entry(self, monkeypatch):
        # every draw 0.5 gives raw noise 0, whose l_p norm cannot scale it
        monkeypatch.setattr(model, "_keyed_uniform",
                            lambda seed, ks, js: np.full(ks.shape, 0.5))
        cross = build_cross(6, 1.5, 1)
        noise = NoiseSpec(p=2.0, delta=0.3, mode=NOISE_UNIFORM, seed=4)
        expected = np.zeros((7, cross.j_bound + 1))
        expected[1, 0] = 0.3  # (r, 0) comes first in the cross
        assert np.array_equal(perturb(CoeffGrid(), noise, cross).to_dense(), expected)

    def test_sup_mode_saturation(self, rng):
        grid = random_grid(rng, 10, 10, fill=0.3)
        cross = build_cross(10, 1.0, 1)
        noise = NoiseSpec(p=math.inf, delta=0.05, mode=NOISE_UNIFORM, seed=4)
        diff = (perturb(grid, noise, cross) - grid).to_dense()
        xi = diff[cross.mask(*diff.shape)]
        assert max(abs(v) for v in xi) == pytest.approx(0.05, abs=1e-15)
        assert all(abs(v) <= 0.05 + 1e-15 for v in xi)

    def test_l2_saturation_on_small_cross(self):
        grid = CoeffGrid([], 4, 4)
        cross = build_cross(4, 1.0, 1)  # 12 indices
        noise = NoiseSpec(p=2.0, delta=0.25, mode=NOISE_UNIFORM, seed=19)
        noisy = perturb(grid, noise, cross).to_dense()
        xi = noisy[cross.mask(*noisy.shape)]
        assert lp_norm(xi, 2.0) == pytest.approx(0.25, abs=1e-12)

    def test_single_coefficient_is_the_most_amplified_for_l2w_only(self):
        # the mode's (n, 0) and the cross's (n, 1) amplify l2w alike, but
        # sup by T_1(1) / T_0(1) = sqrt 2 and lqw:4 by sqrt 2 (3/8)^(1/4)
        cross = build_cross(16, 1.5, 1)
        grid = CoeffGrid([], 16, cross.j_bound)
        noise = perturb(grid, NoiseSpec(p=2.0, delta=0.5, mode=NOISE_SINGLE), cross)
        at_0 = noise.to_dense()
        assert np.argwhere(at_0).tolist() == [[16, 0]] and cross.mask(*at_0.shape)[16, 1]
        at_1 = np.roll(at_0, 1, axis=1)
        ratio = {metric.label: evaluate_metric(differentiate_coeffs(
                     CoeffGrid.from_dense(at_1), 1), metric)
                 / evaluate_metric(differentiate_coeffs(noise, 1), metric)
                 for metric in (MetricSpec("l2w"), MetricSpec("sup"),
                                MetricSpec("lqw", q=4.0))}
        assert ratio["l2w"] == 1.0
        assert ratio["sup"] == pytest.approx(math.sqrt(2), abs=1e-12)
        assert ratio["lqw:4"] == pytest.approx(1.10668, abs=1e-4)

    @settings(deadline=None, database=None, max_examples=300)
    @given(mode=st.sampled_from(NOISE_MODES),
           p=st.sampled_from([1.0, 2.0, 5.0, math.inf]),
           n=st.integers(1, 400), gamma=st.floats(1.0, 3.0),
           r=st.integers(1, 3), seed=st.integers(0, 2**64 - 1),
           delta=st.floats(1e-300, 1.0, exclude_max=True))
    def test_norm_saturation_within_ulps(self, mode, p, n, gamma, r, seed,
                                         delta):
        # noise placed on a zero grid is the noise itself.  Its l_p norm
        # is delta within 8 ulps of delta.  The largest error seen in
        # 34 000 random draws (n < 700, supports of up to about 1 500
        # pairs, delta down to 1e-300) was 4 ulps, for p = 1; 1 ulp for
        # p = inf, and none for single-coefficient noise.
        cross = build_cross(max(n, r), gamma, r)
        noisy = perturb(CoeffGrid(), NoiseSpec(p=p, delta=delta, mode=mode,
                                               seed=seed), cross)
        ks, js = np.nonzero(cross.mask(noisy.max_k + 1, noisy.max_j + 1))
        xi = noisy.to_dense()[ks, js]
        assert abs(lp_norm(xi, p) - delta) <= 8 * math.ulp(delta)

    @pytest.mark.parametrize("p", [1.0, 2.0, 5.0, math.inf])
    @pytest.mark.parametrize("mode", NOISE_MODES)
    def test_norm_saturation_all_modes(self, rng, p, mode):
        for trial in range(8):
            grid = random_grid(rng, 12, 12, fill=0.2)
            cross = build_cross(int(rng.integers(2, 14)), float(rng.uniform(1, 2.5)), 1)
            delta = float(rng.uniform(0.01, 0.9))
            noise = NoiseSpec(p=p, delta=delta, mode=mode, seed=trial)
            diff = (perturb(grid, noise, cross) - grid).to_dense()
            support = cross.mask(*diff.shape)
            assert abs(lp_norm(diff[support], p) - delta) <= 1e-12
            # noise lives only on the support
            assert not diff[~support].any()

    @pytest.mark.parametrize("n, gamma, r", [(9, 1.5, 2), (12, 1.0, 1), (7, 2.7, 3)])
    def test_single_coefficient_targets_top_amplification(self, n, gamma, r):
        grid = CoeffGrid([], 12, 12)
        cross = build_cross(n, gamma, r)
        noise = NoiseSpec(p=5.0, delta=0.125, mode=NOISE_SINGLE, seed=0)
        noisy = perturb(grid, noise, cross).to_dense()
        # amplification k**(2r-1) peaks at k = n; first j there is 0
        assert np.argwhere(noisy).tolist() == [[n, 0]]
        assert noisy[n, 0] == pytest.approx(0.125)

    def test_topweight_profile(self):
        grid = CoeffGrid([], 6, 6)
        cross = build_cross(3, 1.0, 1)
        noise = NoiseSpec(p=math.inf, delta=0.5, mode=NOISE_TOPWEIGHT, seed=0)
        noisy = perturb(grid, noise, cross).to_dense()
        # magnitudes proportional to k**(2r-1) = k, peak scaled to delta
        assert noisy[3, 0] == pytest.approx(0.5)
        assert noisy[1, 0] == pytest.approx(0.5 / 3)
        assert noisy[2, 0] == pytest.approx(1.0 / 3)

    @pytest.mark.parametrize("r", range(1, 6))
    def test_topweight_keeps_the_bytes_of_the_plain_power(self, r):
        # the weights are formed as (k / 2**e) ** (2r - 1) to keep them
        # finite; the power-of-two scale must cancel exactly on normalising
        for n in (8, 16, 37, 100, 256, 1000, 4097):
            cross = build_cross(n, 1.5, r)
            ks, js = np.nonzero(cross.mask(n + 1, cross.j_bound + 1))
            raw = np.maximum(ks, 1).astype(float) ** (2 * r - 1)
            for p in (1.0, 1.5, 2.0, math.inf):
                noise = NoiseSpec(p=p, delta=0.1, mode=NOISE_TOPWEIGHT)
                noisy = perturb(CoeffGrid([], 0, 0), noise, cross)
                assert (noisy.to_dense()[ks, js].tobytes()
                        == ((0.1 / lp_norm(raw, p)) * raw).tobytes()), (n, p)

    def test_topweight_large_order_stays_finite(self):
        grid = CoeffGrid([((0, 0), 1.0)], 400, 4)
        noise = NoiseSpec(p=2.0, delta=0.1, mode=NOISE_TOPWEIGHT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            noisy = perturb(grid, noise, build_cross(400, 1.5, 150))
        added = (noisy - grid).to_dense()
        assert np.isfinite(added).all()
        assert lp_norm(added, 2.0) == pytest.approx(0.1, abs=1e-12)

    def test_topweight_refuses_an_underflowing_peak(self):
        # the peak (n / 2**e) ** (2r - 1) = 2**-1073 is not a normal float
        noise = NoiseSpec(p=2.0, delta=0.1, mode=NOISE_TOPWEIGHT)
        with pytest.raises(ValueError, match="underflows for r = 537, n = 1024"):
            perturb(CoeffGrid([], 0, 0), noise, build_cross(1024, 1.5, 537))

    @pytest.mark.parametrize("mode", NOISE_MODES)
    def test_seed_independence_is_declared(self, rng, mode):
        # the experiment engine computes one trial per level for the modes
        # marked seed-independent; a seeded mode must not be among them
        grid = random_grid(rng, 10, 10)
        cross = build_cross(10, 1.5, 1)
        noisy = [perturb(grid, NoiseSpec(p=2.0, delta=0.1, mode=mode, seed=seed),
                         cross) for seed in (0, 1)]
        assert (noisy[0] == noisy[1]) == (mode in SEED_INDEPENDENT_MODES)

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(p=0.5, delta=0.1)
        with pytest.raises(ValueError):
            NoiseSpec(p=2.0, delta=1.0)
        with pytest.raises(ValueError):
            NoiseSpec(p=2.0, delta=0.1, mode="gaussian")


@pytest.mark.parametrize("p", [0.5, 0.0, -1.0, math.nan, -math.inf])
def test_lp_norm_refuses_p_below_1(p):
    # p = 0.5 would give the quasi-norm 5.83 of [1, 2], and nan a nan
    for values in ([1.0, 2.0], []):
        with pytest.raises(ValueError, match=r"^p must lie in \[1, inf\]$"):
            lp_norm(values, p)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("values", [[math.nan, 1.0], [math.inf, 1.0],
                                    [1.0, -math.inf], [0.0, math.nan]],
                         ids=["nan", "inf", "-inf", "zero-nan"])
def test_lp_norm_refuses_non_finite_values(values, p):
    # the scaled sum would be nan, or inf / inf
    with pytest.raises(ValueError, match="^l_p norm needs finite values$"):
        lp_norm(values, p)


def test_lp_norm_overflow_safe():
    big = [1e200, 1e200]
    assert lp_norm(big, 2.0) == pytest.approx(math.sqrt(2) * 1e200, rel=1e-12)
    assert lp_norm([], 3.0) == 0.0
    assert lp_norm([0.0, 0.0], 2.0) == 0.0
    assert lp_norm([3.0, -4.0], math.inf) == 4.0
