import math

import numpy as np
import pytest

from chebdiff2d import (NOISE_MODES, NOISE_SINGLE, NOISE_TOPWEIGHT,
                        NOISE_UNIFORM, SEED_INDEPENDENT_MODES, CoeffGrid,
                        NoiseSpec, WienerSpec, build_cross, lp_norm,
                        make_class_member, perturb, wiener_norm)
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
            assert wiener_norm(alpha * grid, spec) == pytest.approx(
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
        with pytest.raises(ValueError, match="s must be >= 1 and finite"):
            WienerSpec(s=math.inf, mu1=1.0, mu2=1.0)
        for mu1, mu2 in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="positive and finite"):
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

    def test_empty_support_rejected(self):
        grid = CoeffGrid([((1, 1), 0.5)], 8, 8)
        noise = NoiseSpec(p=2.0, delta=0.1, mode=NOISE_UNIFORM, seed=1)

        class Empty:
            n = 8
            r = 1
            j_bound = 0

            def __iter__(self):
                return iter(())

        with pytest.raises(ValueError):
            perturb(grid, noise, Empty())

    def test_sup_mode_saturation(self, rng):
        grid = random_grid(rng, 10, 10, fill=0.3)
        cross = build_cross(10, 1.0, 1)
        noise = NoiseSpec(p=math.inf, delta=0.05, mode=NOISE_UNIFORM, seed=4)
        noisy = perturb(grid, noise, cross)
        xi = [noisy.get(k, j) - grid.get(k, j) for k, j in cross]
        assert max(abs(v) for v in xi) == pytest.approx(0.05, abs=1e-15)
        assert all(abs(v) <= 0.05 + 1e-15 for v in xi)

    def test_l2_saturation_on_small_cross(self):
        grid = CoeffGrid([], 4, 4)
        cross = build_cross(4, 1.0, 1)  # 12 indices
        noise = NoiseSpec(p=2.0, delta=0.25, mode=NOISE_UNIFORM, seed=19)
        noisy = perturb(grid, noise, cross)
        xi = [noisy.get(k, j) for k, j in cross]
        assert lp_norm(xi, 2.0) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 5.0, math.inf])
    @pytest.mark.parametrize("mode", NOISE_MODES)
    def test_norm_saturation_all_modes(self, rng, p, mode):
        for trial in range(8):
            grid = random_grid(rng, 12, 12, fill=0.2)
            cross = build_cross(int(rng.integers(2, 14)), float(rng.uniform(1, 2.5)), 1)
            delta = float(rng.uniform(0.01, 0.9))
            noise = NoiseSpec(p=p, delta=delta, mode=mode, seed=trial)
            noisy = perturb(grid, noise, cross)
            xi = [noisy.get(k, j) - grid.get(k, j) for k, j in cross]
            assert abs(lp_norm(xi, p) - delta) <= 1e-12
            # noise lives only on the support
            diff = noisy - grid
            assert all(key in cross for key, _ in diff.items())

    @pytest.mark.parametrize("n, gamma, r", [(9, 1.5, 2), (12, 1.0, 1), (7, 2.7, 3)])
    def test_single_coefficient_targets_top_amplification(self, n, gamma, r):
        grid = CoeffGrid([], 12, 12)
        cross = build_cross(n, gamma, r)
        noise = NoiseSpec(p=5.0, delta=0.125, mode=NOISE_SINGLE, seed=0)
        noisy = perturb(grid, noise, cross)
        entries = dict(noisy.items())
        # amplification k**(2r-1) peaks at k = n; first j there is 0
        assert entries == {(n, 0): pytest.approx(0.125)}

    def test_topweight_profile(self):
        grid = CoeffGrid([], 6, 6)
        cross = build_cross(3, 1.0, 1)
        noise = NoiseSpec(p=math.inf, delta=0.5, mode=NOISE_TOPWEIGHT, seed=0)
        noisy = perturb(grid, noise, cross)
        # magnitudes proportional to k**(2r-1) = k, peak scaled to delta
        assert noisy.get(3, 0) == pytest.approx(0.5)
        assert noisy.get(1, 0) == pytest.approx(0.5 / 3)
        assert noisy.get(2, 0) == pytest.approx(1.0 / 3)

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


def test_lp_norm_overflow_safe():
    big = [1e200, 1e200]
    assert lp_norm(big, 2.0) == pytest.approx(math.sqrt(2) * 1e200, rel=1e-12)
    assert lp_norm([], 3.0) == 0.0
    assert lp_norm([0.0, 0.0], 2.0) == 0.0
    assert lp_norm([3.0, -4.0], math.inf) == 4.0
