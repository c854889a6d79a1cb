"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import math
import time

import numpy as np
import pytest

from chebdiff2d import (NOISE_MODES, NOISE_TOPWEIGHT, CoeffGrid,
                        ExperimentConfig, MetricSpec, NoiseSpec, ProblemSpec,
                        TestFunctionSpec, WienerSpec, analyze, basis_matrix,
                        build_cross, cardinality, cosine_grid,
                        differentiate_coeffs, fd_partial_t,
                        gauss_chebyshev_nodes, grid_synthesize, l2_omega_norm,
                        lp_norm, lq_omega_norm, nikolskii_explicit_bound,
                        perturb, run_convergence, sup_norm, synthesize,
                        validate_suite)
from helpers import random_grid

DELTAS = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def rate_config(mu1, mu2, metric):
    problem = ProblemSpec(r=1, wiener=WienerSpec(s=1.0, mu1=mu1, mu2=mu2),
                          noise_p=2.0, metric=metric)
    return ExperimentConfig(
        problem=problem,
        deltas=DELTAS,
        gamma=1.5,
        test_function=TestFunctionSpec(kind="class-member", seed=42,
                                       max_k=256, max_j=256, epsilon=0.01),
        metrics=(metric,),
        trials_per_delta=10,
        noise_mode=NOISE_TOPWEIGHT,
        noise_seed=1000,
    )


def test_criterion_1_derivative_operator_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst_rel = 0.0
    for _ in range(100):
        grid = random_grid(rng, 12, 12)
        ts = rng.uniform(-0.9, 0.9, size=20)
        taus = rng.uniform(-1.0, 1.0, size=20)
        for r in (1, 2, 3):
            deriv = differentiate_coeffs(grid, r)
            spectral = np.array([synthesize(deriv, t, u)
                                 for t, u in zip(ts, taus)])
            fd = fd_partial_t(grid, r, ts, taus)
            rel = float(np.abs(spectral - fd).max() / np.abs(spectral).max())
            worst_rel = max(worst_rel, rel)

    # analytic family: every t-derivative of exp(t)cos(pi tau/2) is itself;
    # reconstruction from the degree-24 truncated expansion
    f = lambda t, u: math.exp(t) * math.cos(math.pi * u / 2.0)
    nodes = cosine_grid(129)
    exact = np.array([[f(t, u) for u in nodes] for t in nodes])
    worst_analytic = 0.0
    grid24 = analyze(f, 24, 24)
    for r in (1, 2):
        approx = grid_synthesize(differentiate_coeffs(grid24, r), nodes, nodes)
        worst_analytic = max(worst_analytic, float(np.abs(approx - exact).max()))

    elapsed = time.monotonic() - start
    ok = worst_rel <= 1e-5 and worst_analytic <= 1e-6 and elapsed < 30
    report("criterion 1 (derivative operator)", ok,
           f"FD-oracle rel sup {worst_rel:.3e} (<=1e-5), analytic n=24 sup "
           f"{worst_analytic:.3e} (<=1e-6), {elapsed:.1f}s")


def test_criterion_2_parseval_and_orthonormality():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        grid = random_grid(rng, 24, 24, fill=float(rng.uniform(0.3, 1.0)))
        a = l2_omega_norm(grid)
        b = lq_omega_norm(grid, 2.0)
        worst = max(worst, abs(a - b) / a)
    bmat = basis_matrix(24, gauss_chebyshev_nodes(25))
    gram_dev = float(np.abs(bmat.T @ (math.pi / 25 * bmat)
                            - np.eye(25)).max())
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and gram_dev <= 1e-12 and elapsed < 5
    report("criterion 2 (Parseval/orthonormality)", ok,
           f"norm mismatch {worst:.3e} (<=1e-10), Gram deviation "
           f"{gram_dev:.3e} (<=1e-12), {elapsed:.1f}s")


def test_criterion_3_l2_rate():
    start = time.monotonic()
    config = rate_config(3.0, 2.0, MetricSpec("l2w"))
    rep = run_convergence(config).reports["l2w"]
    diff = abs(rep.fitted_slope - rep.theoretical_slope)
    elapsed = time.monotonic() - start
    ok = diff <= 0.10 and elapsed < 300
    report("criterion 3 (weighted-L2 rate)", ok,
           f"fitted {rep.fitted_slope:.4f} vs predicted "
           f"{rep.theoretical_slope:.4f} (|diff| {diff:.4f} <= 0.10), "
           f"{elapsed:.1f}s")


def test_criterion_4_uniform_rate():
    start = time.monotonic()
    config = rate_config(3.5, 3.0, MetricSpec("sup", eval_grid=257))
    rep = run_convergence(config).reports["sup"]
    assert rep.theoretical_slope == pytest.approx(0.375)
    diff = abs(rep.fitted_slope - rep.theoretical_slope)
    elapsed = time.monotonic() - start
    ok = diff <= 0.12 and elapsed < 300
    report("criterion 4 (uniform-metric rate)", ok,
           f"fitted {rep.fitted_slope:.4f} vs predicted 0.3750 "
           f"(|diff| {diff:.4f} <= 0.12), {elapsed:.1f}s")


def test_criterion_5_l4_rate():
    start = time.monotonic()
    config = rate_config(3.0, 2.0, MetricSpec("lqw", q=4.0))
    rep = run_convergence(config).reports["lqw:4"]
    assert rep.theoretical_slope == pytest.approx(1.25 / 3.5)
    diff = abs(rep.fitted_slope - rep.theoretical_slope)
    elapsed = time.monotonic() - start
    ok = diff <= 0.12 and elapsed < 300
    report("criterion 5 (weighted-L4 rate)", ok,
           f"fitted {rep.fitted_slope:.4f} vs predicted "
           f"{rep.theoretical_slope:.4f} (|diff| {diff:.4f} <= 0.12), "
           f"{elapsed:.1f}s")


def test_criterion_6_cardinality():
    start = time.monotonic()
    ns = [2**e for e in range(10, 18)]
    ratio2 = [cardinality(n, 2.0, 1) / n for n in ns]
    ratio1 = [cardinality(n, 1.0, 1) / (n * math.log(n)) for n in ns]
    spread2 = max(ratio2) / min(ratio2)
    spread1 = max(ratio1) / min(ratio1)
    spots = (cardinality(4, 1.0, 1), cardinality(4, 2.0, 1))
    elapsed = time.monotonic() - start
    ok = (spread2 < 4.0 and spread1 < 4.0 and spots == (12, 9) and elapsed < 10)
    report("criterion 6 (cross cardinality)", ok,
           f"bracket spreads gamma=2: {spread2:.3f}, gamma=1: {spread1:.3f} "
           f"(<4), spot values {spots} == (12, 9), {elapsed:.1f}s")


def test_criterion_7_noise_contract():
    start = time.monotonic()
    rng = np.random.default_rng(707)
    worst = 0.0
    cases = 0
    while cases < 100:
        p = float(rng.choice([1.0, 2.0, 5.0, math.inf]))
        mode = NOISE_MODES[int(rng.integers(0, 3))]
        r = int(rng.integers(1, 3))
        n = int(rng.integers(r, 20))
        gamma = float(rng.uniform(1.0, 2.5))
        delta = float(rng.uniform(1e-4, 0.99))
        grid = random_grid(rng, 16, 16, fill=0.3)
        cross = build_cross(n, gamma, r)
        noisy = perturb(grid, NoiseSpec(p=p, delta=delta, mode=mode,
                                        seed=cases), cross)
        xi = [noisy.get(k, j) - grid.get(k, j) for k, j in cross]
        worst = max(worst, abs(lp_norm(xi, p) - delta))
        cases += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 5
    report("criterion 7 (noise saturation)", ok,
           f"max |lp(noise) - delta| = {worst:.3e} (<=1e-12) over 100 cases, "
           f"{elapsed:.1f}s")


def test_criterion_8_nikolskii():
    start = time.monotonic()
    rng = np.random.default_rng(808)
    bound = nikolskii_explicit_bound(16, 16)
    violations = 0
    worst_ratio = 0.0
    for _ in range(1000):
        grid = random_grid(rng, 16, 16)
        ratio = sup_norm(grid, 257) / (bound * l2_omega_norm(grid))
        worst_ratio = max(worst_ratio, ratio)
        violations += ratio > 1.0
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 30
    report("criterion 8 (explicit sup/L2 bound)", ok,
           f"{violations} violations over 1000 polynomials, max ratio "
           f"{worst_ratio:.4f}, {elapsed:.1f}s")


def test_criterion_9_derivative_constant_artifact():
    results = {res.name: res for res in validate_suite()}
    res = results["derivative-zeta0-resolution"]
    ok = (res.passed and res.measured <= 1e-12
          and "1/sqrt(2)" in res.detail and "sqrt(2)" in res.detail)
    report("criterion 9 (degree-0 weight resolution)", ok,
           f"suite records: {res.detail}; residual {res.measured:.3e} (<=1e-12)")
