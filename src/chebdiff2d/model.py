"""Weighted Wiener-class machinery and the coefficient-space noise model.

The class norm weights coefficient (k, j) by max(1,k)**mu1 * max(1,j)**mu2
and takes an l_s aggregate.  Synthetic class members follow a power-law
profile with random signs and a small decay margin epsilon, rescaled to
unit class norm; with the default margin they sit near the boundary of the
unit ball, which keeps observed convergence rates sharp.

Noise is a coefficient perturbation supported on a given index set with its
l_p norm saturated at exactly delta.  All randomness comes from a
counter-based generator keyed by (seed, k, j), so grids and perturbations
are reproducible and independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import _check_table_size, _interval, _one_of
from .hypercross import CrossIndexSet
from .norms import _exact_sum
from .transform import CoeffGrid

NOISE_UNIFORM = "uniform-random"
NOISE_TOPWEIGHT = "adversarial-topweight"
NOISE_SINGLE = "single-coefficient"
NOISE_MODES = (NOISE_UNIFORM, NOISE_TOPWEIGHT, NOISE_SINGLE)
#: Modes whose noise ignores the seed: all trials at a level coincide.
SEED_INDEPENDENT_MODES = frozenset({NOISE_TOPWEIGHT, NOISE_SINGLE})

_U64 = np.uint64
_GOLD = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = z + _GOLD
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def _keyed_hash(seed: int, ks, js) -> np.ndarray:
    """64-bit hash per index pair; depends only on (seed, k, j)."""
    s = _U64(seed % (1 << 64))
    ks = np.asarray(ks, dtype=np.uint64)
    js = np.asarray(js, dtype=np.uint64)
    return _mix64(_mix64(_mix64(ks * _GOLD) ^ s) ^ js * _MIX2)


def _keyed_signs(seed: int, ks, js) -> np.ndarray:
    """Deterministic +-1 array keyed by (seed, k, j)."""
    h = _keyed_hash(seed, ks, js)
    return ((h & _U64(1)) == 1).astype(float) * 2.0 - 1.0


def _keyed_uniform(seed: int, ks, js) -> np.ndarray:
    """Deterministic uniforms in [0, 1) keyed by (seed, k, j)."""
    h = _keyed_hash(seed, ks, js)
    return (h >> _U64(11)).astype(np.float64) * 2.0 ** -53


@dataclass(frozen=True)
class WienerSpec:
    """Smoothness of the class: s in [1, inf), mu1 and mu2 in (0, inf)."""

    s: float
    mu1: float
    mu2: float

    def __post_init__(self):
        _interval(self.s, "s", 1, math.inf)
        _interval(self.mu1, "mu1", 0, math.inf, "()")
        _interval(self.mu2, "mu2", 0, math.inf, "()")


@dataclass(frozen=True)
class NoiseSpec:
    """Coefficient perturbation: l_p norm saturated at delta.

    ``p`` lies in [1, inf] and ``delta`` in [0, 1).  Mode ``uniform-random`` spreads keyed random
    values over the support; ``adversarial-topweight`` weights index (k, j)
    by k**(2r-1), the amplification factor of r-fold differentiation, with
    aligned signs, and claims no extremality; ``single-coefficient`` puts all
    mass on (n, 0), the most amplified index for ``l2w`` only: (n, 1), also in
    every cross, amplifies ``sup`` and ``lqw`` at q > 2 more.  The last two ignore
    ``seed`` and are listed in :data:`SEED_INDEPENDENT_MODES`.
    """

    p: float
    delta: float
    mode: str = NOISE_UNIFORM
    seed: int = 0

    def __post_init__(self):
        _interval(self.p, "p", 1, math.inf, "[]")
        _interval(self.delta, "delta", 0, 1)
        _one_of("noise mode", NOISE_MODES)(self.mode)


def lp_norm(values, p: float) -> float:
    """Overflow-safe l_p norm of finite values; p = math.inf gives the sup."""
    _interval(p, "p", 1, math.inf, "[]")
    arr = np.abs(np.asarray(values, dtype=float)).ravel()
    if arr.size == 0:
        return 0.0
    peak = float(arr.max())  # nan if any value is nan
    if not peak < math.inf:
        raise ValueError("l_p norm needs finite values")
    if peak == 0.0 or math.isinf(p):
        return peak
    return peak * float(np.sum((arr / peak) ** p)) ** (1.0 / p)


def wiener_norm(coeffs: CoeffGrid, spec: WienerSpec) -> float:
    """Class norm (sum_k,j max(1,k)^(s*mu1) max(1,j)^(s*mu2) |a|^s)^(1/s);
    at s = 1 the power pass over |a| is skipped, as x ** 1.0 is x."""
    dense = coeffs._dense
    uk, uj = (np.maximum(1, np.arange(size, dtype=float)) for size in dense.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.outer(uk ** (spec.s * spec.mu1), uj ** (spec.s * spec.mu2))
        terms = weights * (np.abs(dense) if spec.s == 1 else np.abs(dense) ** spec.s)
    norm = _exact_sum(terms) ** (1.0 / spec.s)
    if not math.isfinite(norm):
        raise ValueError(f"the class norm overflows for s = {spec.s}, "
                         f"mu1 = {spec.mu1}, mu2 = {spec.mu2}")
    return norm


def make_class_member(spec: WienerSpec, max_k: int, max_j: int, seed: int,
                      epsilon: float = 0.01) -> CoeffGrid:
    """Synthetic unit-norm class member on the full (max_k x max_j) box.

    Coefficients follow sign(k,j) * max(1,k)**(-mu1-epsilon)
    * max(1,j)**(-mu2-epsilon) and are rescaled so the class norm is
    exactly 1.  The margin epsilon lies in (0, inf); its default 0.01
    places the member near the unit-ball boundary.  Same seed, same grid,
    bit for bit.
    """
    rows, cols = _check_table_size(max_k, max_j)
    _interval(epsilon, "epsilon", 0, math.inf, "()")
    ks, js = np.arange(rows)[:, None], np.arange(cols)
    values = (np.maximum(1.0, ks) ** (-spec.mu1 - epsilon)
              * np.maximum(1.0, js) ** (-spec.mu2 - epsilon)
              * _keyed_signs(seed, ks, js))
    # the grid adopts a read-only view; values itself stays writable
    values /= wiener_norm(CoeffGrid._wrap(values.view()), spec)
    return CoeffGrid._wrap(values)


def perturb(coeffs: CoeffGrid, noise: NoiseSpec, support: CrossIndexSet) -> CoeffGrid:
    """Add a noise grid supported on ``support`` with l_p norm exactly delta.

    delta = 0 returns the input unchanged.  The noise table spans the
    input and the support; a table above MAX_TABLE_ENTRIES is refused.
    """
    if noise.delta == 0.0:
        return coeffs
    max_k, max_j = max(coeffs.max_k, support.n), max(coeffs.max_j, support.j_bound)
    shape = _check_table_size(max_k, max_j)
    # row-major over the support's own box: the support's own order
    ks, js = np.nonzero(support.mask(support.n + 1, support.j_bound + 1))
    if noise.mode == NOISE_SINGLE:
        # amplification k**(2r-1) peaks at k = n, where j = 0 is always admitted
        raw = np.where((ks == support.n) & (js == 0), 1.0, 0.0)
    elif noise.mode == NOISE_TOPWEIGHT:
        # k / 2**e < 1 for every k <= n, so the power cannot overflow, and
        # the scale is a power of two, so the normalised noise keeps its bits
        e = math.frexp(support.n)[1]
        raw = (np.maximum(ks, 1) * 2.0 ** -e) ** (2 * support.r - 1)
        if raw.max() < np.finfo(float).tiny:  # the peak, at k = n, underflows
            raise ValueError(f"adversarial-topweight noise underflows for "
                             f"r = {support.r}, n = {support.n}")
    else:
        raw = 2.0 * _keyed_uniform(noise.seed, ks, js) - 1.0
        if not np.any(raw):
            raw[0] = 1.0
    table = np.zeros(shape)
    table[ks, js] = (noise.delta / lp_norm(raw, noise.p)) * raw
    table[: coeffs.max_k + 1, : coeffs.max_j + 1] += coeffs._dense
    return CoeffGrid._wrap(table)
