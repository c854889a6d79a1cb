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

from .hypercross import CrossIndexSet
from .norms import _exact_sum
from .transform import CoeffGrid, _check_table_size

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


def keyed_signs(seed: int, ks, js) -> np.ndarray:
    """Deterministic +-1 array keyed by (seed, k, j)."""
    h = _keyed_hash(seed, ks, js)
    return np.where((h & _U64(1)).astype(bool), 1.0, -1.0)


def keyed_uniform(seed: int, ks, js) -> np.ndarray:
    """Deterministic uniforms in [0, 1) keyed by (seed, k, j)."""
    h = _keyed_hash(seed, ks, js)
    return (h >> _U64(11)).astype(np.float64) * 2.0 ** -53


@dataclass(frozen=True)
class WienerSpec:
    """Smoothness parameters (s, mu1, mu2) of the coefficient class."""

    s: float
    mu1: float
    mu2: float

    def __post_init__(self):
        if not 1 <= self.s < math.inf:
            raise ValueError("s must be >= 1 and finite")
        if not (0 < self.mu1 < math.inf and 0 < self.mu2 < math.inf):
            raise ValueError("mu1 and mu2 must be positive and finite")


@dataclass(frozen=True)
class NoiseSpec:
    """Coefficient perturbation: l_p norm saturated at delta.

    ``p`` may be math.inf.  Mode ``uniform-random`` spreads keyed random
    values over the support; ``adversarial-topweight`` weights index (k, j)
    by k**(2r-1), the amplification factor of r-fold differentiation, with
    aligned signs; ``single-coefficient`` puts all mass on the single
    most-amplified index.  The last two ignore ``seed`` and are listed in
    :data:`SEED_INDEPENDENT_MODES`.
    """

    p: float
    delta: float
    mode: str = NOISE_UNIFORM
    seed: int = 0

    def __post_init__(self):
        if not self.p >= 1:
            raise ValueError("p must be >= 1 (math.inf allowed)")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must lie in [0, 1)")
        if self.mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.mode!r}")


def lp_norm(values, p: float) -> float:
    """l_p norm with overflow-safe scaling; p = math.inf gives the sup."""
    arr = np.abs(np.asarray(values, dtype=float)).ravel()
    if arr.size == 0:
        return 0.0
    peak = float(arr.max())
    if peak == 0.0 or math.isinf(p):
        return peak
    return peak * float(np.sum((arr / peak) ** p)) ** (1.0 / p)


def _class_norm(dense: np.ndarray, spec: WienerSpec) -> float:
    """Class norm of the dense table whose entry [k, j] is a[k, j]."""
    uk = np.maximum(1, np.arange(dense.shape[0], dtype=float))
    uj = np.maximum(1, np.arange(dense.shape[1], dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.outer(uk ** (spec.s * spec.mu1), uj ** (spec.s * spec.mu2))
        terms = weights * np.abs(dense) ** spec.s
    try:
        norm = _exact_sum(terms) ** (1.0 / spec.s)
    except OverflowError:  # a finite sum beyond the float range
        norm = math.inf
    if not math.isfinite(norm):
        raise ValueError(f"the class norm overflows for s = {spec.s}, "
                         f"mu1 = {spec.mu1}, mu2 = {spec.mu2}")
    return norm


def wiener_norm(coeffs: CoeffGrid, spec: WienerSpec) -> float:
    """Class norm (sum_k,j max(1,k)^(s*mu1) max(1,j)^(s*mu2) |a|^s)^(1/s)."""
    return _class_norm(coeffs.to_dense(), spec)


def make_class_member(spec: WienerSpec, max_k: int, max_j: int, seed: int,
                      epsilon: float = 0.01) -> CoeffGrid:
    """Synthetic unit-norm class member on the full (max_k x max_j) box.

    Coefficients follow sign(k,j) * max(1,k)**(-mu1-epsilon)
    * max(1,j)**(-mu2-epsilon) and are rescaled so the class norm is
    exactly 1.  The default margin epsilon = 0.01 places the member near
    the unit-ball boundary.  Same seed, same grid, bit for bit.
    """
    if max_k < 0 or max_j < 0:
        raise ValueError("degree bounds must be nonnegative")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _check_table_size(max_k, max_j)
    uk = np.maximum(1, np.arange(max_k + 1, dtype=float))
    uj = np.maximum(1, np.arange(max_j + 1, dtype=float))
    profile = np.outer(uk ** (-spec.mu1 - epsilon), uj ** (-spec.mu2 - epsilon))
    kk, jj = np.meshgrid(np.arange(max_k + 1), np.arange(max_j + 1), indexing="ij")
    values = keyed_signs(seed, kk.ravel(), jj.ravel()).reshape(profile.shape) * profile
    return CoeffGrid.from_dense(values / _class_norm(values, spec))


def perturb(coeffs: CoeffGrid, noise: NoiseSpec, support: CrossIndexSet) -> CoeffGrid:
    """Add a noise grid supported on ``support`` with l_p norm exactly delta.

    delta = 0 returns the input unchanged.  Raises ValueError when the
    support is empty but delta > 0 (cannot place any noise mass).
    """
    if noise.delta == 0.0:
        return coeffs
    ks, js = np.fromiter(support, dtype=np.dtype((np.int64, 2))).T
    if not len(ks):
        raise ValueError("cannot place noise on an empty support")
    if noise.mode == NOISE_SINGLE:
        # amplification k**(2r-1) peaks at k = n, where j = 0 is always admitted
        raw = np.where((ks == support.n) & (js == 0), 1.0, 0.0)
    elif noise.mode == NOISE_TOPWEIGHT:
        raw = np.maximum(ks, 1).astype(float) ** (2 * support.r - 1)
    else:
        raw = 2.0 * keyed_uniform(noise.seed, ks, js) - 1.0
        if not np.any(raw):
            raw[0] = 1.0
    xi = (noise.delta / lp_norm(raw, noise.p)) * raw
    noise_grid = CoeffGrid.from_entries(
        ks, js, xi,
        max(coeffs.max_k, support.n),
        max(coeffs.max_j, support.j_bound),
    )
    return coeffs + noise_grid
