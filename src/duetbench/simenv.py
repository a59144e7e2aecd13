"""Seeded statistical simulator of platform performance variability.

The model is deliberately minimal and separates exactly the factors the three
invocation strategies do or do not control:

    duration_ns = effective_scale * base_cost_ns_per_unit
                  * instance_quality            (per-instance lottery)
                  * drift(t)                    (slow sinusoid, per-instance phase)
                  * temporal_noise              (per-draw lognormal)
                  [+ cold-start penalty on an instance's first invocation]

Instance quality is drawn once per simulated instance from a lognormal
truncated to [0.5, 2.0] ("good" vs "bad" hardware); drift models time-of-day
style variation; the per-draw factor models everything faster than that.
A duet-style caller gives both versions of a pair the *same* noise factor
(times a small residual jitter), which cancels the per-draw factor; sequential
callers give each invocation a fresh draw. The lognormal shapes are a
modeling assumption, not a calibrated fit to any real platform.

Durations have the bits of libm's `exp` and `sin` called one value at a
time, though numpy computes them a batch at a time (`simulate_invocations`).

This module holds no state: its functions take an instance's quality and drift
phase as arguments. `strategies.SimulatedInstance` is the one object that holds
a simulated instance, with its lottery, streams, virtual clock and cold state.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .config import VariabilityModel
from .workloads import WorkloadSpec

_QUALITY_MIN = 0.5
_QUALITY_MAX = 2.0


def _lognormal_sigma_from_cv(cv: float) -> float:
    # cv^2 = exp(sigma^2) - 1  for a lognormal with log-space mean 0
    return math.sqrt(math.log1p(cv * cv))


def sample_instance(model: VariabilityModel, rng: np.random.Generator) -> tuple[float, float]:
    """(quality, drift_phase) of a fresh instance drawn from the quality lottery.

    Quality is lognormal with log-space mean 0 and sigma derived from the
    configured coefficient of variation, truncated to [0.5, 2.0]; a zero cv
    yields exactly 1.0. The drift phase is uniform over one full period.
    """
    sigma = _lognormal_sigma_from_cv(model.instance_quality_cv)
    quality = float(math.exp(rng.normal(0.0, sigma)))
    quality = min(max(quality, _QUALITY_MIN), _QUALITY_MAX)
    return quality, float(rng.uniform(0.0, 2.0 * math.pi))


def _each(fn: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """`fn` of every element of a float array, one Python float call each: `math.exp` or `math.sin`, libm's, whose
    bits the simulator's durations have. `simulate_invocations` asks it only for the costs numpy may not keep."""
    return np.fromiter(map(fn, values.ravel().tolist()), np.float64, values.size).reshape(values.shape)


def drift_factor(model: VariabilityModel, drift_phase: float, t: np.ndarray | float,
                 sin: Callable[[np.ndarray], np.ndarray] = np.sin) -> np.ndarray:
    """Slow sinusoidal multiplier at each virtual time in `t` (seconds) of an instance with `drift_phase`.

    `sin` maps the array of phases: numpy's, or libm's one value at a time (`_each`) where the bits matter."""
    phase = 2.0 * math.pi * np.asarray(t, np.float64) / model.drift_period_s + drift_phase
    return 1.0 + model.drift_amplitude * sin(phase)


def draw_noise(model: VariabilityModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """The (n, 1) exponents of `n` fresh per-draw temporal noise factors, each factor exp of its row."""
    return (rng.standard_normal(n) * model.temporal_sigma)[:, None]


def draw_pair_noise(model: VariabilityModel, rng: np.random.Generator, pairs: int) -> np.ndarray:
    """The (2 * pairs, 2) exponents of duet noise factors: rows 2k and 2k + 1 are pair k's two sides, each the
    shared draw's exponent and then the side's residual jitter's, for a factor exp(shared) * exp(jitter).

    Each pair draws (shared, jitter a, jitter b) in that order; a jitter cv of 0 still draws."""
    jitter = _lognormal_sigma_from_cv(model.duet_jitter_cv)
    return (rng.standard_normal((pairs, 3)) * [model.temporal_sigma, jitter, jitter])[:, [0, 1, 0, 2]].reshape(-1, 2)


def simulate_invocations(model: VariabilityModel, quality: float, drift_phase: float, specs: Sequence[WorkloadSpec],
                         version: np.ndarray, t: np.ndarray, noise: np.ndarray, cold: np.ndarray) -> np.ndarray:
    """Durations (ns) of invocations on an instance of `quality` and `drift_phase`.

    The i-th runs `specs[version[i]]` at virtual time `t[i]` with the noise factor of the exponents `noise[i]`, and
    pays the cold-start penalty where `cold[i]` is true. Products keep the order ((((scale * base) * quality) * drift)
    * noise) before the penalty and the truncation. numpy's `exp` and `sin` compute every cost; libm's, one value at a
    time, recompute those so near an integer that the last ulps, where the two may differ, could move their truncation.
    """
    base = np.array([spec.effective_scale * model.base_cost_ns_per_unit * quality for spec in specs])[version]

    def costs(rows: np.ndarray | slice, exp: Callable, sin: Callable) -> np.ndarray:
        factor = functools.reduce(np.multiply, map(exp, noise[rows].T))  # a duet side's shared factor, times its jitter
        cost = base[rows] * drift_factor(model, drift_phase, t[rows], sin) * factor
        cost[cold[rows]] += model.cold_penalty_ms * 1e6
        return cost

    with np.errstate(over="ignore", invalid="ignore"):  # a cost that is not finite is recomputed, and fails, below
        cost = costs(slice(None), np.exp, np.sin)
        # glibc's exp and sin, and numpy's SIMD ones, lie within 4 ulps of the true value (numpy 2.4, AVX-512: exp
        # differs from math.exp by 1 ulp on 4.7 % of normal exponents, sin on none of 2 M phases): under 2**-49 of an
        # exp factor apart, and of 1 in sin, which 1 + amplitude * sin makes 2**-49 / (1 - amplitude) of the drift
        # factor. After the six correctly rounded products and sums that follow, two costs lie under
        # 2**-44 / (1 - amplitude) of a cost apart: one farther than 2**-32 / (1 - amplitude) of itself from every
        # integer truncates alike with both.
        near = ~(np.abs(cost - np.rint(cost)) > cost * (2.0**-32 / (1.0 - model.drift_amplitude)))
    if near.any():
        cost[near] = costs(near, functools.partial(_each, math.exp), functools.partial(_each, math.sin))
    if not (cost < 2.0**63).all():
        raise OverflowError("a simulated duration exceeds the int64 range of duration_ns")
    return np.maximum(cost.astype(np.int64), 1)
