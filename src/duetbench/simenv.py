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

This module holds no state: its functions take an instance's quality and drift
phase as arguments. `strategies.SimulatedInstance` is the one object that holds
a simulated instance, with its lottery, streams, virtual clock and cold state.
"""

from __future__ import annotations

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
    """`fn` of every element of a float array, one Python float call each: `np.exp` and `np.sin`
    differ from `math.exp` and `math.sin` in the last ulp on some inputs, and durations keep their bits."""
    return np.fromiter(map(fn, values.ravel().tolist()), np.float64, values.size).reshape(values.shape)


def drift_factor(model: VariabilityModel, drift_phase: float, t: np.ndarray | float) -> np.ndarray:
    """Slow sinusoidal multiplier at each virtual time in `t` (seconds) of an instance with `drift_phase`."""
    phase = 2.0 * math.pi * np.asarray(t, np.float64) / model.drift_period_s + drift_phase
    return 1.0 + model.drift_amplitude * _each(math.sin, phase)


def draw_noise(model: VariabilityModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """`n` fresh per-draw temporal noise multipliers."""
    return _each(math.exp, rng.standard_normal(n) * model.temporal_sigma)


def draw_pair_noise(model: VariabilityModel, rng: np.random.Generator, pairs: int) -> np.ndarray:
    """(pairs, 2) duet noise multipliers: one shared draw times each side's residual jitter.

    Each pair draws (shared, jitter a, jitter b) in that order; a jitter cv of 0 still draws."""
    jitter = _lognormal_sigma_from_cv(model.duet_jitter_cv)
    shared, a, b = _each(math.exp, rng.standard_normal((pairs, 3)) * [model.temporal_sigma, jitter, jitter]).T
    return np.stack([shared * a, shared * b], axis=1)


def simulate_invocations(model: VariabilityModel, quality: float, drift_phase: float, specs: Sequence[WorkloadSpec],
                         version: np.ndarray, t: np.ndarray, noise: np.ndarray, cold: np.ndarray) -> np.ndarray:
    """Durations (ns) of invocations on an instance of `quality` and `drift_phase`.

    The i-th runs `specs[version[i]]` at virtual time `t[i]` with noise factor `noise[i]`, and pays the
    cold-start penalty where `cold[i]` is true. Products keep the order ((((scale * base) * quality) * drift)
    * noise) before the penalty and the truncation: each duration has the bits of one at a time.
    """
    cost = np.array([spec.effective_scale * model.base_cost_ns_per_unit * quality for spec in specs])[version]
    cost = cost * drift_factor(model, drift_phase, t) * noise
    cost[cold] += model.cold_penalty_ms * 1e6
    if not (cost < 2.0**63).all():
        raise OverflowError("a simulated duration exceeds the int64 range of duration_ns")
    return np.maximum(cost.astype(np.int64), 1)
