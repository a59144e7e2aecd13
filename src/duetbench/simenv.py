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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import VariabilityModel
from .errors import ConfigError
from .workloads import WorkloadSpec

_QUALITY_MIN = 0.5
_QUALITY_MAX = 2.0


def _lognormal_sigma_from_cv(cv: float) -> float:
    # cv^2 = exp(sigma^2) - 1  for a lognormal with log-space mean 0
    return math.sqrt(math.log1p(cv * cv))


@dataclass
class InstanceState:
    """One simulated platform instance."""

    instance_id: int
    quality: float
    invocations_served: int = 0
    drift_phase: float = 0.0

    def __post_init__(self) -> None:
        if not (_QUALITY_MIN <= self.quality <= _QUALITY_MAX):
            raise ConfigError(f"quality must lie in [{_QUALITY_MIN}, {_QUALITY_MAX}], got {self.quality}")


def sample_instance(model: VariabilityModel, rng: np.random.Generator, instance_id: int = 0) -> InstanceState:
    """Draw a fresh instance from the quality lottery.

    Quality is lognormal with log-space mean 0 and sigma derived from the
    configured coefficient of variation, truncated to [0.5, 2.0]; a zero cv
    yields exactly 1.0. The drift phase is uniform over one full period.
    """
    sigma = _lognormal_sigma_from_cv(model.instance_quality_cv)
    quality = float(math.exp(rng.normal(0.0, sigma)))
    quality = min(max(quality, _QUALITY_MIN), _QUALITY_MAX)
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    return InstanceState(instance_id=instance_id, quality=quality, drift_phase=phase)


def _each(fn: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """`fn` of every element of a float array, one Python float call each: `np.exp` and `np.sin`
    differ from `math.exp` and `math.sin` in the last ulp on some inputs, and durations keep their bits."""
    return np.fromiter(map(fn, values.ravel().tolist()), np.float64, values.size).reshape(values.shape)


def drift_factor(model: VariabilityModel, inst: InstanceState, t: np.ndarray | float) -> np.ndarray:
    """Slow sinusoidal multiplier at each virtual time in `t` (seconds)."""
    phase = 2.0 * math.pi * np.asarray(t, np.float64) / model.drift_period_s + inst.drift_phase
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


def advance_time(t: float, dt: float, steps: int) -> np.ndarray:
    """The monotone virtual clock from `t` over `steps` steps of `dt`: `steps + 1` times."""
    if dt < 0:
        raise ValueError(f"virtual time cannot move backwards (dt={dt})")
    return np.cumsum(np.r_[t, np.full(steps, dt)])


def simulate_invocations(model: VariabilityModel, inst: InstanceState, specs: Sequence[WorkloadSpec], version: np.ndarray,
                         t: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Durations (ns) and cold flags of invocations run in order on `inst`.

    The i-th runs `specs[version[i]]` at virtual time `t[i]` with noise factor `noise[i]`; the
    instance's first invocation is cold. Products keep the order ((((scale * base) * quality) * drift)
    * noise) before the penalty and the truncation: each duration has the bits of one at a time.
    """
    cost = np.array([spec.effective_scale * model.base_cost_ns_per_unit * inst.quality for spec in specs])[version]
    cost = cost * drift_factor(model, inst, t) * noise
    cold = np.zeros(len(cost), dtype=bool)
    if len(cost) and inst.invocations_served == 0:
        cold[0] = True
        cost[0] += model.cold_penalty_ms * 1e6
    inst.invocations_served += len(cost)
    if not (cost < 2.0**63).all():
        raise OverflowError("a simulated duration exceeds the int64 range of duration_ns")
    return np.maximum(cost.astype(np.int64), 1), cold
