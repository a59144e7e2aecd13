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
A duet-style caller passes the *same* `shared_draw` to both versions, which
cancels the per-draw factor exactly; sequential callers let each invocation
draw fresh noise. The lognormal shapes are a modeling assumption, not a
calibrated fit to any real platform.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError
from .measurement import ClockMode, Measurement, Strategy, default_clock
from .workloads import WorkloadSpec

_QUALITY_MIN = 0.5
_QUALITY_MAX = 2.0


# Resolved field types of each `typed_fields` class, filled in at import.
_FIELD_TYPES: dict[type, dict[str, Any]] = {}


def typed_fields(cls: type) -> type:
    """Class decorator: resolve a dataclass's field types once, for `check_fields`."""
    _FIELD_TYPES[cls] = get_type_hints(cls)
    return cls


def check_fields(obj: Any) -> None:
    """Bring each field of a frozen `typed_fields` dataclass to its annotated type.

    Converts the JSON forms: enum values to members, lists to tuples, a
    string to a Path, an int to a float and an object to a nested dataclass.
    Raises ConfigError on any other type (a bool is not an int), on a
    non-finite float and on an object key the nested dataclass lacks.
    """
    for name, hint in _FIELD_TYPES[type(obj)].items():
        object.__setattr__(obj, name, _convert(getattr(obj, name), hint, name))


def _convert(value: Any, hint: Any, name: str) -> Any:
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # `T | None`
        return None if value is None else _convert(value, args[0], name)
    if origin is tuple:  # `tuple[T, ...]`
        if isinstance(value, (list, tuple)):
            return tuple(_convert(item, args[0], name) for item in value)
    elif isinstance(value, bool) and hint is not bool:
        pass  # bool subclasses int, but True is no count or float
    elif hint is float and isinstance(value, (int, float)):
        with contextlib.suppress(OverflowError):  # an int too large for a float
            if math.isfinite(value):
                return float(value)
    elif hint is Path and isinstance(value, str):
        return Path(value)
    elif isinstance(value, hint):
        return value
    elif issubclass(hint, Enum):
        with contextlib.suppress(ValueError):
            return hint(value)
    elif is_dataclass(hint) and isinstance(value, dict) and value.keys() <= {f.name for f in fields(hint)}:
        return hint(**value)
    raise ConfigError(f"{name}: {value!r} is not a valid {getattr(hint, '__name__', hint)}")


def _lognormal_sigma_from_cv(cv: float) -> float:
    # cv^2 = exp(sigma^2) - 1  for a lognormal with log-space mean 0
    return math.sqrt(math.log1p(cv * cv))


@typed_fields
@dataclass(frozen=True)
class VariabilityModel:
    """Parameters of the simulated platform.

    `instance_quality_cv` and `duet_jitter_cv` are coefficients of variation
    of their multipliers; `temporal_sigma` is the log-space standard deviation
    of the per-draw factor. `duet_jitter_cv` is the residual independent
    jitter applied around a shared draw so duet intervals are small but not
    exactly zero; set it to 0 for fully shared draws.
    """

    instance_quality_cv: float = 0.15
    temporal_sigma: float = 0.05
    cold_penalty_ms: float = 150.0
    base_cost_ns_per_unit: float = 100.0
    drift_period_s: float = 300.0
    drift_amplitude: float = 0.12
    duet_jitter_cv: float = 0.002
    time_step_s: float = 0.1

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("instance_quality_cv", "temporal_sigma", "cold_penalty_ms", "drift_amplitude", "duet_jitter_cv"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("base_cost_ns_per_unit", "drift_period_s", "time_step_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.drift_amplitude >= 1.0:
            raise ConfigError(f"drift_amplitude must be < 1, got {self.drift_amplitude}")


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


def drift_factor(model: VariabilityModel, inst: InstanceState, t: float) -> float:
    """Slow sinusoidal multiplier at virtual time `t` (seconds)."""
    return 1.0 + model.drift_amplitude * math.sin(2.0 * math.pi * t / model.drift_period_s + inst.drift_phase)


def draw_noise(model: VariabilityModel, rng: np.random.Generator) -> float:
    """One fresh per-draw temporal noise multiplier."""
    return float(math.exp(rng.normal(0.0, model.temporal_sigma)))


def draw_jitter(model: VariabilityModel, rng: np.random.Generator) -> float:
    """Residual independent jitter multiplier for duet draws (1.0 when cv=0)."""
    return float(math.exp(rng.normal(0.0, _lognormal_sigma_from_cv(model.duet_jitter_cv))))


def advance_time(t: float, dt: float) -> float:
    """Advance the monotone virtual clock."""
    if dt < 0:
        raise ValueError(f"virtual time cannot move backwards (dt={dt})")
    return t + dt


def simulate_invocation(
    model: VariabilityModel,
    inst: InstanceState,
    spec: WorkloadSpec,
    t: float,
    rng: np.random.Generator,
    shared_draw: float | None = None,
    *,
    strategy: Strategy,
    repetition: int = 0,
    order_position: int | None = None,
    clock_mode: ClockMode | None = None,
) -> Measurement:
    """Simulate one invocation on `inst` at virtual time `t`.

    When `shared_draw` is given it replaces the fresh per-draw noise factor,
    so two invocations handed the same value (and the same instance and time)
    get exactly correlated noise. The instance's first invocation is flagged
    cold and pays the cold-start penalty; the counter then advances.
    """
    cold = inst.invocations_served == 0
    noise = shared_draw if shared_draw is not None else draw_noise(model, rng)
    cost = (
        spec.effective_scale
        * model.base_cost_ns_per_unit
        * inst.quality
        * drift_factor(model, inst, t)
        * noise
    )
    if cold:
        cost += model.cold_penalty_ms * 1e6
    inst.invocations_served += 1
    if clock_mode is None:
        clock_mode = default_clock(strategy)
    return Measurement(
        duration_ns=max(int(cost), 1),
        clock_mode=clock_mode,
        version_label=spec.version_label,
        strategy=strategy,
        instance_id=inst.instance_id,
        repetition=repetition,
        cold=cold,
        order_position=order_position,
    )
