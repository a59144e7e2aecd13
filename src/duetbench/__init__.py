"""Continuous-benchmarking harness for detecting performance regressions.

Compares two versions of a deterministic workload under three invocation
strategies (independent, randomized interleaved trials, duet) and quantifies
the relative change with bootstrap percentile confidence intervals. A seeded
platform-variability simulator allows deterministic desk-scale experiments.
"""

import importlib

from .analysis import (
    ConfidenceInterval,
    Verdict,
    bootstrap_ci,
    filter_cold_starts,
    relative_change,
    verdict,
)
from .errors import (
    AffinityUnsupportedError,
    BarrierTimeoutError,
    BenchmarkError,
    ConfigError,
    EmptySamplesError,
    ExecutionError,
    InsufficientCoresError,
    InsufficientSamplesError,
    InvalidRegressionError,
    InvalidWorkloadError,
    PairingError,
    SweepRangeError,
)
from .config import CorePlan
from .harness import (
    ExperimentConfig,
    Report,
    StrategyResult,
    emit_report,
    reanalyze_raw,
    run_experiment,
)
from .measurement import Backend, ClockMode, Measurement, MeasurementSet, Strategy
from .simenv import VariabilityModel, drift_factor, sample_instance, simulate_invocations
from .strategies import (
    LiveInstance,
    SimulatedInstance,
    pair_measurements,
    run_strategy,
)
from .workloads import DEFAULT_SCALES, WorkloadKind, WorkloadSpec, WorkResult, run_workload

__version__ = "0.1.0"


def __getattr__(name: str) -> object:  # the executor's names load it on first use: a simulated gate never imports it
    if name in ("BarrierTrace", "DuetExecutor", "Timing", "available_cores", "timed_run"):
        return getattr(importlib.import_module(".executor", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
