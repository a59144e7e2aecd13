"""Continuous-benchmarking harness for detecting performance regressions.

Compares two versions of a deterministic workload under three invocation
strategies (independent, randomized interleaved trials, duet) and quantifies
the relative change with bootstrap percentile confidence intervals. A seeded
platform-variability simulator allows deterministic desk-scale experiments.
"""

from .analysis import (
    ConfidenceInterval,
    Verdict,
    bootstrap_ci,
    filter_cold_starts,
    percentile_interval,
    relative_change,
    sweep_sample_size,
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
from .executor import BarrierTrace, CorePlan, DuetExecutor, Timing, available_cores, timed_run
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
from .workloads import DEFAULT_SCALES, WorkloadKind, WorkloadSpec, WorkResult, make_workload, run_workload

__version__ = "0.1.0"
