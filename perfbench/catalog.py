"""Workload definitions and metric names of the duetbench benchmark.

Plain data only: `run.py` reads it without importing duetbench. Workload
configs use the key layout of `ExperimentConfig.from_dict`, the same JSON a
user passes with `duetbench run --config`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

ALL_STRATEGIES = ("independent", "rmit", "duet")


@dataclass(frozen=True)
class Workload:
    why: str
    config: dict[str, Any]
    # Injected regression (percent) of gate i is injections[i % len(injections)].
    injections: tuple[float, ...]
    # The first `ci_gates` gates always run and make up ci_width_pp.*, so
    # those widths repeat exactly for a given seed.
    ci_gates: int
    tiny: dict[str, Any] = field(default_factory=dict)
    reanalyze: bool = False
    live: bool = False

    def sized(self, size: str) -> dict[str, Any]:
        return {**self.config, **self.tiny} if size == "tiny" else dict(self.config)


WORKLOADS: dict[str, Workload] = {
    "sim-gate": Workload(
        why="the shipped CI gate at README defaults; bootstrap_ci does almost all the work and executor is bypassed",
        config={"strategies": list(ALL_STRATEGIES), "backend": "simulated", "repetitions": 1500, "instances": 4,
                "resamples": 10_000, "ci_level": 0.99, "threshold_pct": 1.0},
        injections=(0.0, 5.0),
        ci_gates=4,
        tiny={"repetitions": 120, "instances": 2, "resamples": 1000},
    ),
    "sim-archive": Workload(
        why="8000-rep gates at the 1000-resample floor, each with a raw.csv round trip; large n, CSV I/O and simenv show",
        config={"strategies": list(ALL_STRATEGIES), "backend": "simulated", "repetitions": 8000, "instances": 8,
                "resamples": 1000, "ci_level": 0.99, "threshold_pct": 1.0},
        injections=(5.0,),
        ci_gates=2,
        tiny={"repetitions": 400, "instances": 2},
        reanalyze=True,
    ),
    "live-cpu": Workload(
        why="live duet and rmit on pinned cores 0 and 1; executor and workloads do nearly all the work",
        config={"strategies": ["duet", "rmit"], "backend": "live", "repetitions": 50, "instances": 1,
                "workload": {"kind": "cpu_mutation", "scale": 10_000}, "cores": [0, 1], "pinning": True,
                "resamples": 10_000, "ci_level": 0.99, "threshold_pct": 1.0},
        injections=(5.0,),
        ci_gates=1,
        tiny={"workload": {"kind": "cpu_mutation", "scale": 2000}},
        live=True,
    ),
}

# Printed with --trace 0 (measured with tracing off).
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "gate_s.p50": "s",
    "gate_s.tail": "s",
    "pairs_per_s": "pairs/s",
    "peak_rss_mb": "MB",
}

# Printed with --trace 1. A metric of a layer or code path that a workload
# does not run reads 0 on that workload (for example executor.* on the
# simulated workloads, ci_width_pp.* on live-cpu).
PER_LAYER: dict[str, str] = {
    "cli.import_s": "s",
    "harness.run_experiment_s": "s",
    "harness.emit_report_s": "s",
    "harness.raw_csv_bytes": "bytes",
    "harness.load_raw_csv_s": "s",
    "harness.load_rows_per_s": "rows/s",
    "strategies.run_strategy_s": "s",
    "strategies.invocations": "count",
    "strategies.sim_invocations_per_s": "1/s",
    "strategies.pair_measurements_s": "s",
    "strategies.pairs": "count",
    "analysis.bootstrap_ci_s": "s",
    "analysis.bootstrap_calls": "count",
    "analysis.resampled_values_per_s": "1/s",
    "analysis.filter_cold_starts_s": "s",
    "analysis.cold_pairs_removed": "count",
    "executor.spawn_s": "s",
    "executor.duet_invoke_ms": "ms",
    "executor.pair_overhead_ms": "ms",
    "executor.barrier_skew_us": "us",
    "executor.release_lag_us": "us",
    "executor.solo_overhead_ms": "ms",
    "executor.errors": "count",
    "workloads.worker_cpu_ms": "ms",
    "workloads.checksum_mismatches": "count",
    "bench.self_pct": "%",
    "harness.self_pct": "%",
    "harness.csv_io_pct": "%",
    "strategies.self_pct": "%",
    "analysis.self_pct": "%",
    "analysis.bootstrap_ci_self_pct": "%",
    "executor.self_pct": "%",
    "workloads.self_pct": "%",
    "ci_width_pp.independent": "pp",
    "ci_width_pp.rmit": "pp",
    "ci_width_pp.duet": "pp",
    "harness.live_ci_width_pp.duet": "pp",
    "harness.live_ci_width_pp.rmit": "pp",
    "harness.live_median_change_pct.duet": "%",
    "trace.overhead_s": "s",
}
