"""The closed gate loop: one gate at a time, checked, timed and optionally traced.

A gate is what a CI job runs: config -> `run_experiment` -> `emit_report`
(-> `reanalyze_raw` on sim-archive) -> verdict. Gate seeds derive from the
workload seed. Correctness checks run after each gate, outside its timing;
a gate with any failed check or a `BenchmarkError` counts as one failed op.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from duetbench import ExperimentConfig, Report, Strategy, Verdict, emit_report, reanalyze_raw, run_experiment, run_workload
from duetbench.errors import BenchmarkError
from duetbench.executor import DuetExecutor

from catalog import ALL_STRATEGIES, WORKLOADS, Workload
from spans import Tracer, patched

# A median change further than this from the injected one fails the duet check.
DUET_MEDIAN_TOLERANCE_PP = 0.5


def gate_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class GateRecord:
    index: int
    seed: int
    injected_pct: float
    traced: bool
    seconds: float = 0.0
    kernel_s: tuple[float, float] = (0.0, 0.0)  # calibration kernel right before and after
    verdict: str = ""
    pairs: int = 0
    raw_csv_bytes: int = 0
    checksum_mismatches: int = 0
    verdicts: dict[str, str] = field(default_factory=dict)
    width_pp: dict[str, float] = field(default_factory=dict)
    median_pct: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


class DuetPairs:
    """The benchmark's one wrapper around `DuetExecutor.duet_invoke`, installed for a whole live run.

    On every gate it counts duet pairs whose workers did not run on exactly
    the planned cores. While `tracer` is set (during a traced gate), each
    pair also runs inside the tracer's `executor.duet_invoke` span.
    """

    def __init__(self, cores: tuple[int, int]) -> None:
        self.expected = ((cores[0],), (cores[1],))
        self.bad_pairs = 0
        self.tracer: Tracer | None = None

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        original = DuetExecutor.duet_invoke

        def wrapper(executor: DuetExecutor, *args: Any, **kwargs: Any) -> Any:
            def call() -> Any:
                return original(executor, *args, **kwargs)

            result = self.tracer.duet_pair(executor, call) if self.tracer else call()
            trace = executor.last_barrier
            if (trace.affinity_a, trace.affinity_b) != self.expected:
                self.bad_pairs += 1
            return result

        DuetExecutor.duet_invoke = wrapper
        try:
            yield
        finally:
            DuetExecutor.duet_invoke = original


def peak_rss_kb() -> int:
    """This process's peak RSS in KiB.

    Read from VmHWM, which belongs to the process's own address space. Linux
    folds the address space a process replaces at exec into its ru_maxrss.
    CPython's `subprocess` starts children with vfork there, so this child's
    ru_maxrss would start at the peak of run.py, calibration kernel included.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _untraced(name: str, **attrs: Any) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


def run_gate(wl: Workload, cfg: ExperimentConfig, out_dir: Path, span: Callable) -> tuple[Report, Report | None, Verdict]:
    with span("gate"):
        with span("harness.run_experiment"):
            report = run_experiment(cfg)
        with span("harness.emit_report"):
            emit_report(report, out_dir, cfg.formats)
        again = None
        if wl.reanalyze:
            with span("harness.reanalyze_raw"):
                again = reanalyze_raw(
                    out_dir / "raw.csv", seed=cfg.seed, ci_level=cfg.ci_level, resamples=cfg.resamples,
                    threshold_pct=cfg.threshold_pct, min_samples=cfg.min_samples,
                    baseline_label=cfg.baseline_label, candidate_label=cfg.candidate_label, pairing=cfg.pairing,
                )
        verdict = (again or report).overall_verdict
    return report, again, verdict


def check_gate(wl: Workload, cfg: ExperimentConfig, report: Report, again: Report | None,
               digest: Callable, rec: GateRecord) -> None:
    """Record one gate's correctness failures; independent and rmit verdicts are not checked."""
    if not wl.live:
        duet = next(r for r in report.results if r.strategy is Strategy.DUET)
        expected = Verdict.REGRESSION if cfg.regression_pct > cfg.threshold_pct else Verdict.PASS
        if duet.verdict is not expected:
            rec.failures.append(f"duet verdict {duet.verdict.value}, expected {expected.value}")
        if abs(duet.median_change_pct - cfg.regression_pct) > DUET_MEDIAN_TOLERANCE_PP:
            rec.failures.append(f"duet median change {duet.median_change_pct:.4f}% vs injected {cfg.regression_pct}%")
    if again is not None:
        for a, b in zip(report.results, again.results, strict=True):
            if (a.strategy, a.ci.lower_pct, a.ci.upper_pct) != (b.strategy, b.ci.lower_pct, b.ci.upper_pct):
                rec.failures.append(f"{a.strategy.value}: reanalysed CI {b.ci} differs from {a.ci}")
    if wl.live:
        expected_result = {spec.version_label: digest(spec) for spec in cfg.specs()}
        rec.checksum_mismatches = sum(
            m.result != expected_result[m.version_label] for r in report.results for m in r.measurements
        )
        if rec.checksum_mismatches:
            rec.failures.append(f"{rec.checksum_mismatches} measurement results differ from run_workload(spec)")


def run(workload: str, seed: int, seconds: float, trace: bool, size: str, out_root: Path, *,
        kernel: Callable[[], float]) -> dict[str, Any]:
    """Run gates for `seconds` (and at least `ci_gates`, two if traced) and summarize.

    `kernel` runs the calibration kernel before the first gate and after
    every gate and returns its time.
    """
    wl = WORKLOADS[workload]
    base = wl.sized(size)
    out_dir = out_root / workload
    tracer = Tracer() if trace else None
    digests: dict = {}

    def digest(spec):
        if spec not in digests:
            digests[spec] = run_workload(spec)
        return digests[spec]

    gates: list[GateRecord] = []
    kernel_s = [kernel()]
    with contextlib.ExitStack() as stack:
        pairs = None
        if wl.live:
            pairs = DuetPairs(tuple(base["cores"]))
            stack.enter_context(pairs.installed())
        # A traced run needs an untraced gate too, for trace.overhead_s.
        min_gates = max(wl.ci_gates, 2 if tracer else 1)
        start = time.perf_counter()
        while len(gates) < min_gates or time.perf_counter() - start < seconds:
            i = len(gates)
            cfg = ExperimentConfig.from_dict(
                base, seed=gate_seed(seed, i), regression_pct=wl.injections[i % len(wl.injections)], output_dir=out_dir
            )
            # In a traced run every other gate runs untraced, for the overhead.
            traced = tracer is not None and i % 2 == 0
            rec = GateRecord(i, cfg.seed, cfg.regression_pct, traced)
            bad_before = pairs.bad_pairs if pairs else 0
            if pairs:
                pairs.tracer = tracer if traced else None
            with patched(tracer) if traced else contextlib.nullcontext():
                if traced:
                    tracer.gate = i
                t0 = time.perf_counter()
                try:
                    report, again, verdict = run_gate(wl, cfg, out_dir, tracer.span if traced else _untraced)
                except BenchmarkError as exc:
                    rec.failures.append(f"{type(exc).__name__}: {exc}")
                    report = None
                rec.seconds = time.perf_counter() - t0
            kernel_s.append(kernel())
            rec.kernel_s = (kernel_s[-2], kernel_s[-1])
            if report is not None:
                rec.verdict = verdict.value
                rec.pairs = sum(r.pairs_before_filter for r in report.results)
                rec.raw_csv_bytes = (out_dir / "raw.csv").stat().st_size
                for r in report.results:
                    rec.verdicts[r.strategy.value] = r.verdict.value
                    rec.width_pp[r.strategy.value] = r.ci.width_pp
                    rec.median_pct[r.strategy.value] = r.median_change_pct
                check_gate(wl, cfg, report, again, digest, rec)
            if pairs and pairs.bad_pairs > bad_before:
                rec.failures.append(f"{pairs.bad_pairs - bad_before} duet pairs ran off cores {pairs.expected}")
            gates.append(rec)
    # Duet workers are children of this process and have exited by now.
    self_kb = peak_rss_kb()
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out: dict[str, Any] = {
        "gates": [vars(g) for g in gates],
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
        "peak_rss_parts_mb": {"self": self_kb / 1024.0, "largest_child": child_kb / 1024.0},
        "numpy": np.__version__,
        "outcomes": outcome_metrics(wl, gates),
    }
    if tracer is not None:
        out["layers"] = {**layer_metrics(tracer, gates), **out["outcomes"]}
        tracer.write(out_root / f"{workload}-seed{seed}-spans.json")
    return out


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def outcome_metrics(wl: Workload, gates: list[GateRecord]) -> dict[str, float]:
    """CI widths and live diagnostics; 0 where the workload does not produce them."""
    first = [g for g in gates[: wl.ci_gates] if g.width_pp]
    live = [g for g in gates if g.width_pp] if wl.live else []
    out = {f"ci_width_pp.{s}": 0.0 if wl.live else _median([g.width_pp[s] for g in first]) for s in ALL_STRATEGIES}
    out["harness.live_ci_width_pp.duet"] = _median([g.width_pp["duet"] for g in live])
    out["harness.live_ci_width_pp.rmit"] = _median([g.width_pp["rmit"] for g in live])
    out["harness.live_median_change_pct.duet"] = _median([g.median_pct["duet"] for g in live])
    return out


def layer_metrics(tracer: Tracer, gates: list[GateRecord]) -> dict[str, float]:
    """Per-layer values from the traced gates' spans."""
    spans = tracer.spans
    self_ns = tracer.self_ns()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def of(name: str) -> list:
        return [spans[i] for i in by_name.get(name, ())]

    def durs(name: str) -> list[float]:
        return [s.dur_ns / 1e9 for s in of(name)]

    def attr(name: str, key: str) -> list[Any]:
        return [s.attrs[key] for s in of(name) if key in s.attrs]

    def self_s(name: str) -> float:
        return sum(self_ns[i] for i in by_name.get(name, ())) / 1e9

    traced = [g for g in gates if g.traced]
    untraced = [g.seconds for g in gates if not g.traced]
    per_gate = 1.0 / max(len(traced), 1)
    gate_total = sum(durs("gate")) or 1.0
    layer_self: dict[str, float] = {}
    for i, s in enumerate(spans):
        layer = "bench" if s.name == "gate" else s.name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_ns[i] / 1e9

    boot_s = self_s("analysis.bootstrap_ci")
    resampled = sum(n * r for n, r in zip(attr("analysis.bootstrap_ci", "n"), attr("analysis.bootstrap_ci", "resamples")))
    sim_runs = [i for i in by_name.get("strategies.run_strategy", ()) if spans[i].attrs["backend"] == "simulated"]
    sim_run_s = sum(self_ns[i] for i in sim_runs) / 1e9
    load_s = self_s("harness.load_raw_csv")
    duet = [s for s in of("executor.duet_invoke") if "worker_wall_ns" in s.attrs]
    steady = [s for s in duet if not s.attrs["spawn"]]
    solo = [s for s in of("executor.solo_invoke") if "workload_ns" in s.attrs]

    values = {
        "harness.run_experiment_s": _median(durs("harness.run_experiment")),
        "harness.emit_report_s": _median(durs("harness.emit_report")),
        "harness.raw_csv_bytes": _median([g.raw_csv_bytes for g in traced]),
        "harness.load_raw_csv_s": _median(durs("harness.load_raw_csv")),
        "harness.load_rows_per_s": sum(attr("harness.load_raw_csv", "rows")) / load_s if load_s else 0.0,
        "harness.csv_io_pct": 100.0 * (self_s("harness.emit_report") + load_s) / gate_total,
        "strategies.run_strategy_s": _median(durs("strategies.run_strategy")),
        "strategies.invocations": sum(attr("strategies.run_strategy", "invocations")) * per_gate,
        "strategies.sim_invocations_per_s": sum(spans[i].attrs["invocations"] for i in sim_runs) / sim_run_s if sim_run_s else 0.0,
        "strategies.pair_measurements_s": _median(durs("strategies.pair_measurements")),
        "strategies.pairs": sum(attr("strategies.pair_measurements", "pairs")) * per_gate,
        "analysis.bootstrap_ci_s": _median(durs("analysis.bootstrap_ci")),
        "analysis.bootstrap_calls": len(of("analysis.bootstrap_ci")) * per_gate,
        "analysis.resampled_values_per_s": resampled / boot_s if boot_s else 0.0,
        "analysis.bootstrap_ci_self_pct": 100.0 * boot_s / gate_total,
        "analysis.filter_cold_starts_s": _median(durs("analysis.filter_cold_starts")),
        "analysis.cold_pairs_removed": sum(attr("analysis.filter_cold_starts", "cold_pairs_removed")) * per_gate,
        "executor.spawn_s": _median([(s.dur_ns - s.attrs["worker_wall_ns"]) / 1e9 for s in duet if s.attrs["spawn"]]),
        "executor.duet_invoke_ms": _median([s.dur_ns / 1e6 for s in steady]),
        "executor.pair_overhead_ms": _median([(s.dur_ns - s.attrs["worker_wall_ns"]) / 1e6 for s in steady]),
        "executor.barrier_skew_us": _median([s.attrs["skew_ns"] / 1e3 for s in duet]),
        "executor.release_lag_us": _median([s.attrs["release_lag_ns"] / 1e3 for s in duet]),
        "executor.solo_overhead_ms": _median([(s.dur_ns - s.attrs["workload_ns"]) / 1e6 for s in solo]),
        "executor.errors": float(len(attr("executor.duet_invoke", "error")) + len(attr("executor.solo_invoke", "error"))),
        "workloads.worker_cpu_ms": _median([ns / 1e6 for s in duet for ns in s.attrs["worker_cpu_ns"]]),
        "workloads.checksum_mismatches": float(sum(g.checksum_mismatches for g in gates)),
        "trace.overhead_s": _median([g.seconds for g in traced]) - _median(untraced) if untraced else 0.0,
    }
    for layer in ("bench", "harness", "strategies", "analysis", "executor", "workloads"):
        values[f"{layer}.self_pct"] = 100.0 * layer_self.get(layer, 0.0) / gate_total
    return values
