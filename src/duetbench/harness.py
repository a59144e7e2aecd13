"""Experiment orchestration: instance fan-out, reports, file output.

An experiment runs one workload comparison (baseline vs candidate) under one
or more strategies, fanning each strategy out over `instances` parallel
"instances" (fresh simulated instances, or in live mode one shared executor
whose measurements carry the instance id), merging the measurements,
filtering cold starts, pairing, and bootstrapping a confidence interval of
the median change.

Everything that ends up in the summary is regenerable from the raw
measurement CSV plus the seed; analysis RNG streams are derived from the
seed and the strategy alone, never from run order.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .analysis import (
    ConfidenceInterval,
    Verdict,
    bootstrap_ci,
    filter_cold_starts,
    sweep_sample_size,
    verdict,
)
from .config import ALL_STRATEGIES, ExperimentConfig
from .errors import BenchmarkError
from .executor import CorePlan, DuetExecutor
from .measurement import CLOCKS, Backend, MeasurementSet, Strategy, codes, version_codes
from .strategies import LiveInstance, SimulatedInstance, pair_measurements, run_strategy

# Fixed per-strategy codes for analysis stream derivation; independent of the
# order strategies appear in a config, so re-analysis reproduces the same CI.
_STRATEGY_CODE = {Strategy.INDEPENDENT: 0, Strategy.RMIT: 1, Strategy.DUET: 2}

RAW_CSV_COLUMNS = ("strategy", "instance_id", "repetition", "version", "duration_ns", "clock_mode", "cold", "order_position")
SUMMARY_CSV_COLUMNS = ("strategy", "median_change_pct", "ci_lower_pct", "ci_upper_pct", "ci_level", "width_pp", "verdict",
                       "measurements", "pairs_before_filter", "pairs_after_filter")


def _stream(seed: int, purpose: int, strategy: Strategy) -> np.random.Generator:
    """The generator of one analysis `purpose` for `strategy`, keyed by (seed, purpose, strategy code) alone.

    Purposes: 0 the per-instance lottery, noise and order streams (`strategies._instance_streams`,
    keyed by instance id instead of strategy), 1 the bootstrap, 2 the sweep, 3 the random pairing.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(purpose, _STRATEGY_CODE[strategy])))


def analysis_rng(seed: int, strategy: Strategy) -> np.random.Generator:
    return _stream(seed, 1, strategy)


def sweep_rng(seed: int, strategy: Strategy) -> np.random.Generator:
    return _stream(seed, 2, strategy)


def instance_repetitions(total: int, instances: int) -> list[int]:
    """ceil(total/instances) per instance, truncated so the sum equals total."""
    per = math.ceil(total / instances)
    out: list[int] = []
    remaining = total
    for _ in range(instances):
        take = min(per, remaining)
        out.append(take)
        remaining -= take
    return out


@dataclass
class StrategyResult:
    strategy: Strategy
    measurements: MeasurementSet  # as measured, before cold filtering
    pairs_before_filter: int
    pairs_after_filter: int
    median_change_pct: float
    ci: ConfidenceInterval
    verdict: Verdict
    samples: np.ndarray  # paired changes in percent, (instance, repetition) order
    sweep: list[tuple[int, float]] | None = None


@dataclass
class Report:
    results: list[StrategyResult]
    config: dict[str, Any]
    seed: int
    started_at: str
    finished_at: str

    @property
    def overall_verdict(self) -> Verdict:
        verdicts = {r.verdict for r in self.results}
        if Verdict.REGRESSION in verdicts:
            return Verdict.REGRESSION
        if Verdict.INCONCLUSIVE in verdicts:
            return Verdict.INCONCLUSIVE
        return Verdict.PASS

    def strategy_table(self) -> list[tuple[str, float, float]]:
        """(strategy, ci_width_pp, median_change_pct) rows in run order."""
        return [(r.strategy.value, r.ci.width_pp, r.median_change_pct) for r in self.results]


def _run_one_strategy(cfg: ExperimentConfig, strategy: Strategy, specs, executor: DuetExecutor | None) -> MeasurementSet:
    """Run `strategy` on every instance: simulated ones, or live ones sharing `executor`."""
    parts = []
    for instance_id, reps in enumerate(instance_repetitions(cfg.repetitions, cfg.instances)):
        if reps == 0:
            continue
        if executor is None:
            backend = SimulatedInstance(cfg.model, cfg.seed, instance_id=instance_id)
        else:
            backend = LiveInstance(executor, instance_id=instance_id, seed=cfg.seed)
        parts.append(run_strategy(cfg, strategy, specs, backend, reps))
    merged = MeasurementSet.concat(parts)
    return merged[np.lexsort((merged.repetition, merged.instance_id))]  # stable: in-repetition order kept


def analyze_measurement_set(mset: MeasurementSet, *, cfg: ExperimentConfig) -> StrategyResult:
    """Cold-filter, pair, bootstrap and gate one strategy's measurements."""
    strategy = mset.strategy
    filtered = filter_cold_starts(mset)
    samples = pair_measurements(filtered, scheme=cfg.pairing, rng=_stream(cfg.seed, 3, strategy))
    # the filter drops whole pairs only, two rows each
    pairs_before = len(samples) + (len(mset) - len(filtered)) // 2
    ci = bootstrap_ci(samples, cfg.ci_level, cfg.resamples, analysis_rng(cfg.seed, strategy), min_samples=cfg.min_samples)
    sweep = None
    if cfg.run_sweep:
        # cold filtering may leave fewer pairs than the configured stop
        sweep = sweep_sample_size(
            samples, cfg.sweep_start, min(cfg.sweep_stop, len(samples)), cfg.sweep_step, cfg.ci_level, cfg.resamples,
            sweep_rng(cfg.seed, strategy), min_samples=cfg.min_samples,
        )
    return StrategyResult(
        strategy=strategy,
        measurements=mset,
        pairs_before_filter=pairs_before,
        pairs_after_filter=len(samples),
        median_change_pct=float(np.median(samples)),
        ci=ci,
        verdict=verdict(ci, cfg.threshold_pct),
        samples=samples,
        sweep=sweep,
    )


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run every configured strategy and assemble the report.

    A live gate opens one executor, and so forks its duet workers at most
    once, for all strategies and instances.
    """
    started = datetime.now(timezone.utc).isoformat()
    specs = cfg.specs()
    live = cfg.backend is Backend.LIVE
    with DuetExecutor(CorePlan(cfg.core_a, cfg.core_b), pinning=cfg.pinning) if live else nullcontext() as executor:
        results = []
        for strategy in cfg.strategies:
            mset = _run_one_strategy(cfg, strategy, specs, executor)
            results.append(analyze_measurement_set(mset, cfg=cfg))
    finished = datetime.now(timezone.utc).isoformat()
    return Report(results=results, config=cfg.to_dict(), seed=cfg.seed, started_at=started, finished_at=finished)


def compare_strategies(cfg: ExperimentConfig) -> Report:
    """Run all three strategies on identical workload seeds for comparison."""
    return run_experiment(replace(cfg, strategies=ALL_STRATEGIES))


def summary_dict(report: Report) -> dict[str, Any]:
    strategies = {}
    for r in report.results:
        strategies[r.strategy.value] = {
            "median_change_pct": r.median_change_pct,
            "ci": {
                "lower_pct": r.ci.lower_pct,
                "upper_pct": r.ci.upper_pct,
                "level": r.ci.level,
                "width_pp": r.ci.width_pp,
            },
            "verdict": r.verdict.value,
            "measurements": len(r.measurements),
            "pairs_before_filter": r.pairs_before_filter,
            "pairs_after_filter": r.pairs_after_filter,
            "cold_removed": r.pairs_before_filter - r.pairs_after_filter,
            "sweep_points": len(r.sweep) if r.sweep is not None else None,
        }
    return {
        "schema": "duetbench-summary/1",
        "config": report.config,
        "seed": report.seed,
        "run": {"started_at": report.started_at, "finished_at": report.finished_at},
        "strategies": strategies,
        "overall_verdict": report.overall_verdict.value,
    }


def emit_report(report: Report, out_dir: Path | str, formats: tuple[str, ...] = ("json", "csv")) -> dict[str, Path]:
    """Write raw measurements, summary file(s) and the sweep series.

    Always writes raw.csv; writes summary.json and/or summary.csv per
    `formats`; writes sweep.csv when any strategy carries a sweep series.
    Returns the paths written, keyed by artifact name.
    """
    if not report.results:
        raise BenchmarkError("cannot emit an empty report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    rows = itertools.chain.from_iterable(_raw_rows(r.measurements) for r in report.results)
    written["raw_csv"] = _write_csv(out / "raw.csv", RAW_CSV_COLUMNS, rows)
    summary = summary_dict(report)
    if "json" in formats:
        path = out / "summary.json"
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written["summary_json"] = path
    if "csv" in formats:
        rows = [(r.strategy.value, s["median_change_pct"], s["ci"]["lower_pct"], s["ci"]["upper_pct"], s["ci"]["level"],
                 s["ci"]["width_pp"], s["verdict"], s["measurements"], s["pairs_before_filter"], s["pairs_after_filter"])
                for r in report.results for s in [summary["strategies"][r.strategy.value]]]
        written["summary_csv"] = _write_csv(out / "summary.csv", SUMMARY_CSV_COLUMNS, rows)
    if any(r.sweep is not None for r in report.results):
        rows = [(r.strategy.value, n, width) for r in report.results for n, width in r.sweep or []]
        written["sweep_csv"] = _write_csv(out / "sweep.csv", ("strategy", "n", "width_pp"), rows)
    return written


def _raw_rows(m: MeasurementSet) -> Iterable[tuple]:
    """raw.csv's rows of one set, cells in RAW_CSV_COLUMNS order."""
    return zip(
        itertools.repeat(m.strategy.value, len(m)),
        m.instance_id.tolist(),
        m.repetition.tolist(),
        _cells(m.version_labels, m.version),
        m.duration_ns.tolist(),
        _cells([c.value for c in CLOCKS], m.clock_mode),
        _cells(_COLD_CELLS, m.cold.astype(np.int8)),
        _cells(_ORDER_CELLS, m.order_position + 1),
    )


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> Path:
    """Write `header` and then `rows` to the CSV file `path`; returns `path`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def load_raw_csv(path: Path | str, labels: tuple[str, str]) -> dict[Strategy, MeasurementSet]:
    """Read a raw.csv back into one measurement set per strategy, with (baseline, candidate) `labels`.

    Integer cells read as `int()` reads them; `cold` is `true` or `false`, and `order_position`
    empty, 0 or 1. Any other cell raises ValueError, a label other than the two PairingError.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = {name: i for i, name in enumerate(next(reader, []))}  # a repeated name: its last column
        missing = set(RAW_CSV_COLUMNS) - set(header)
        if missing:
            raise BenchmarkError(f"raw csv is missing columns: {sorted(missing)}")
        # Rows become columns a chunk at a time, so few row lists are ever alive.
        chunks = [_raw_columns(rows, header, labels) for rows in iter(lambda: list(itertools.islice(reader, 4096)), [])]
    if not sum(len(c["strategy"]) for c in chunks):
        raise BenchmarkError(f"no measurements found in {path}")
    columns = {name: np.concatenate([c[name] for c in chunks]) for name in chunks[0]}
    strategy = columns.pop("strategy")
    grouped = {}
    for code in dict.fromkeys(strategy.tolist()):  # in order of first appearance
        s, rows_of = list(Strategy)[code], strategy == code
        grouped[s] = MeasurementSet(s, labels, **{name: c[rows_of] for name, c in columns.items()})
    return grouped


def _raw_columns(rows: list[list[str]], header: dict[str, int], labels: tuple[str, str]) -> dict[str, np.ndarray]:
    rows = [row for row in rows if row]  # a blank line holds no measurement
    width = max(header[name] for name in RAW_CSV_COLUMNS) + 1
    if rows and min(map(len, rows)) < width:
        raise ValueError(f"raw csv has a row of fewer than the {width} cells its header names")
    col = {name: [row[header[name]] for row in rows] for name in RAW_CSV_COLUMNS}
    ints = {name: np.array(col[name], dtype=np.int64) for name in ("duration_ns", "instance_id", "repetition")}
    return dict(
        **ints,
        version=version_codes(labels, col["version"], ints["instance_id"], ints["repetition"]),
        cold=codes(col["cold"], _COLD_CELLS, "raw csv cold"),
        order_position=codes(col["order_position"], _ORDER_CELLS, "raw csv order_position") - 1,
        clock_mode=codes(col["clock_mode"], [c.value for c in CLOCKS], "raw csv clock_mode"),
        strategy=codes(col["strategy"], [s.value for s in Strategy], "raw csv strategy"),
    )


_COLD_CELLS = ("false", "true")
_ORDER_CELLS = ("", "0", "1")  # no position, first, second


def _cells(values: Sequence[Any], index: np.ndarray) -> list[Any]:
    """The cell of each row: `values[index]`."""
    return np.array(values, dtype=object)[index].tolist()


def reanalyze_raw(path: Path | str, *, seed: int, **settings: Any) -> Report:
    """Recompute every strategy's CI and verdict from archived measurements.

    `settings` are ExperimentConfig fields; the rest keep `run`'s defaults.
    """
    cfg = ExperimentConfig(seed=seed, **settings)
    started = datetime.now(timezone.utc).isoformat()
    grouped = load_raw_csv(path, (cfg.baseline_label, cfg.candidate_label))
    results = [analyze_measurement_set(grouped[s], cfg=cfg) for s in sorted(grouped, key=_STRATEGY_CODE.get)]
    finished = datetime.now(timezone.utc).isoformat()
    config = {"reanalyzed_from": str(path), **cfg.to_dict(analysis=True)}
    return Report(results=results, config=config, seed=seed, started_at=started, finished_at=finished)
