"""Experiment orchestration: instance fan-out, reports, file output.

An experiment runs one workload comparison (baseline vs candidate) under one
or more strategies, fanning each strategy out over `instances` parallel
"instances" (fresh simulated instances, or in live mode one shared executor
whose measurements carry the instance id), merging the measurements,
filtering cold starts, pairing, and bootstrapping a confidence interval of
the median change. With two or more usable cores each strategy is analysed
on its own thread; on one core they are analysed in turn.

Everything that ends up in the summary is regenerable from the raw
measurement CSV plus the seed; analysis RNG streams are derived from the
seed and the strategy alone, never from run order.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import threading
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

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
from .executor import CorePlan, DuetExecutor, available_cores
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


# Strategies analysed side by side filter and pair one at a time, so only their bootstraps and sweeps overlap:
# two filtered copies of large sets never sit in memory at once.
_PAIRING = threading.Lock()


def analyze_measurement_set(mset: MeasurementSet, *, cfg: ExperimentConfig) -> StrategyResult:
    """Cold-filter, pair, bootstrap and gate one strategy's measurements."""
    strategy = mset.strategy
    with _PAIRING:
        samples = pair_measurements(filter_cold_starts(mset), scheme=cfg.pairing, rng=_stream(cfg.seed, 3, strategy))
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
        pairs_before_filter=len(mset) // 2,  # the filter refuses a set that is not whole pairs
        pairs_after_filter=len(samples),
        median_change_pct=float(np.median(samples)),
        ci=ci,
        verdict=verdict(ci, cfg.threshold_pct),
        samples=samples,
        sweep=sweep,
    )


def _analyze_all(sets: Sequence[MeasurementSet], cfg: ExperimentConfig) -> list[StrategyResult]:
    """`analyze_measurement_set` of each set, in order.

    On two or more usable cores this thread and its helpers give each set a thread, up to one per strategy:
    three bootstraps on two cores finish sooner on three threads than on two, where the third would run alone.
    On one usable core this thread analyses the sets in turn. Threads take sets in order. Every analysis stream
    is keyed by (seed, purpose, strategy), so results are the same bits on any number of threads. The first
    failure in set order is raised once every helper has stopped.
    """
    todo = deque(enumerate(sets))
    outcomes: list[Any] = [None] * len(sets)  # each set's result, or what its analysis raised

    def work() -> None:
        while True:
            try:
                i, mset = todo.popleft()
            except IndexError:
                return
            try:
                outcomes[i] = analyze_measurement_set(mset, cfg=cfg)
            except BaseException as exc:  # raised again on the calling thread
                outcomes[i] = exc
                todo.clear()  # sets are taken in order, so every earlier one has been taken already

    threads = min(len(sets), len(Strategy)) if available_cores() > 1 else 1
    helpers = [threading.Thread(target=work, daemon=True) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return outcomes


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run every configured strategy and assemble the report.

    A live gate opens one executor, and so forks its duet workers at most
    once, for all strategies and instances. It closes the executor before
    analysing, so no analysis thread runs beside the pinned workers.
    """
    started = datetime.now(timezone.utc).isoformat()
    specs = cfg.specs()
    live = cfg.backend is Backend.LIVE
    with DuetExecutor(CorePlan(cfg.core_a, cfg.core_b), pinning=cfg.pinning) if live else nullcontext() as executor:
        sets = [_run_one_strategy(cfg, strategy, specs, executor) for strategy in cfg.strategies]
    results = _analyze_all(sets, cfg)
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

    with open(out / "raw.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(RAW_CSV_COLUMNS)
        for r in report.results:
            fh.writelines(_raw_lines(r.measurements))
    written["raw_csv"] = out / "raw.csv"
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


def _raw_lines(m: MeasurementSet) -> Iterable[str]:
    """raw.csv's lines of one set, cells in RAW_CSV_COLUMNS order, as `csv.writer` writes them.

    Only a label can need quoting; the csv module quotes each label once, every other cell is written as is.
    """
    labels = [_csv_cell(label) for label in m.version_labels]
    return map(
        _RAW_LINE,
        itertools.repeat(m.strategy.value, len(m)),
        m.instance_id.tolist(),
        m.repetition.tolist(),
        _cells(labels, m.version),
        m.duration_ns.tolist(),
        _cells([c.value for c in CLOCKS], m.clock_mode),
        _cells(_COLD_CELLS, m.cold.astype(np.int8)),
        _cells(_ORDER_CELLS, m.order_position + 1),
    )


_RAW_LINE = "{},{},{},{},{},{},{},{}\r\n".format  # str.format writes an int as str() does, as csv.writer does


def _csv_cell(text: str) -> str:
    """`text` as `csv.writer` writes it in a row of several cells."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue().removesuffix(",\r\n")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> Path:
    """Write `header` and then `rows` to the CSV file `path`; returns `path`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def load_raw_csv(path: Path | str, labels: tuple[str, str]) -> dict[Strategy, MeasurementSet]:
    """Read a raw.csv back into one measurement set per strategy, with (baseline, candidate) `labels`.

    Strategies keep their order of first appearance, rows their order within a strategy.
    Integer cells read as `int()` reads them, within int64; `cold` is `true` or `false`, and
    `order_position` empty, 0 or 1. Any other cell raises ValueError, a label other than the two PairingError.
    """
    parts: dict[int, list[dict[str, np.ndarray]]] = {}  # strategy code: its columns of each chunk
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = {name: i for i, name in enumerate(next(reader, []))}  # a repeated name: its last column
        missing = set(RAW_CSV_COLUMNS) - set(header)
        if missing:
            raise BenchmarkError(f"raw csv is missing columns: {sorted(missing)}")
        # Rows become columns a chunk at a time, split by strategy at once, so few row lists are ever alive.
        for rows in iter(lambda: list(itertools.islice(reader, _CHUNK_ROWS)), []):
            for code, columns in _raw_columns(rows, header, labels):
                parts.setdefault(code, []).append(columns)
    if not parts:
        raise BenchmarkError(f"no measurements found in {path}")
    grouped = {}
    for code in list(parts):  # pieces are dropped as they are joined, so they never all sit beside the sets
        chunks, strategy = parts.pop(code), list(Strategy)[code]
        columns = {name: np.concatenate([c.pop(name) for c in chunks]) for name in list(chunks[0])}
        grouped[strategy] = MeasurementSet(strategy, labels, **columns)
    return grouped


# raw.csv rows read at a time. Loading 48 000 rows, chunks of 256 to 2 048 rows take about the same time, and
# the Python-level (tracemalloc) peak above the result grows with it: 0.28 MiB at 256 rows, 0.37 at 512, 2.28 at 4 096.
_CHUNK_ROWS = 512


def _raw_columns(rows: list[list[str]], header: dict[str, int],
                 labels: tuple[str, str]) -> Iterator[tuple[int, dict[str, np.ndarray]]]:
    """(strategy code, columns) of each strategy in `rows`, in order of first appearance."""
    rows = [row for row in rows if row]  # a blank line holds no measurement
    if not rows:
        return
    width = max(header[name] for name in RAW_CSV_COLUMNS) + 1
    if min(map(len, rows)) < width:
        raise ValueError(f"raw csv has a row of fewer than the {width} cells its header names")
    cells = list(zip(*rows))
    col = {name: cells[header[name]] for name in RAW_CSV_COLUMNS}
    ints = {name: _int_column(col[name], name) for name in ("duration_ns", "instance_id", "repetition")}
    columns = dict(
        **ints,
        version=version_codes(labels, col["version"], ints["instance_id"], ints["repetition"]),
        cold=codes(col["cold"], _COLD_CELLS, "raw csv cold"),
        order_position=codes(col["order_position"], _ORDER_CELLS, "raw csv order_position") - 1,
        clock_mode=codes(col["clock_mode"], [c.value for c in CLOCKS], "raw csv clock_mode"),
    )
    strategy = codes(col["strategy"], [s.value for s in Strategy], "raw csv strategy")
    for code in dict.fromkeys(strategy.tolist()):  # in order of first appearance
        rows_of = strategy == code
        yield code, columns if rows_of.all() else {name: c[rows_of] for name, c in columns.items()}


def _int_column(cells: Sequence[str], name: str) -> np.ndarray:
    try:
        return np.array(cells, dtype=np.int64)
    except OverflowError:  # cells before the first too large one all read as int64
        cell = next(c for c in cells if not -2**63 <= int(c) < 2**63)
        raise ValueError(f"raw csv {name} {cell!r} is out of the int64 range") from None


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
    results = _analyze_all([grouped[s] for s in sorted(grouped, key=_STRATEGY_CODE.get)], cfg)
    finished = datetime.now(timezone.utc).isoformat()
    config = {"reanalyzed_from": str(path), **cfg.to_dict(analysis=True)}
    return Report(results=results, config=config, seed=seed, started_at=started, finished_at=finished)
