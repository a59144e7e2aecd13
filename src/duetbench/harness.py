"""Experiment orchestration: instance fan-out, reports, file output.

An experiment runs one workload comparison (baseline vs candidate) under one
or more strategies. Each strategy runs on `instances` "instances" one after
another (fresh simulated instances, or in live mode one shared executor;
the strategy runner tags each row with its instance id), then its
measurements are merged, cold starts filtered, pairs formed and the exact
bootstrap confidence interval of the median change computed, one strategy
after another.

Everything that ends up in the summary is regenerable from the raw
measurement CSV plus the seed: the one analysis RNG stream, the random
pairing's, is derived from the seed and the strategy alone, never from run
order.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Sequence

import numpy as np

from .analysis import (
    ConfidenceInterval,
    Verdict,
    bootstrap_ci,
    filter_cold_starts,
    sweep_sample_size,
    verdict,
)
from .config import ExperimentConfig
from .errors import BenchmarkError, PairingError
from .executor import CorePlan, DuetExecutor
from .measurement import CLOCKS, COLUMNS, Backend, MeasurementSet, Strategy
from .strategies import LiveInstance, SimulatedInstance, pair_measurements, run_strategy

# Fixed per-strategy codes for analysis stream derivation; independent of the
# order strategies appear in a config, so re-analysis pairs the same way.
_STRATEGY_CODE = {Strategy.INDEPENDENT: 0, Strategy.RMIT: 1, Strategy.DUET: 2}

RAW_CSV_COLUMNS = ("strategy", "instance_id", "repetition", "version", "duration_ns", "clock_mode", "cold", "order_position")
SUMMARY_CSV_COLUMNS = ("strategy", "median_change_pct", "ci_lower_pct", "ci_upper_pct", "ci_level", "width_pp", "verdict",
                       "measurements", "pairs_before_filter", "pairs_after_filter")


def _pairing_rng(seed: int, strategy: Strategy) -> np.random.Generator:
    """The random pairing's generator for `strategy`, keyed by (seed, purpose 3, strategy code) alone.

    Purpose 0 keys the per-instance lottery, noise and order streams (`strategies._instance_streams`, by
    instance id instead of strategy). Purposes 1 and 2 keyed the Monte Carlo bootstrap and sweep, which the
    exact CI replaced; they are retired, not reused, so `raw.csv` pairs as it always did.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3, _STRATEGY_CODE[strategy])))


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
        """Duet's verdict when duet ran, the others being comparisons; else any regression, then any inconclusive.

        Independent in particular is fooled by the platform drift that duet cancels.
        """
        verdicts = {r.verdict for r in self.results if r.strategy is Strategy.DUET} or {r.verdict for r in self.results}
        if Verdict.REGRESSION in verdicts:
            return Verdict.REGRESSION
        if Verdict.INCONCLUSIVE in verdicts:
            return Verdict.INCONCLUSIVE
        return Verdict.PASS


def _run_one_strategy(cfg: ExperimentConfig, strategy: Strategy, specs, executor: DuetExecutor | None) -> MeasurementSet:
    """Run `strategy` on every instance: simulated ones, or live ones sharing `executor`."""
    parts = []
    for instance_id, reps in enumerate(instance_repetitions(cfg.repetitions, cfg.instances)):
        if reps == 0:
            continue
        if executor is None:
            backend = SimulatedInstance(cfg.model, cfg.seed, instance_id=instance_id)
        else:
            backend = LiveInstance(executor, cfg.seed, instance_id=instance_id)
        parts.append(run_strategy(cfg, strategy, specs, backend, reps))
    columns = {name: np.concatenate([getattr(part, name) for part in parts]) for name in COLUMNS}
    order = np.lexsort((columns["repetition"], columns["instance_id"]))  # stable: in-repetition order kept
    return MeasurementSet(strategy, parts[0].version_labels, **{name: column[order] for name, column in columns.items()})


def analyze_measurement_set(mset: MeasurementSet, *, cfg: ExperimentConfig) -> StrategyResult:
    """Cold-filter, pair, bootstrap and gate one strategy's measurements."""
    strategy = mset.strategy
    samples = pair_measurements(filter_cold_starts(mset), scheme=cfg.pairing, rng=_pairing_rng(cfg.seed, strategy))
    ci = bootstrap_ci(samples, cfg.ci_level, cfg.resamples, min_samples=cfg.min_samples)
    sweep = None
    if cfg.run_sweep:
        # cold filtering may leave fewer pairs than the configured stop
        sweep = sweep_sample_size(
            samples, cfg.sweep_start, min(cfg.sweep_stop, len(samples)), cfg.sweep_step, cfg.ci_level, cfg.resamples,
            min_samples=cfg.min_samples,
        )
    return StrategyResult(
        strategy=strategy,
        measurements=mset,
        pairs_before_filter=len(mset) // 2,  # the filter refuses a set that is not whole pairs
        pairs_after_filter=len(samples),
        # np.median's mean of the middle one or two values, without its NaN check, which imports numpy.ma
        median_change_pct=float(np.sort(samples)[(len(samples) - 1) // 2 : len(samples) // 2 + 1].mean()),
        ci=ci,
        verdict=verdict(ci, cfg.threshold_pct),
        samples=samples,
        sweep=sweep,
    )


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run every configured strategy and assemble the report.

    A live gate opens one executor, and so forks its duet workers at most
    once, for all strategies and instances. It closes the executor before
    analysing, so no analysis runs beside the pinned workers.
    """
    started = datetime.now(timezone.utc).isoformat()
    specs = cfg.specs()
    live = cfg.backend is Backend.LIVE
    with DuetExecutor(CorePlan(cfg.core_a, cfg.core_b), pinning=cfg.pinning) if live else nullcontext() as executor:
        sets = [_run_one_strategy(cfg, strategy, specs, executor) for strategy in cfg.strategies]
    results = [analyze_measurement_set(mset, cfg=cfg) for mset in sets]
    finished = datetime.now(timezone.utc).isoformat()
    return Report(results=results, config=cfg.to_dict(), seed=cfg.seed, started_at=started, finished_at=finished)


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

    with open(out / "raw.csv", "wb") as fh:
        fh.write((",".join(RAW_CSV_COLUMNS) + "\r\n").encode())
        for r in report.results:
            _write_raw(fh, r.measurements)
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


def _write_raw(fh: IO[bytes], m: MeasurementSet) -> None:
    """Append raw.csv's lines of `m` to `fh` as `csv.writer` writes them: CRLF line ends, only labels quoted.

    A chunk of rows becomes one byte matrix with a column per row and a row per byte position: the byte rows of each
    cell in turn, every cell but the first led by its comma. A mask of the same shape keeps each cell's own bytes.
    """
    head = _byte_table([m.strategy.value])
    labels = _byte_table([f",{_csv_cell(label)}" for label in m.version_labels])
    for start in range(0, len(m), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        tail = (m.clock_mode[rows] * 2 + m.cold[rows]) * 3 + m.order_position[rows] + 1
        parts = [_pick(head, np.zeros(len(tail), np.intp)), _digits(m.instance_id[rows]), _digits(m.repetition[rows]),
                 _pick(labels, m.version[rows]), _digits(m.duration_ns[rows]), _pick(_TAIL_CELLS, tail)]
        matrix, keep = map(np.concatenate, zip(*parts))
        fh.write(matrix.T[keep.T])


def _digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 `values` as `_write_raw` cells: a comma, a sign and right-aligned decimal digits, one row each."""
    magnitude = values.view(np.uint64)
    magnitude = np.where(values < 0, -magnitude, magnitude)  # wraps, so -2**63 gives 2**63
    width = len(str(int(magnitude.max())))
    out = np.empty((width + 2, len(values)), np.uint8)
    out[0], out[1] = ord(","), ord("-")
    for row in range(width + 1, 1, -1):
        rest = magnitude // 10
        out[row] = magnitude - rest * 10
        magnitude = rest
    keep = np.ones(out.shape, bool)
    keep[1] = values < 0
    np.logical_or.accumulate(out[2:] != 0, axis=0, out=keep[2:])  # no leading zero
    keep[-1] = True  # the one digit of 0
    out[2:] += ord("0")
    return out, keep


def _byte_table(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """`cells` in UTF-8, one NUL-padded row each, and the mask of each row's own bytes."""
    encoded = [cell.encode() for cell in cells]
    width = max(map(len, encoded))
    table = np.array(encoded, f"S{width}").view(np.uint8).reshape(len(encoded), width)
    return table, np.arange(width) < np.array([len(b) for b in encoded])[:, None]


def _pick(table: tuple[np.ndarray, np.ndarray], index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a byte table and of its mask at `index`, as `_write_raw` lays a cell out: a row per byte."""
    return table[0].take(index, axis=0).T, table[1].take(index, axis=0).T


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

    Strategies keep their order of first appearance, rows their order within a strategy; blank lines are
    skipped. An integer cell is an optional sign and ASCII digits, with optional surrounding spaces, within
    int64; `cold` is `true` or `false`, and `order_position` empty, 0 or 1. Any other cell, and a NUL character
    anywhere in the rows, raises ValueError, a label other than the two PairingError.
    """
    parts: dict[int, list[dict[str, np.ndarray]]] = {}  # strategy code: its columns of each chunk
    with open(path, newline="", encoding="utf-8") as fh:
        header = {name: i for i, name in enumerate(next(csv.reader(fh), []))}  # a repeated name: its last column
        missing = set(RAW_CSV_COLUMNS) - set(header)
        if missing:
            raise BenchmarkError(f"raw csv is missing columns: {sorted(missing)}")
        cells = {**_TEXT_CELLS, "version": labels}
        # A text cell is cut one character past the longest value it may hold, so a longer one matches none.
        dtype = np.dtype([(name, np.int64 if name in _INT_COLUMNS else f"U{max(map(len, cells[name])) + 1}")
                          for name in RAW_CSV_COLUMNS])
        usecols = [header[name] for name in RAW_CSV_COLUMNS]
        # The rows after the header become columns a chunk at a time, split by strategy at once, so few rows
        # are ever alive.
        while lines := _next_lines(fh):
            for code, columns in _raw_columns(_read_chunk(lines, dtype, usecols), labels):
                parts.setdefault(code, []).append(columns)
    if not parts:
        raise BenchmarkError(f"no measurements found in {path}")
    grouped = {}
    for code in list(parts):  # pieces are dropped as they are joined, so they never all sit beside the sets
        chunks, strategy = parts.pop(code), list(Strategy)[code]
        columns = {name: np.concatenate([c.pop(name) for c in chunks]) for name in list(chunks[0])}
        grouped[strategy] = MeasurementSet(strategy, labels, **columns)
    return grouped


# raw.csv rows read or written at a time. Loading 48 000 rows on one core (best of 40 interleaved loads), 256-row
# chunks take 33 ms, 512 27 ms, 1 024 24 ms and 2 048 to 4 096 23 ms, as each loadtxt call has a fixed cost; the
# Python-level (tracemalloc) peak above the result grows with the chunk: 0.13 MiB at 256 rows, 0.16 at 512, 0.23 at
# 1 024, 0.27 at 2 048 and 0.81 at 4 096. (Measured with loadtxt reading the file; fed the lines of 1 024 rows and
# checked for NUL, a load takes as long and peaks at 0.10 MiB.) Writing those rows (`emit_report`, three 16 000-row
# sets, best of 40 interleaved writes) takes 34 ms at 256 rows, 25 at 512, 20 at 1 024, 18 at 2 048 and 4 096, and
# peaks at 0.13, 0.17, 0.33, 0.65 and 1.29 MiB.
_CHUNK_ROWS = 1024
_INT_COLUMNS = ("duration_ns", "instance_id", "repetition")


def _next_lines(fh: IO[str]) -> list[str]:
    """The next `_CHUNK_ROWS` lines of `fh`, on to the end of a quoted cell they open; ValueError on a NUL."""
    lines = list(itertools.islice(fh, _CHUNK_ROWS))
    text = "".join(lines)
    quotes = text.count('"')
    while quotes % 2 and (line := fh.readline()):  # a quoted label may hold a line break
        lines.append(line)
        text += line
        quotes += line.count('"')
    if "\x00" in text:  # no raw.csv holds one (labels may not), and numpy drops one where it cuts a cell
        raise ValueError("raw csv holds a NUL character")
    return lines


def _read_chunk(lines: list[str], dtype: np.dtype, usecols: list[int]) -> np.ndarray:
    """The rows of `lines`, one `dtype` record each; ValueError names a bad cell."""
    try:
        # loadtxt warns of a blank line and of lines that hold no row, both expected here. catch_warnings
        # swaps the warning filters of the whole process, which is safe because a load runs on one thread
        # and duetbench starts no other.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"', comments=None, usecols=usecols,
                              ndmin=1)
    except ValueError as exc:
        message = str(exc)
    if bad := re.fullmatch(r"could not convert string (.*) to int64 at row \d+, column (\d+)\.", message, re.S):
        name = RAW_CSV_COLUMNS[usecols.index(int(bad[2]) - 1)]  # numpy counts the file's columns from 1
        raise ValueError(f"raw csv {name} {bad[1]} is not an integer within int64")
    if re.fullmatch(r"invalid column index \d+ at row \d+ with \d+ columns", message):
        raise ValueError(f"raw csv has a row of fewer than the {max(usecols) + 1} cells its header names")
    raise ValueError(f"raw csv: {message}")


def _raw_columns(chunk: np.ndarray, labels: tuple[str, str]) -> Iterator[tuple[int, dict[str, np.ndarray]]]:
    """(strategy code, columns) of each strategy in `chunk`, in order of first appearance."""
    ints = {name: chunk[name].copy() for name in _INT_COLUMNS}  # a view would keep the whole chunk alive
    columns = dict(
        **ints,
        version=_version_codes(labels, chunk["version"], ints["instance_id"], ints["repetition"]),
        cold=_codes(chunk["cold"], _COLD_CELLS, "raw csv cold"),
        order_position=_codes(chunk["order_position"], _ORDER_CELLS, "raw csv order_position") - 1,
        clock_mode=_codes(chunk["clock_mode"], _CLOCK_CELLS, "raw csv clock_mode"),
    )
    strategy = _codes(chunk["strategy"], _TEXT_CELLS["strategy"], "raw csv strategy")
    first = np.unique(strategy, return_index=True)[1]
    for code in strategy[np.sort(first)].tolist():  # in order of first appearance
        rows_of = strategy == code
        yield code, columns if rows_of.all() else {name: c[rows_of] for name, c in columns.items()}


def _codes(cells: np.ndarray, values: Sequence[str], what: str) -> np.ndarray:
    """The index of each cell in `values`; ValueError names the first cell that is none of them."""
    out = np.full(len(cells), -1, np.int8)
    for i, value in enumerate(values):
        out[cells == value] = i
    if (unknown := np.flatnonzero(out < 0)).size:
        raise ValueError(f"{what} {str(cells[unknown[0]])!r} is none of {list(values)}")
    return out


def _version_codes(labels: tuple[str, str], names: np.ndarray, instance_id: np.ndarray,
                   repetition: np.ndarray) -> np.ndarray:
    """Each name's index in `labels`; PairingError names the rows of any other label."""
    try:
        return _codes(names, labels, "version label")
    except ValueError as exc:
        where = [(int(i), int(r)) for i, r, n in zip(instance_id, repetition, names) if n not in labels]
        raise PairingError(f"{exc} at (instance, repetition) {where[:5]}") from None


_COLD_CELLS = ("false", "true")
_ORDER_CELLS = ("", "0", "1")  # no position, first, second
_CLOCK_CELLS = tuple(c.value for c in CLOCKS)
_TEXT_CELLS = {"strategy": tuple(s.value for s in Strategy), "clock_mode": _CLOCK_CELLS, "cold": _COLD_CELLS,
               "order_position": _ORDER_CELLS}  # the cells each text column but `version` may hold
# `,clock_mode,cold,order_position` and the line end, at (clock_mode * 2 + cold) * 3 + order_position + 1
_TAIL_CELLS = _byte_table([f",{clock},{cold},{order}\r\n" for clock in _CLOCK_CELLS for cold in _COLD_CELLS
                           for order in _ORDER_CELLS])


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
