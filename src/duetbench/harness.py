"""Experiment orchestration: reports, file output.

An experiment runs one workload comparison (baseline vs candidate) under one
or more strategies. Each strategy's one set of measurements, from all its
instances (`strategies.run_strategy`), has its cold starts filtered, its
pairs formed and the exact bootstrap confidence interval of its median
change computed, one strategy after another.

Everything that ends up in the summary is regenerable from the raw
measurement CSV plus the `config` block of the summary.json beside it, which
holds the gate's whole config (`ExperimentConfig.to_dict`). A re-analysis
(`reanalyze_raw`) reads that block back whole, the sweep settings included,
and writes it again with only `reanalyzed_from` added. The one analysis RNG
stream, the random pairing's (`strategies.pair_measurements`), is derived
from the seed and the strategy alone, never from run order.
"""

from __future__ import annotations

import csv
import io
import json
import re
import warnings
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Sequence

import numpy as np

from .analysis import ConfidenceInterval, Verdict, bootstrap_ci, filter_cold_starts, verdict
from .config import CorePlan, ExperimentConfig, archived_settings
from .errors import BenchmarkError, ConfigError, PairingError, SweepRangeError
from .measurement import CLOCKS, STRATEGIES, Backend, MeasurementSet, Pairing, Strategy
from .strategies import open_instances, pair_measurements, run_strategy

# raw.csv's columns in order, its header, writer and reader: None for an int64 column, else the cells that a text
# column's codes index. `version`'s cells are each set's labels. order_position's -1 (none) indexes its last cell, as
# in a Python sequence, and the reader maps that cell back to -1.
_RAW_CSV: dict[str, tuple[str, ...] | None] = {
    "strategy": tuple(s.value for s in STRATEGIES), "instance_id": None, "repetition": None, "version": (),
    "duration_ns": None, "clock_mode": tuple(c.value for c in CLOCKS), "cold": ("false", "true"),
    "order_position": ("0", "1", "")}
RAW_CSV_COLUMNS = tuple(_RAW_CSV)
SUMMARY_JSON = "summary.json"  # beside raw.csv; its `config` block holds the gate's config, which a re-analysis reads back
SUMMARY_CSV_COLUMNS = ("strategy", "median_change_pct", "ci_lower_pct", "ci_upper_pct", "ci_level", "width_pp", "verdict",
                       "measurements", "pairs_before_filter", "pairs_after_filter")


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
    cfg: ExperimentConfig
    started_at: str
    finished_at: str
    reanalyzed_from: Path | None  # the raw.csv a re-analysis read

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


def analyze_measurement_set(mset: MeasurementSet, *, cfg: ExperimentConfig) -> StrategyResult:
    """Cold-filter, pair, bootstrap, sweep and gate one strategy's measurements."""
    samples = pair_measurements(filter_cold_starts(mset), cfg.seed if cfg.pairing is Pairing.RANDOM else None)
    ci = bootstrap_ci(samples, cfg.ci_level, cfg.resamples, min_samples=cfg.min_samples)
    sweep = None
    if cfg.run_sweep:  # cold filtering may leave fewer pairs than the configured start or stop
        if cfg.sweep_start > len(samples):
            raise SweepRangeError(f"{mset.strategy.value}: sweep start {cfg.sweep_start} exceeds the {len(samples)} "
                                  "pairs left after cold filtering")
        sweep = [(n, bootstrap_ci(samples[:n], cfg.ci_level, cfg.resamples, min_samples=cfg.min_samples).width_pp)
                 for n in range(cfg.sweep_start, min(cfg.sweep_stop, len(samples)) + 1, cfg.sweep_step)]
    return StrategyResult(
        strategy=mset.strategy,
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

    The gate opens its instances once for all strategies. A live gate opens
    one executor, and so forks its duet workers at most once, for all
    strategies and instances. It closes the executor before analysing, so no
    analysis runs beside the pinned workers.
    """
    started = datetime.now(timezone.utc).isoformat()
    live = cfg.backend is Backend.LIVE
    if live:
        from .executor import DuetExecutor  # a simulated gate never loads the executor, nor multiprocessing
    with DuetExecutor(CorePlan(cfg.core_a, cfg.core_b), pinning=cfg.pinning) if live else nullcontext() as executor:
        instances = open_instances(cfg, executor)
        sets = [run_strategy(cfg, strategy, instances) for strategy in cfg.strategies]
    return _report(cfg, sets, started, None)


def _report(cfg: ExperimentConfig, sets: Iterable[MeasurementSet], started: str, raw: Path | None) -> Report:
    """Analyse each set under `cfg` and stamp the report finished; `raw` is the raw.csv a re-analysis read."""
    results = [analyze_measurement_set(mset, cfg=cfg) for mset in sets]
    return Report(results, cfg, started, datetime.now(timezone.utc).isoformat(), reanalyzed_from=raw)


def summary_dict(report: Report) -> dict[str, Any]:
    config = report.cfg.to_dict()
    if report.reanalyzed_from is not None:
        config["reanalyzed_from"] = str(report.reanalyzed_from)
    strategies = {}
    for r in report.results:
        strategies[r.strategy.value] = {
            "median_change_pct": r.median_change_pct,
            "ci": asdict(r.ci),
            "verdict": r.verdict.value,
            "measurements": len(r.measurements),
            "pairs_before_filter": r.pairs_before_filter,
            "pairs_after_filter": r.pairs_after_filter,
            "cold_removed": r.pairs_before_filter - r.pairs_after_filter,
            "sweep_points": len(r.sweep) if r.sweep is not None else None,
        }
    return {
        "schema": "duetbench-summary/1",
        "config": config,
        "seed": report.cfg.seed,
        "run": {"started_at": report.started_at, "finished_at": report.finished_at},
        "strategies": strategies,
        "overall_verdict": report.overall_verdict.value,
    }


def emit_report(report: Report, out_dir: Path | str, formats: tuple[str, ...]) -> dict[str, Path]:
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

    with _new_file(out / "raw.csv", "wb") as fh:
        fh.write((",".join(RAW_CSV_COLUMNS) + "\r\n").encode())
        for r in report.results:
            _write_raw(fh, r.measurements)
    written["raw_csv"] = out / "raw.csv"
    summary = summary_dict(report)
    if "json" in formats:
        path = out / SUMMARY_JSON
        with _new_file(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
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


def _new_file(path: Path, mode: str, **kw: Any) -> IO[Any]:
    """`path` opened with `mode` as a new file: whatever is at `path` is unlinked first, never truncated.

    A file truncated and written again is flushed to disk when it closes (ext4's `auto_da_alloc`), and the next
    truncation waits on that write and, on a `discard` mount, discards its blocks; a new file costs neither. So a
    symlink at `path` is replaced, not followed, and a hard link elsewhere keeps the old bytes.
    """
    path.unlink(missing_ok=True)
    return open(path, mode, **kw)


def _write_raw(fh: IO[bytes], m: MeasurementSet) -> None:
    """Append raw.csv's lines of `m` to `fh` as `csv.writer` writes them: CRLF line ends, only labels quoted.

    A chunk of rows becomes one byte matrix with a column per row and a row per byte position: the byte rows of each
    column of `_RAW_CSV` in turn, each cell led by its comma, and then the line end. The set's one strategy is one
    cell for all its rows; an int64 column's cells are its digits (`_digits`), and a text column's are one take from
    its cells' byte table by the rows' codes, `version`'s cells being the set's labels. The first byte row, the first
    cell's comma, is dropped. A cell shorter than its rows is padded with 0xFF, a byte UTF-8 never holds, and the pad
    is deleted from the matrix's bytes.
    """
    head = _byte_table([m.strategy.value])  # of the strategy's own width: a broadcast, not a take, and no pad
    tables = {name: None if cells is None else _byte_table(cells)
              for name, cells in {**_RAW_CSV, "version": m.version_labels}.items() if name != "strategy"}
    for start in range(0, len(m), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        blocks = [_digits(getattr(m, name)[rows]) if table is None else table.take(getattr(m, name)[rows], axis=1)
                  for name, table in tables.items()]
        n = blocks[0].shape[1]
        parts = [np.broadcast_to(head, (len(head), n)), *blocks, np.broadcast_to(_LINE_END, (len(_LINE_END), n))]
        fh.write(np.concatenate(parts)[1:].T.tobytes().translate(None, b"\xff"))


def _digits(values: np.ndarray) -> np.ndarray:
    """int64 `values`, none negative, as `_write_raw` cells: a comma and right-aligned decimal digits, one row each."""
    magnitude = values.view(np.uint64)  # the same values (a set refuses a negative one), compared exactly below
    count = _POWERS_OF_TEN.searchsorted(magnitude, "right") + 1  # each value's digits
    width = int(count.max())
    out = np.empty((width + 1, len(values)), np.uint8)
    out[0] = ord(",")
    for row in range(width, 0, -1):
        rest = magnitude // 10
        out[row] = magnitude - rest * 10
        magnitude = rest
    out[1:] += ord("0")
    out[1:][np.arange(width, 0, -1)[:, None] > count] = 0xFF  # no leading zero
    return out


_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)  # 10 .. 10**19, above every int64 magnitude


def _byte_table(cells: Sequence[str]) -> np.ndarray:
    """`cells` as `csv.writer` writes them within a row, each led by its comma, in UTF-8: one column each, padded
    with 0xFF."""
    encoded = []
    for cell in cells:
        buf = io.StringIO(newline="")
        csv.writer(buf).writerow(["", cell, ""])
        encoded.append(buf.getvalue().removesuffix(",\r\n").encode())
    width = max(map(len, encoded))
    return np.frombuffer(b"".join(cell.ljust(width, b"\xff") for cell in encoded), np.uint8).reshape(-1, width).T


_LINE_END = np.frombuffer(b"\r\n", np.uint8)[:, None]


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> Path:
    """Write `header` and then `rows` to the CSV file `path`; returns `path`."""
    with _new_file(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def load_raw_csv(path: Path | str, labels: tuple[str, str]) -> dict[Strategy, MeasurementSet]:
    """Read a raw.csv back into one measurement set per strategy, with (baseline, candidate) `labels`.

    The columns, their types and each text column's cells come from `_RAW_CSV`, with `labels` as `version`'s
    cells. Strategies keep their order of first appearance, rows their order within a strategy; blank lines are
    skipped. An integer cell is an optional sign and ASCII digits, with optional surrounding spaces, within
    int64 and its column's range (`MeasurementSet`'s checks: none is negative), and a text cell one of its column's
    cells. Any other cell, and a NUL character anywhere in the file, raises ValueError naming its column, a label
    other than the two PairingError.
    """
    with open(path, "rb") as raw:  # no raw.csv holds a NUL (labels may not), and numpy drops one where it cuts a cell
        while block := raw.read(1 << 16):
            if b"\x00" in block:
                raise ValueError("raw csv holds a NUL character")
    parts: dict[int, list[dict[str, np.ndarray]]] = {}  # strategy code: its columns of each chunk
    with open(path, newline="", encoding="utf-8") as fh:
        header = {name: i for i, name in enumerate(next(csv.reader(fh), []))}  # a repeated name: its last column
        missing = set(RAW_CSV_COLUMNS) - set(header)
        if missing:
            raise BenchmarkError(f"raw csv is missing columns: {sorted(missing)}")
        layout = {**_RAW_CSV, "version": labels}
        # A text cell is cut one character past the longest value it may hold, so a longer one matches none.
        dtype = np.dtype([(name, np.int64 if cells is None else f"U{max(map(len, cells)) + 1}")
                          for name, cells in layout.items()])
        usecols = [header[name] for name in RAW_CSV_COLUMNS]
        # The rows after the header become columns a chunk at a time, split by strategy at once, so few rows
        # are ever alive.
        while (chunk := _read_chunk(fh, dtype, usecols)).size:
            for code, columns in _raw_columns(chunk, layout):
                parts.setdefault(code, []).append(columns)
    if not parts:
        raise BenchmarkError(f"no measurements found in {path}")
    grouped = {}
    for code in list(parts):  # pieces are dropped as they are joined, so they never all sit beside the sets
        chunks, strategy = parts.pop(code), STRATEGIES[code]
        columns = {name: np.concatenate([c.pop(name) for c in chunks]) for name in list(chunks[0])}
        grouped[strategy] = MeasurementSet(strategy, labels, **columns)
    return grouped


# raw.csv rows read or written at a time. Loading 48 000 rows (best of 40 interleaved loads, one core of a 2-vCPU
# host) takes 29 ms in 256-row chunks, 25 in 512, 22.5 in 1 024, 20.6 in 2 048 and 20.9 in 4 096, as each loadtxt call
# has a fixed cost; the Python-level (tracemalloc) peak above the result is 0.08, 0.05, 0.03, 0.27 and 0.81 MiB. Fed
# the lines of each chunk, checked for NUL and for an open quote, instead of the file, loadtxt took 24.5 ms at 1 024
# rows and 22.5 at 2 048. Writing those rows (`_write_raw` of three 16 000-row sets into memory, best of 40, no file
# I/O) takes 21, 14, 10.5, 9.2 and 8.1 ms; `emit_report` of them peaks at 0.14, 0.14, 0.22, 0.31 and 0.59 MiB.
_CHUNK_ROWS = 2048


def _read_chunk(fh: IO[str], dtype: np.dtype, usecols: list[int]) -> np.ndarray:
    """The next `_CHUNK_ROWS` rows of `fh` (none at its end), one `dtype` record each; ValueError names a bad cell.

    numpy reads a quoted line break within its cell, and leaves `fh` at the line after the last row it read."""
    try:
        # loadtxt warns of a blank line and of a read that finds no row, both expected here. catch_warnings
        # swaps the warning filters of the whole process, which is safe because a load runs on one thread
        # and duetbench starts no other.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"', comments=None, usecols=usecols,
                              ndmin=1, max_rows=_CHUNK_ROWS)
    except ValueError as exc:
        message = str(exc)
    if bad := re.fullmatch(r"could not convert string (.*) to int64 at row \d+, column (\d+)\.", message, re.S):
        name = RAW_CSV_COLUMNS[usecols.index(int(bad[2]) - 1)]  # numpy counts the file's columns from 1
        raise ValueError(f"raw csv {name} {bad[1]} is not an integer within int64")
    if re.fullmatch(r"invalid column index \d+ at row \d+ with \d+ columns", message):
        raise ValueError(f"raw csv has a row of fewer than the {max(usecols) + 1} cells its header names")
    raise ValueError(f"raw csv: {message}")


def _raw_columns(chunk: np.ndarray,
                 layout: dict[str, Sequence[str] | None]) -> Iterator[tuple[int, dict[str, np.ndarray]]]:
    """(strategy code, columns) of each strategy in `chunk`, in order of first appearance.

    `layout` is `_RAW_CSV` with the labels as `version`'s cells. An int64 column is copied, as a view would keep the
    whole chunk alive, and a text column becomes its codes (`_codes`)."""
    columns = {name: chunk[name].copy() if cells is None else _codes(chunk, name, cells)
               for name, cells in layout.items()}
    strategy = columns.pop("strategy")
    order = columns["order_position"]
    order[order == len(layout["order_position"]) - 1] = -1  # the last cell: no position
    first = np.unique(strategy, return_index=True)[1]
    for code in strategy[np.sort(first)].tolist():  # in order of first appearance
        rows_of = strategy == code
        yield code, columns if rows_of.all() else {name: c[rows_of] for name, c in columns.items()}


def _codes(chunk: np.ndarray, name: str, values: Sequence[str]) -> np.ndarray:
    """The index in `values` of each `name` cell of `chunk`. A cell that is none of them raises ValueError naming it,
    or for `version` PairingError naming the (instance, repetition) keys of its rows."""
    cells = chunk[name]
    out = np.full(len(cells), -1, np.int8)
    for i, value in enumerate(values):
        out[cells == value] = i
    if (unknown := np.flatnonzero(out < 0)).size:
        message = f"raw csv {name} {str(cells[unknown[0]])!r} is none of {list(values)}"
        if name == "version":
            keys = list(zip(chunk["instance_id"][unknown[:5]].tolist(), chunk["repetition"][unknown[:5]].tolist()))
            raise PairingError(f"{message} at (instance, repetition) {keys}")
        raise ValueError(message)
    return out


def reanalyze_raw(path: Path | str, **settings: Any) -> Report:
    """Recompute every strategy's CI and verdict, and any sweep, from archived measurements.

    The settings come from the `config` block of the summary.json beside `path`, when there is one: all of
    them, or ConfigError. `settings` are ExperimentConfig fields: one the archive holds must equal its archived
    value (else ConfigError), and the others set the rest. `run`'s defaults apply only to what neither sets.
    """
    summary = Path(path).with_name(SUMMARY_JSON)
    try:
        archived = archived_settings(json.loads(summary.read_text("utf-8"))["config"]) if summary.exists() else {}
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"{summary} does not hold the archive's settings: {exc!r}") from None
    base = ExperimentConfig(**archived)
    cfg = replace(base, **settings)
    clash = sorted(k for k in settings.keys() & archived.keys() if getattr(cfg, k) != getattr(base, k))
    if clash:
        raise ConfigError(f"flags contradict the archive's {SUMMARY_JSON}: " + ", ".join(
            f"{k} {settings[k]!r} (archived {archived[k]!r})" for k in clash))
    started = datetime.now(timezone.utc).isoformat()
    grouped = load_raw_csv(path, (cfg.baseline_label, cfg.candidate_label))
    return _report(cfg, grouped.values(), started, Path(path))
