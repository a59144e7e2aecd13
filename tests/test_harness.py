from __future__ import annotations

import csv
import dataclasses
import io
import json
import random
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import duetbench.harness
from conftest import requires_two_cores
from duetbench import executor as executor_mod
from duetbench.analysis import ConfidenceInterval, Verdict
from duetbench.config import ALL_STRATEGIES
from duetbench.errors import BenchmarkError, ConfigError, PairingError
from duetbench.executor import DuetExecutor
from duetbench.harness import (
    RAW_CSV_COLUMNS,
    ExperimentConfig,
    Report,
    StrategyResult,
    emit_report,
    instance_repetitions,
    load_raw_csv,
    reanalyze_raw,
    run_experiment,
)
from duetbench.measurement import CLOCKS, Backend, ClockMode, MeasurementSet, Pairing, Strategy
from duetbench.simenv import VariabilityModel
from duetbench.workloads import WorkloadKind, WorkResult

FAST = dict(repetitions=200, instances=2, resamples=1000, backend=Backend.SIMULATED)


def test_instance_repetitions_splits():
    assert instance_repetitions(1500, 4) == [375, 375, 375, 375]
    assert instance_repetitions(10, 3) == [4, 4, 2]
    assert instance_repetitions(2, 4) == [1, 1, 0, 0]
    assert sum(instance_repetitions(1501, 4)) == 1501


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(instances=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(ci_level=1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(strategies=())
    with pytest.raises(ConfigError):
        ExperimentConfig(baseline_label="X", candidate_label="X")
    with pytest.raises(ConfigError, match="'duet'"):
        ExperimentConfig(strategies=(Strategy.DUET, Strategy.RMIT, Strategy.DUET))
    with pytest.raises(ConfigError):
        ExperimentConfig(formats=("yaml",))


def test_zero_repetitions_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(repetitions=0)


def test_config_roundtrip_through_dict():
    cfg = ExperimentConfig(seed=9, repetitions=300, regression_pct=5.0, workload=WorkloadKind.MEM_SIEVE)
    clone = ExperimentConfig.from_dict(cfg.to_dict())
    assert clone.seed == 9
    assert clone.repetitions == 300
    assert clone.regression_pct == 5.0
    assert clone.workload is WorkloadKind.MEM_SIEVE
    assert clone.model == cfg.model


MODEL_DICT = {
    "instance_quality_cv": 0.15, "temporal_sigma": 0.05, "cold_penalty_ms": 150.0, "base_cost_ns_per_unit": 100.0,
    "drift_period_s": 300.0, "drift_amplitude": 0.12, "duet_jitter_cv": 0.002, "time_step_s": 0.1,
}


def test_to_dict_layout_is_unchanged():
    assert ExperimentConfig().to_dict() == {
        "strategies": ["independent", "rmit", "duet"], "backend": "simulated", "repetitions": 1500, "instances": 4,
        "seed": 42, "workload": {"kind": "cpu_mutation", "scale": 20000}, "regression_pct": 0.0, "labels": ["A", "B"],
        "ci_level": 0.99, "resamples": 10000, "threshold_pct": 1.0, "min_samples": 50,
        "sweep": {"enabled": False, "start": 50, "stop": 1500, "step": 5}, "clock": None, "pairing": "index",
        "pinning": True, "cores": [0, 1], "model": MODEL_DICT,
    }
    cfg = ExperimentConfig(workload=WorkloadKind.MEM_SIEVE, clock=ClockMode.WALL_CLOCK, core_a=2, core_b=3,
                           baseline_label="old", candidate_label="new", run_sweep=True)
    assert cfg.to_dict() == {
        "strategies": ["independent", "rmit", "duet"], "backend": "simulated", "repetitions": 1500, "instances": 4,
        "seed": 42, "workload": {"kind": "mem_sieve", "scale": 200000}, "regression_pct": 0.0,
        "labels": ["old", "new"], "ci_level": 0.99, "resamples": 10000, "threshold_pct": 1.0, "min_samples": 50,
        "sweep": {"enabled": True, "start": 50, "stop": 1500, "step": 5}, "clock": "wall_clock", "pairing": "index",
        "pinning": True, "cores": [2, 3], "model": MODEL_DICT,
    }
    assert ExperimentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


def _key_paths(layout: dict) -> list[str]:
    return [k for key, v in layout.items() for k in ([key] + (_key_paths(v) if isinstance(v, dict) else []))]


# Any JSON value. Object keys are mostly the layout's own (one unknown key
# besides), so that most generated configs pass the key check and reach the
# field check.
_KEYS = st.sampled_from(sorted({*_key_paths(ExperimentConfig().to_dict()), "output_dir", "formats", "nope"}))
_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(0, 9) | st.floats() | st.floats(0, 1)
           | st.text(max_size=4) | st.sampled_from(["duet", "rmit", "live", "mem_sieve", "wall_clock", "random", "json"]))
_JSON = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=4),
                     max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_JSON | st.dictionaries(_KEYS, _JSON, max_size=4))
def test_from_dict_returns_a_config_or_raises_config_error(raw):
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return
    assert ExperimentConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


def test_simulated_aa_duet_passes():
    cfg = ExperimentConfig(strategies=(Strategy.DUET,), seed=101, **FAST)
    report = run_experiment(cfg)
    (result,) = report.results
    assert result.verdict is Verdict.PASS
    assert abs(result.median_change_pct) < 0.5
    assert report.overall_verdict is Verdict.PASS


def test_simulated_ab_duet_flags_regression():
    cfg = ExperimentConfig(strategies=(Strategy.DUET,), seed=101, regression_pct=5.0, threshold_pct=1.0, **FAST)
    report = run_experiment(cfg)
    (result,) = report.results
    assert result.verdict is Verdict.REGRESSION
    assert report.overall_verdict is Verdict.REGRESSION


def test_fanout_counting():
    cfg = ExperimentConfig(strategies=(Strategy.DUET,), seed=3, **FAST)
    report = run_experiment(cfg)
    (result,) = report.results
    assert result.pairs_before_filter == 200
    assert len(result.measurements) == 400
    # one cold pair per simulated instance
    assert result.pairs_after_filter == 200 - cfg.instances


def test_fanout_neutrality_total_pairs():
    counts = {}
    for instances in (1, 4):
        cfg = ExperimentConfig(strategies=(Strategy.RMIT,), seed=5, repetitions=200,
                               instances=instances, resamples=1000, backend=Backend.SIMULATED)
        report = run_experiment(cfg)
        counts[instances] = report.results[0].pairs_before_filter
    assert counts[1] == counts[4] == 200


@requires_two_cores
def test_live_gate_builds_one_executor_and_forks_once(monkeypatch):
    executors, workers = [], []

    class CountingExecutor(DuetExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            executors.append(self)

    ctx = executor_mod._context()
    process = ctx.Process

    def counting_process(*args, **kwargs):
        workers.append(process(*args, **kwargs))
        return workers[-1]

    bootstrap_ci = duetbench.harness.bootstrap_ci
    bootstraps = []

    def bootstrap_without_workers(*args, **kwargs):  # analysis never runs beside the pinned workers
        assert workers and not any(w.is_alive() for w in workers)
        bootstraps.append(args)
        return bootstrap_ci(*args, **kwargs)

    monkeypatch.setattr(duetbench.harness, "DuetExecutor", CountingExecutor)
    monkeypatch.setattr(ctx, "Process", counting_process)
    monkeypatch.setattr(duetbench.harness, "bootstrap_ci", bootstrap_without_workers)
    cfg = ExperimentConfig(strategies=(Strategy.DUET, Strategy.RMIT), backend=Backend.LIVE, repetitions=100,
                           instances=2, resamples=1000, scale=2000)
    report = run_experiment(cfg)
    assert len(bootstraps) == 2
    assert len(executors) == 1
    assert len(workers) == 2  # one fork of the two duet workers
    assert not any(w.is_alive() for w in workers)
    assert [r.pairs_before_filter for r in report.results] == [100, 100]
    assert {m.instance_id for r in report.results for m in r.measurements} == {0, 1}


def test_merge_is_sorted_by_instance_then_repetition():
    cfg = ExperimentConfig(strategies=(Strategy.DUET,), seed=5, **FAST)
    report = run_experiment(cfg)
    keys = [(m.instance_id, m.repetition) for m in report.results[0].measurements]
    assert keys == sorted(keys)


def test_all_strategies_run_in_order_and_duet_is_narrowest():
    cfg = ExperimentConfig(strategies=ALL_STRATEGIES, seed=11, **FAST)
    results = run_experiment(cfg).results
    assert [r.strategy for r in results] == [Strategy.INDEPENDENT, Strategy.RMIT, Strategy.DUET]
    widths = {r.strategy: r.ci.width_pp for r in results}
    assert widths[Strategy.DUET] < widths[Strategy.RMIT] < widths[Strategy.INDEPENDENT]


def test_single_strategy_single_result():
    cfg = ExperimentConfig(strategies=(Strategy.RMIT,), seed=2, **FAST)
    assert len(run_experiment(cfg).results) == 1


def test_noise_free_model_gives_zero_widths():
    quiet = VariabilityModel(
        instance_quality_cv=0.0, temporal_sigma=0.0, cold_penalty_ms=0.0,
        drift_amplitude=0.0, duet_jitter_cv=0.0,
    )
    cfg = ExperimentConfig(seed=8, model=quiet, **FAST)
    report = run_experiment(cfg)
    assert all(r.ci.width_pp == 0.0 for r in report.results)
    assert all(r.median_change_pct == 0.0 for r in report.results)


def test_end_to_end_determinism_byte_identical_summary(tmp_path):
    from duetbench.harness import summary_dict

    cfg = ExperimentConfig(seed=77, output_dir=tmp_path, **FAST)
    blobs = []
    for _ in range(2):
        summary = summary_dict(run_experiment(cfg))
        summary.pop("run")
        blobs.append(json.dumps(summary, sort_keys=True).encode())
    assert blobs[0] == blobs[1]


def test_emit_report_files_and_consistency(tmp_path):
    cfg = ExperimentConfig(strategies=(Strategy.DUET,), seed=4, output_dir=tmp_path, **FAST)
    report = run_experiment(cfg)
    written = emit_report(report, tmp_path, ("json", "csv"))

    with open(written["raw_csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(
        ("strategy", "instance_id", "repetition", "version", "duration_ns", "clock_mode", "cold", "order_position")
    )
    assert len(rows) - 1 == 2 * 200  # two measurements per pair

    summary = json.loads(Path(written["summary_json"]).read_text())
    with open(written["summary_csv"], newline="") as fh:
        (csv_row,) = list(csv.DictReader(fh))
    block = summary["strategies"]["duet"]
    assert float(csv_row["median_change_pct"]) == block["median_change_pct"]
    assert float(csv_row["width_pp"]) == block["ci"]["width_pp"]
    assert csv_row["verdict"] == block["verdict"]


def test_emit_empty_report_rejected(tmp_path):
    from duetbench.harness import Report

    empty = Report(results=[], config={}, seed=0, started_at="", finished_at="")
    with pytest.raises(BenchmarkError):
        emit_report(empty, tmp_path)


def test_sweep_csv_emission(tmp_path):
    cfg = ExperimentConfig(
        strategies=(Strategy.DUET,), seed=6, repetitions=161, instances=1, resamples=1000,
        backend=Backend.SIMULATED, run_sweep=True, sweep_start=50, sweep_stop=160, sweep_step=10,
        output_dir=tmp_path,
    )
    report = run_experiment(cfg)
    written = emit_report(report, tmp_path)
    with open(written["sweep_csv"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert rows[0]["strategy"] == "duet" and rows[0]["n"] == "50"


def test_reanalysis_reproduces_cis_exactly(tmp_path):
    cfg = ExperimentConfig(seed=31, output_dir=tmp_path, **FAST)
    report = run_experiment(cfg)
    written = emit_report(report, tmp_path)
    again = reanalyze_raw(
        written["raw_csv"], seed=31, ci_level=cfg.ci_level, resamples=cfg.resamples,
        threshold_pct=cfg.threshold_pct, min_samples=cfg.min_samples,
    )
    orig = {r.strategy: r for r in report.results}
    for result in again.results:
        assert result.ci == orig[result.strategy].ci
        assert result.median_change_pct == orig[result.strategy].median_change_pct
        assert result.verdict == orig[result.strategy].verdict


def _fingerprint(result):
    bits = np.array([result.ci.lower_pct, result.ci.upper_pct, result.median_change_pct]).view(np.int64).tolist()
    return (result.strategy, bits, result.verdict, result.samples.tobytes(), result.sweep,
            result.pairs_before_filter, result.pairs_after_filter)


@pytest.mark.parametrize("pairing", list(Pairing))
def test_reanalysis_reproduces_every_result_bit_for_bit(tmp_path, pairing):
    sweep = dict(run_sweep=True, sweep_start=50, sweep_stop=200, sweep_step=50)
    cfg = ExperimentConfig(strategies=ALL_STRATEGIES, seed=23, pairing=pairing, **FAST, **sweep)
    report = run_experiment(cfg)
    assert [r.strategy for r in report.results] == list(ALL_STRATEGIES) and all(r.sweep for r in report.results)
    again = reanalyze_raw(emit_report(report, tmp_path, ())["raw_csv"], seed=cfg.seed, resamples=cfg.resamples,
                          pairing=pairing, **sweep)
    assert list(map(_fingerprint, again.results)) == list(map(_fingerprint, report.results))


@pytest.mark.parametrize("verdicts, overall", [
    ({"independent": "regression", "rmit": "inconclusive", "duet": "pass"}, "pass"),
    ({"independent": "pass", "rmit": "pass", "duet": "inconclusive"}, "inconclusive"),
    ({"duet": "regression", "rmit": "pass"}, "regression"),
    ({"independent": "inconclusive", "rmit": "regression"}, "regression"),
    ({"independent": "pass", "rmit": "inconclusive"}, "inconclusive"),
    ({"independent": "pass", "rmit": "pass"}, "pass"),
])
def test_the_overall_verdict_is_duets_when_duet_ran(verdicts, overall):
    report = run_experiment(ExperimentConfig(strategies=tuple(map(Strategy, verdicts)), seed=4, **FAST))
    report.results = [dataclasses.replace(r, verdict=Verdict(verdicts[r.strategy.value])) for r in report.results]
    assert report.overall_verdict is Verdict(overall)


def test_config_from_file_with_overrides(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "strategies": ["duet"],
        "backend": "simulated",
        "repetitions": 120,
        "seed": 5,
        "workload": {"kind": "mem_sieve", "scale": 5000},
        "model": {"temporal_sigma": 0.02},
    }))
    cfg = ExperimentConfig.from_file(path, repetitions=150)
    assert cfg.strategies == (Strategy.DUET,)
    assert cfg.repetitions == 150  # override wins
    assert cfg.workload is WorkloadKind.MEM_SIEVE
    assert cfg.scale == 5000
    assert cfg.model.temporal_sigma == 0.02


_LABELS = st.lists(st.text('ab"\r\n, é漢', max_size=4), min_size=2, max_size=2, unique=True)


def _written_by_csv_writer(sets) -> bytes:
    """The reference raw.csv of `sets`: every row through csv.writer, one cell at a time."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(("strategy", "instance_id", "repetition", "version", "duration_ns", "clock_mode", "cold",
                     "order_position"))
    for mset in sets:
        for m in mset:
            writer.writerow([m.strategy.value, m.instance_id, m.repetition, m.version_label, m.duration_ns,
                             m.clock_mode.value, "true" if m.cold else "false",
                             "" if m.order_position is None else m.order_position])
    return buf.getvalue().encode("utf-8")


@settings(max_examples=40, deadline=None)
@given(labels=_LABELS, seed=st.integers(0, 2**32))
def test_raw_csv_is_what_csv_writer_writes(tmp_path_factory, labels, seed):
    cfg = ExperimentConfig(seed=seed, repetitions=8, instances=2, resamples=1000, min_samples=1,
                           backend=Backend.SIMULATED, baseline_label=labels[0], candidate_label=labels[1])
    report = run_experiment(cfg)
    path = emit_report(report, tmp_path_factory.mktemp("raw"), ())["raw_csv"]
    assert path.read_bytes() == _written_by_csv_writer(r.measurements for r in report.results)


@st.composite
def _measurement_sets(draw, label_alphabet='ab"\r\n, é漢\x00'):
    """One to three sets of distinct strategies, of 0 to 40 rows each, every column over its whole range."""
    labels = tuple(draw(st.lists(st.text(label_alphabet, max_size=4), min_size=2, max_size=2, unique=True)))
    sets = []
    for strategy in draw(st.lists(st.sampled_from(Strategy), min_size=1, max_size=3, unique=True)):
        rows = draw(st.integers(0, 40))

        def column(least, most, dtype=np.int64):
            return np.array(draw(st.lists(st.integers(least, most), min_size=rows, max_size=rows)), dtype)

        sets.append(MeasurementSet(strategy, labels, instance_id=column(-2**63, 2**63 - 1),
                                   repetition=column(0, 2**63 - 1), duration_ns=column(1, 2**63 - 1),
                                   version=column(0, 1, np.int8), cold=column(0, 1, bool),
                                   order_position=column(-1, 1, np.int8), clock_mode=column(0, 1, np.int8)))
    return sets


# Every extreme at once, 0 and 10 next to them, every clock, cold and order code, and a set of no rows.
_EXTREMES = [
    MeasurementSet(Strategy.RMIT, ('x,"y', "é\n"), instance_id=[-2**63, 0, -1, 10, 2**63 - 1, -10],
                   repetition=[0, 10**18, 2**63 - 1, 10, 0, 1], duration_ns=[2**63 - 1, 1, 10, 100, 9, 10**18],
                   version=[0, 1, 1, 0, 0, 1], cold=[True, False, True, False, True, False],
                   order_position=[-1, 0, 1, -1, 0, 1], clock_mode=[0, 0, 1, 1, 0, 1]),
    MeasurementSet(Strategy.DUET, ('x,"y', "é\n")),
    MeasurementSet(Strategy.INDEPENDENT, ('x,"y', "é\n"), instance_id=[0], repetition=[0], duration_ns=[1],
                   version=[1], cold=[False], order_position=[-1], clock_mode=[1]),
]


def _report_of(sets) -> Report:
    ci = ConfidenceInterval(0.0, 0.0, 0.99)
    return Report(results=[StrategyResult(m.strategy, m, 0, 0, 0.0, ci, Verdict.PASS, np.zeros(0)) for m in sets],
                  config={}, seed=0, started_at="", finished_at="")


@settings(max_examples=200, deadline=None)
@given(sets=_measurement_sets())
@example(sets=_EXTREMES)
@example(sets=[MeasurementSet(Strategy.DUET, ("A", ""))])
def test_raw_csv_is_what_csv_writer_writes_on_any_set(tmp_path_factory, sets):
    path = emit_report(_report_of(sets), tmp_path_factory.mktemp("raw"), ())["raw_csv"]
    assert path.read_bytes() == _written_by_csv_writer(sets)


@settings(max_examples=100, deadline=None)
@given(sets=_measurement_sets(label_alphabet='ab"\r\n, é漢'))
@example(sets=_EXTREMES)
def test_load_raw_csv_reads_back_any_set(tmp_path_factory, sets):
    labels = sets[0].version_labels
    path = emit_report(_report_of(sets), tmp_path_factory.mktemp("raw"), ())["raw_csv"]
    if not any(map(len, sets)):
        with pytest.raises(BenchmarkError, match="no measurements"):
            load_raw_csv(path, labels)
        return
    loaded = load_raw_csv(path, labels)
    assert list(loaded) == [m.strategy for m in sets if len(m)]
    for mset in filter(len, sets):
        for name in RAW_CSV_COLUMNS[1:]:
            assert np.array_equal(getattr(loaded[mset.strategy], name), getattr(mset, name)), name


def test_emit_report_writes_raw_csv_in_little_memory(tmp_path):
    cfg = ExperimentConfig(seed=8, repetitions=8000, instances=8, resamples=1000, backend=Backend.SIMULATED)
    report = run_experiment(cfg)
    tracemalloc.start()
    try:
        raw = emit_report(report, tmp_path, ())["raw_csv"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert raw.read_bytes().count(b"\r\n") == 1 + 48_000
    assert peak < 0.5 * 2**20  # 0.5 MiB; a str.format per row peaked at 1.87 MiB


def test_load_raw_csv_matches_a_dict_reader_across_chunk_boundaries(tmp_path):
    labels = ("a,b", 'q"x')
    cfg = ExperimentConfig(seed=3, repetitions=300, instances=2, resamples=1000, backend=Backend.SIMULATED,
                           baseline_label=labels[0], candidate_label=labels[1])
    written = emit_report(run_experiment(cfg), tmp_path, ())["raw_csv"]
    header, *lines = written.read_text(encoding="utf-8").splitlines(keepends=True)
    rows = {s.value: iter([line for line in lines if line.startswith(s.value + ",")]) for s in Strategy}
    # one row of each, duet first, then the rest in a random order of strategies, in order within a strategy
    slots = [s for s in rows for _ in range(len(lines) // 3 - 1)]
    random.Random(5).shuffle(slots)
    mixed = [next(rows[s]) for s in ["duet", "independent", "rmit", *slots]]
    chunk = duetbench.harness._CHUNK_ROWS
    assert len(mixed) == len(lines) > chunk + 3
    assert all(len({line.split(",")[0] for line in mixed[b - 3:b + 3]}) > 1 for b in range(chunk, len(mixed), chunk))
    mixed.insert(chunk, "\r\n")  # a blank line, the first row of the second chunk
    path = tmp_path / "mixed.csv"
    path.write_text(header + "".join(mixed), encoding="utf-8")

    with open(path, newline="", encoding="utf-8") as fh:
        expected = {}
        for row in csv.DictReader(fh):
            expected.setdefault(row["strategy"], []).append(row)
    loaded = load_raw_csv(path, labels)
    assert [s.value for s in loaded] == list(expected) == ["duet", "independent", "rmit"]
    for strategy, mset in loaded.items():
        got = zip(mset.instance_id.tolist(), mset.repetition.tolist(), mset.version.tolist(), mset.duration_ns.tolist(),
                  mset.clock_mode.tolist(), mset.cold.tolist(), mset.order_position.tolist())
        cells = [[strategy.value, str(i), str(rep), labels[v], str(d), CLOCKS[c].value, "true" if cold else "false",
                  "" if pos < 0 else str(pos)] for i, rep, v, d, c, cold, pos in got]
        assert cells == [list(row.values()) for row in expected[strategy.value]]


def test_load_raw_csv_reads_a_label_line_break_that_a_chunk_ends_in(tmp_path):
    labels = ("A", "x\r\ny")  # a pair takes three lines, so some chunk of _CHUNK_ROWS lines ends inside a label
    cfg = ExperimentConfig(strategies=(Strategy.DUET,), seed=3, repetitions=700, instances=1, resamples=1000,
                           backend=Backend.SIMULATED, baseline_label=labels[0], candidate_label=labels[1])
    report = run_experiment(cfg)
    measured = report.results[0].measurements
    path = emit_report(report, tmp_path, ())["raw_csv"]
    data = path.read_bytes().decode("utf-8").splitlines(keepends=True)[1:]
    chunk = duetbench.harness._CHUNK_ROWS
    assert any(data[end - 1].endswith('"x\r\n') for end in range(chunk, len(data), chunk))
    loaded = load_raw_csv(path, labels)[Strategy.DUET]
    assert loaded.version_labels == labels
    assert loaded.version.tolist() == measured.version.tolist()
    assert loaded.duration_ns.tolist() == measured.duration_ns.tolist()


_LONG_LABELS = st.tuples(st.text('ab"\r\n, é漢', min_size=40, max_size=40), st.text('ab"\r\n, é漢', max_size=4))


@settings(max_examples=40, deadline=None)
@given(labels=_LABELS | _LONG_LABELS, seed=st.integers(0, 2**32))
def test_load_raw_csv_reads_back_what_emit_report_wrote(tmp_path_factory, labels, seed):
    labels = tuple(labels)
    cfg = ExperimentConfig(seed=seed, repetitions=8, instances=2, resamples=1000, min_samples=1,
                           backend=Backend.SIMULATED, baseline_label=labels[0], candidate_label=labels[1])
    report = run_experiment(cfg)
    loaded = load_raw_csv(emit_report(report, tmp_path_factory.mktemp("raw"), ())["raw_csv"], labels)
    assert list(loaded) == [r.strategy for r in report.results]
    for r in report.results:
        assert loaded[r.strategy].version_labels == labels
        for name in ("duration_ns", "instance_id", "repetition", "version", "cold", "order_position", "clock_mode"):
            assert np.array_equal(getattr(loaded[r.strategy], name), getattr(r.measurements, name)), name
    # a third label longer than both is cut one character past the longer, and still matches neither
    third = max(labels, key=len) + "xy"
    foreign = run_experiment(dataclasses.replace(cfg, candidate_label=third))
    with pytest.raises(PairingError):
        load_raw_csv(emit_report(foreign, tmp_path_factory.mktemp("foreign"), ())["raw_csv"], labels)


def test_load_raw_csv_warns_nothing(tmp_path):
    cfg = ExperimentConfig(seed=4, repetitions=600, instances=2, resamples=1000, backend=Backend.SIMULATED)
    header, *lines = emit_report(run_experiment(cfg), tmp_path, ())["raw_csv"].read_text(encoding="utf-8").splitlines(
        keepends=True)
    chunk = duetbench.harness._CHUNK_ROWS
    rows = lines[:2 * chunk]  # whole chunks, so the last read finds no row
    assert len(rows) == 2 * chunk
    path = tmp_path / "blank.csv"
    # a blank line opens the second chunk, and one ends the file
    path.write_text(header + "".join(rows[:chunk]) + "\r\n" + "".join(rows[chunk:]) + "\r\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_raw_csv(path, ("A", "B"))
    assert sum(map(len, loaded.values())) == 2 * chunk


def test_load_raw_csv_peaks_little_above_its_result(tmp_path):
    cfg = ExperimentConfig(seed=8, repetitions=8000, instances=8, resamples=1000, backend=Backend.SIMULATED)
    path = emit_report(run_experiment(cfg), tmp_path, ())["raw_csv"]
    tracemalloc.start()
    try:
        loaded = load_raw_csv(path, ("A", "B"))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, loaded.values())) == 48_000
    assert peak - held < 1.25 * 2**20  # 1.25 MiB


def test_harness_calls_its_layers_through_its_module_names(tmp_path, monkeypatch):
    # The benchmark's per-layer metrics replace these attributes of duetbench.harness and read their
    # arguments by position; a call that bypasses them would make a metric read 0 with no error.
    calls = {name: [] for name in ("bootstrap_ci", "run_strategy", "pair_measurements", "filter_cold_starts",
                                   "load_raw_csv")}
    for name, seen in calls.items():
        def counting(*args, _fn=getattr(duetbench.harness, name), _seen=seen, **kwargs):
            _seen.append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(duetbench.harness, name, counting)
    cfg = ExperimentConfig(strategies=(Strategy.DUET,), seed=12, **FAST)
    report = run_experiment(cfg)
    again = reanalyze_raw(emit_report(report, tmp_path, ())["raw_csv"], seed=12, resamples=cfg.resamples)
    assert all(calls.values()), {name: len(seen) for name, seen in calls.items()}
    sent = [args[0] for args in calls["bootstrap_ci"]]
    assert len(sent) == 2 and sent[0] is report.results[0].samples and sent[1] is again.results[0].samples
    assert all(args[2] == cfg.resamples for args in calls["bootstrap_ci"])
    assert all(args[0].backend is Backend.SIMULATED for args in calls["run_strategy"])


@requires_two_cores
def test_live_gate_calls_the_executor_through_its_method_names(monkeypatch):
    # The benchmark's executor metrics and its checksum fault replace these DuetExecutor methods and read what
    # they return; a live gate that bypassed one would make a metric read 0 with no error.
    calls = {name: [] for name in ("duet_invoke", "solo_invoke", "_recv")}
    for name, seen in calls.items():
        def counting(executor, *args, _fn=getattr(DuetExecutor, name), _seen=seen, **kwargs):
            spawns = not executor._procs
            out = _fn(executor, *args, **kwargs)
            _seen.append((executor, spawns, out))
            return out

        monkeypatch.setattr(DuetExecutor, name, counting)
    counted_duet = DuetExecutor.duet_invoke
    swapped = WorkResult(checksum=-1, units_done=-1)

    def swap_first_candidate(executor, *args, **kwargs):
        m_a, m_b = counted_duet(executor, *args, **kwargs)
        if len(calls["duet_invoke"]) == 1:
            m_b = dataclasses.replace(m_b, result=swapped)
        return m_a, m_b

    monkeypatch.setattr(DuetExecutor, "duet_invoke", swap_first_candidate)
    cfg = ExperimentConfig(strategies=(Strategy.DUET, Strategy.RMIT), backend=Backend.LIVE, repetitions=100,
                           instances=2, resamples=1000, scale=2000)
    duet, rmit = run_experiment(cfg).results
    pairs = len(duet.measurements) // 2
    assert len(calls["duet_invoke"]) == pairs == 100
    assert len(calls["_recv"]) == 2 * pairs
    assert len(calls["solo_invoke"]) == len(rmit.measurements) > 0
    assert [spawns for _, spawns, _ in calls["duet_invoke"]] == [True] + [False] * (pairs - 1)
    for _, _, row in calls["solo_invoke"]:
        assert row.clock_mode is ClockMode.WALL_CLOCK and row.duration_ns > 0
    for _, _, (status, payload) in calls["_recv"]:
        assert status == "ok" and {"cpu_ns", "wall_ns", "start_ns", "affinity", "result"} <= payload.keys()
    assert {executor.last_barrier is not None for executor, _, _ in calls["duet_invoke"]} == {True}
    assert sum(result is swapped for result in duet.measurements.result) == 1
