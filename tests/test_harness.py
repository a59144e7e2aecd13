from __future__ import annotations

import csv
import dataclasses
import io
import json
import random
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import duetbench.cli
import duetbench.harness
from conftest import requires_two_cores
from duetbench import executor as executor_mod
from duetbench.analysis import ConfidenceInterval, Verdict, bootstrap_ci
from duetbench.config import archived_settings
from duetbench.errors import BenchmarkError, ConfigError, PairingError
from duetbench.executor import DuetExecutor
from duetbench.harness import (
    RAW_CSV_COLUMNS,
    ExperimentConfig,
    Report,
    StrategyResult,
    emit_report,
    load_raw_csv,
    reanalyze_raw,
    run_experiment,
)
from duetbench.measurement import CLOCKS, STRATEGIES, Backend, ClockMode, MeasurementSet, Pairing, Strategy
from duetbench.simenv import VariabilityModel
from duetbench.strategies import instance_repetitions
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
    assert ExperimentConfig(**archived_settings(cfg.to_dict())).to_dict() == cfg.to_dict()


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

    monkeypatch.setattr(executor_mod, "DuetExecutor", CountingExecutor)  # a live gate imports it from there
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
    cfg = ExperimentConfig(strategies=STRATEGIES, seed=11, **FAST)
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

    empty = Report(results=[], cfg=ExperimentConfig(), started_at="", finished_at="", reanalyzed_from=None)
    with pytest.raises(BenchmarkError):
        emit_report(empty, tmp_path, ("json", "csv"))


def _sweep_report(repetitions: int) -> Report:
    return run_experiment(ExperimentConfig(strategies=(Strategy.DUET, Strategy.RMIT), seed=31, repetitions=repetitions,
                                           instances=2, resamples=1000, backend=Backend.SIMULATED, run_sweep=True,
                                           sweep_start=50, sweep_stop=120, sweep_step=10))


def test_a_report_replaces_each_artifact_with_a_new_file(tmp_path):
    # Rewriting a file in place makes ext4 flush it on close and discard its blocks on the next rewrite; a new file
    # at the same path costs neither. A hard link to the old file therefore keeps the first report's bytes.
    out, links = tmp_path / "out", tmp_path / "links"
    links.mkdir()
    first = emit_report(_sweep_report(260), out, ("json", "csv"))
    assert sorted(first) == ["raw_csv", "summary_csv", "summary_json", "sweep_csv"]
    old = {name: path.read_bytes() for name, path in first.items()}
    for name, path in first.items():
        (links / name).hardlink_to(path)
    second_report = _sweep_report(160)
    second = emit_report(second_report, out, ("json", "csv"))
    fresh = emit_report(second_report, tmp_path / "fresh", ("json", "csv"))
    for name, path in second.items():
        assert (links / name).read_bytes() == old[name]
        assert path.read_bytes() == fresh[name].read_bytes() != old[name]


def test_a_symlink_at_an_artifact_path_is_replaced_not_followed(tmp_path):
    target = tmp_path / "elsewhere.csv"
    target.write_bytes(b"kept\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "raw.csv").symlink_to(target)
    written = emit_report(_sweep_report(160), out, ("json", "csv"))
    assert target.read_bytes() == b"kept\n"
    assert not written["raw_csv"].is_symlink() and written["raw_csv"].read_bytes().startswith(b"strategy,")


def test_sweep_csv_emission(tmp_path):
    cfg = ExperimentConfig(
        strategies=(Strategy.DUET,), seed=6, repetitions=161, instances=1, resamples=1000,
        backend=Backend.SIMULATED, run_sweep=True, sweep_start=50, sweep_stop=160, sweep_step=10,
        output_dir=tmp_path,
    )
    report = run_experiment(cfg)
    written = emit_report(report, tmp_path, ("json", "csv"))
    with open(written["sweep_csv"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert rows[0]["strategy"] == "duet" and rows[0]["n"] == "50"


def test_the_sweep_computes_its_cis_through_the_harness_bootstrap_ci(monkeypatch):
    # Each point is the CI over the first n pairs, n = start, start + step, ... up to the stop or the pairs left after
    # cold filtering, whichever is fewer; every CI, the sweep's included, goes through the name the benchmark replaces.
    calls = []

    def counting(*args, _fn=duetbench.harness.bootstrap_ci, **kwargs):
        calls.append(args)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(duetbench.harness, "bootstrap_ci", counting)
    cfg = ExperimentConfig(strategies=(Strategy.DUET, Strategy.RMIT), seed=4, repetitions=161, instances=2,
                           resamples=1000, ci_level=0.95, backend=Backend.SIMULATED, run_sweep=True, sweep_start=50,
                           sweep_stop=170, sweep_step=10)
    report = run_experiment(cfg)
    for r in report.results:
        assert r.pairs_after_filter == 159  # one cold pair per instance, so the stop of 170 is clamped
        want = [(n, bootstrap_ci(r.samples[:n], 0.95, min_samples=cfg.min_samples).width_pp)
                for n in range(50, 160, 10)]
        assert r.sweep == want
    assert len(calls) == len(cfg.strategies) * (1 + 11)
    assert all(args[1:] == (0.95, cfg.resamples) for args in calls)


def test_a_sweep_start_above_the_pairs_left_names_the_strategy_and_the_pairs(tmp_path, capsys):
    # four cold pairs leave 51 of 55; the stop is 55, so the error names the pairs left, not a stop of 51
    code = duetbench.cli.main(["compare", "--repetitions", "55", "--instances", "4", "--resamples", "1000", "--sweep",
                               "--sweep-start", "55", "--sweep-stop", "55", "--out", str(tmp_path)])
    assert code == duetbench.cli.EXIT_ERROR
    assert json.loads(capsys.readouterr().err) == {
        "error": "SweepRangeError", "message": "independent: sweep start 55 exceeds the 51 pairs left after cold filtering"}


def test_reanalysis_reproduces_cis_exactly(tmp_path):
    cfg = ExperimentConfig(seed=31, output_dir=tmp_path, **FAST)
    report = run_experiment(cfg)
    written = emit_report(report, tmp_path, ("json", "csv"))
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
    cfg = ExperimentConfig(strategies=STRATEGIES, seed=23, pairing=pairing, **FAST, **sweep)
    report = run_experiment(cfg)
    assert [r.strategy for r in report.results] == list(STRATEGIES) and all(r.sweep for r in report.results)
    again = reanalyze_raw(emit_report(report, tmp_path, ())["raw_csv"], seed=cfg.seed, resamples=cfg.resamples,
                          pairing=pairing, **sweep)
    assert list(map(_fingerprint, again.results)) == list(map(_fingerprint, report.results))


def _archive(tmp_path, **settings):
    """A gate's report and the raw.csv emit_report wrote for it, beside its summary.json."""
    report = run_experiment(ExperimentConfig(**settings))
    return report, emit_report(report, tmp_path, ("json", "csv"))["raw_csv"]


# a non-default level and the random pairing, which draws from the seed: each of the three moves the bounds
ARCHIVED = dict(seed=7, ci_level=0.95, pairing=Pairing.RANDOM, regression_pct=1.0, repetitions=300, resamples=1000)


def test_reanalysis_takes_the_archived_settings_as_analyze_does(tmp_path):
    report, raw = _archive(tmp_path / "run", **ARCHIVED)
    again = reanalyze_raw(raw)
    assert list(map(_fingerprint, again.results)) == list(map(_fingerprint, report.results))
    # the benchmark's form: every analysis setting given, each the archive's own
    cfg = ExperimentConfig(**ARCHIVED)
    given = reanalyze_raw(raw, seed=cfg.seed, ci_level=cfg.ci_level, resamples=cfg.resamples,
                          threshold_pct=cfg.threshold_pct, min_samples=cfg.min_samples,
                          baseline_label=cfg.baseline_label, candidate_label=cfg.candidate_label, pairing=cfg.pairing)
    assert list(map(_fingerprint, given.results)) == list(map(_fingerprint, report.results))
    assert duetbench.cli.main(["analyze", str(raw), "--out", str(tmp_path / "cli")]) == duetbench.cli.EXIT_INCONCLUSIVE
    analyzed = json.loads((tmp_path / "cli" / "summary.json").read_text())
    assert analyzed["strategies"] == json.loads(json.dumps(duetbench.harness.summary_dict(again)["strategies"]))


@pytest.mark.parametrize(("setting", "value"), [("seed", 8), ("pairing", Pairing.INDEX), ("ci_level", 0.99),
                                                ("candidate_label", "C")])
def test_reanalysis_refuses_a_setting_that_contradicts_the_archive(tmp_path, setting, value):
    _, raw = _archive(tmp_path, strategies=(Strategy.DUET,), **ARCHIVED)
    with pytest.raises(ConfigError, match=re.escape(f"contradict the archive's summary.json: {setting} {value!r} (")):
        reanalyze_raw(raw, **{setting: value})


def test_reanalysis_takes_a_setting_equal_to_the_archived_one_in_any_form(tmp_path):
    # summary.json holds JSON forms: a list of names for the strategies, an object for the model, a float
    report, raw = _archive(tmp_path, strategies=(Strategy.DUET,), **ARCHIVED)
    again = reanalyze_raw(raw, strategies=(Strategy.DUET,), model=VariabilityModel(), threshold_pct=1, pairing="random")
    assert list(map(_fingerprint, again.results)) == list(map(_fingerprint, report.results))


def test_reanalysis_without_a_summary_takes_runs_defaults(tmp_path):
    report = run_experiment(ExperimentConfig(strategies=(Strategy.DUET,), repetitions=200, instances=2))
    again = reanalyze_raw(emit_report(report, tmp_path, ("csv",))["raw_csv"])
    assert list(map(_fingerprint, again.results)) == list(map(_fingerprint, report.results))
    assert again.cfg == ExperimentConfig() and again.reanalyzed_from == tmp_path / "raw.csv"
    assert duetbench.harness.summary_dict(again)["config"] == {"reanalyzed_from": str(tmp_path / "raw.csv"),
                                                               **ExperimentConfig().to_dict()}


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
                  cfg=ExperimentConfig(), started_at="", finished_at="", reanalyzed_from=None)


@settings(max_examples=200, deadline=None)
@given(sets=_measurement_sets())
@example(sets=_EXTREMES)
@example(sets=[MeasurementSet(Strategy.DUET, ("A", ""))])
# The writer pads short cells with the byte 0xFF and deletes it: labels of a NUL, of the bytes C3 BF (U+00FF) and
# EF BF BF (U+FFFF) and of a four-byte emoji keep every byte, beside int64 extremes.
@example(sets=[dataclasses.replace(_EXTREMES[0], version_labels=("\x00", "\u00ff"))])
@example(sets=[dataclasses.replace(_EXTREMES[0], version_labels=("\uffff", "a\U0001f600\x00"))])
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
    chunk = duetbench.harness._CHUNK_ROWS
    # six rows a repetition, so the file holds 1.8 chunks of rows
    cfg = ExperimentConfig(seed=3, repetitions=chunk * 3 // 10, instances=2, resamples=1000,
                           backend=Backend.SIMULATED, baseline_label=labels[0], candidate_label=labels[1])
    written = emit_report(run_experiment(cfg), tmp_path, ())["raw_csv"]
    header, *lines = written.read_text(encoding="utf-8").splitlines(keepends=True)
    rows = {s.value: iter([line for line in lines if line.startswith(s.value + ",")]) for s in Strategy}
    # one row of each, duet first, then the rest in a random order of strategies, in order within a strategy
    slots = [s for s in rows for _ in range(len(lines) // 3 - 1)]
    random.Random(5).shuffle(slots)
    mixed = [next(rows[s]) for s in ["duet", "independent", "rmit", *slots]]
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


def test_load_raw_csv_reads_a_label_line_break_that_a_chunk_ends_in(tmp_path, monkeypatch):
    labels = ("A", "x\r\ny")  # a candidate row takes two lines
    cfg = ExperimentConfig(strategies=(Strategy.DUET,), seed=3, repetitions=100, instances=1, resamples=1000,
                           backend=Backend.SIMULATED, baseline_label=labels[0], candidate_label=labels[1])
    report = run_experiment(cfg)
    measured = report.results[0].measurements
    path = emit_report(report, tmp_path, ())["raw_csv"]
    assert path.read_bytes().count(b'"x\r\ny"') == measured.version.sum()
    chunk = 7
    monkeypatch.setattr(duetbench.harness, "_CHUNK_ROWS", chunk)
    # rows are written in the set's order, so these chunks of rows end on a candidate row, past its line break
    assert sum(measured.version[end - 1] for end in range(chunk, len(measured), chunk)) > 3
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
    chunk = duetbench.harness._CHUNK_ROWS
    # six rows a repetition, so the file holds 3.6 chunks of rows
    cfg = ExperimentConfig(seed=4, repetitions=chunk * 6 // 10, instances=2, resamples=1000, backend=Backend.SIMULATED)
    header, *lines = emit_report(run_experiment(cfg), tmp_path, ())["raw_csv"].read_text(encoding="utf-8").splitlines(
        keepends=True)
    rows = lines[:2 * chunk]  # whole chunks, so the last read finds no row
    assert len(rows) == 2 * chunk
    path = tmp_path / "blank.csv"
    # a blank line opens the second chunk, and one ends the file
    path.write_text(header + "".join(rows[:chunk]) + "\r\n" + "".join(rows[chunk:]) + "\r\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_raw_csv(path, ("A", "B"))
    assert sum(map(len, loaded.values())) == 2 * chunk


def test_raw_csv_and_its_load_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    labels = ("A", 'x\r\n"y"')  # quoted, and holding a line break and quotes
    cfg = ExperimentConfig(seed=5, repetitions=1500, instances=2, resamples=1000, backend=Backend.SIMULATED,
                           baseline_label=labels[0], candidate_label=labels[1])
    report = run_experiment(cfg)
    expected = _written_by_csv_writer(r.measurements for r in report.results)
    for chunk in (7, 1024, 2048):
        monkeypatch.setattr(duetbench.harness, "_CHUNK_ROWS", chunk)
        path = emit_report(report, tmp_path / str(chunk), ())["raw_csv"]
        assert path.read_bytes() == expected, chunk
        loaded = load_raw_csv(path, labels)
        assert list(loaded) == [r.strategy for r in report.results]
        for r in report.results:
            for name in RAW_CSV_COLUMNS[1:]:
                assert np.array_equal(getattr(loaded[r.strategy], name), getattr(r.measurements, name)), (chunk, name)


@pytest.mark.parametrize("at", [65_535, 65_536, -1])  # the last byte of the first 64 KiB block, the next, the end
def test_load_raw_csv_refuses_a_nul_at_the_edges_of_its_blocks(tmp_path, at):
    cfg = ExperimentConfig(seed=4, repetitions=1000, instances=2, resamples=1000, backend=Backend.SIMULATED)
    path = emit_report(run_experiment(cfg), tmp_path, ())["raw_csv"]
    data = bytearray(path.read_bytes())
    assert len(data) > 2 * 65_536
    data[at] = 0
    path.write_bytes(data)
    with pytest.raises(ValueError, match="raw csv holds a NUL character"):
        load_raw_csv(path, ("A", "B"))


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


def test_a_set_without_workload_results_holds_one_shared_none(tmp_path):
    # simulated and loaded sets carry no workload results: their result column is a stride-0 view of one None
    cfg = ExperimentConfig(strategies=(Strategy.RMIT,), seed=2, **FAST)
    report = run_experiment(cfg)
    loaded = load_raw_csv(emit_report(report, tmp_path, ())["raw_csv"], ("A", "B"))[Strategy.RMIT]
    for mset in (report.results[0].measurements, loaded):
        assert mset.result.strides == (0,) and len(mset.result) == 2 * cfg.repetitions
        assert all(m.result is None for m in mset)
        cold = mset[mset.cold]
        assert len(cold.result) == cold.cold.sum() == cfg.instances and all(m.result is None for m in cold)
        assert cold.result.strides == (0,)


def test_harness_calls_its_layers_through_its_module_names(tmp_path, monkeypatch):
    # The benchmark's per-layer metrics replace these attributes of duetbench.harness and read their
    # arguments by position; a call that bypasses them would make a metric read 0 with no error.
    calls = {name: [] for name in ("bootstrap_ci", "run_strategy", "pair_measurements", "filter_cold_starts",
                                   "load_raw_csv")}
    for name, seen in calls.items():
        def counting(*args, _fn=getattr(duetbench.harness, name), _seen=seen, **kwargs):
            out = _fn(*args, **kwargs)
            _seen.append((args, out))
            return out

        monkeypatch.setattr(duetbench.harness, name, counting)
    cfg = ExperimentConfig(strategies=(Strategy.DUET, Strategy.RMIT), seed=12, **FAST)
    report = run_experiment(cfg)
    again = reanalyze_raw(emit_report(report, tmp_path, ())["raw_csv"], seed=12, resamples=cfg.resamples)
    assert all(calls.values()), {name: len(seen) for name, seen in calls.items()}
    sent = [args[0] for args, _ in calls["bootstrap_ci"]]
    assert len(sent) == 4 and all(a is b for a, b in zip(sent, [r.samples for r in report.results + again.results]))
    assert all(args[2] == cfg.resamples for args, _ in calls["bootstrap_ci"])
    # one call per strategy of the gate, each returning the strategy's whole set, as perfbench counts invocations
    runs = calls["run_strategy"]
    assert [(args[0], args[1]) for args, _ in runs] == [(cfg, strategy) for strategy in cfg.strategies]
    assert all(args[0].backend is Backend.SIMULATED for args, _ in runs)
    assert [len(out.measurements) for _, out in runs] == [2 * cfg.repetitions] * 2


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
