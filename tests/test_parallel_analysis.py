"""Strategies analysed side by side give exactly what a sequential loop gives.

On two or more usable cores `harness._analyze_all` runs `analyze_measurement_set`
on one thread per strategy: the calling thread and its helpers. On one core the
calling thread analyses the strategies in turn. Every analysis stream is keyed
by (seed, purpose, strategy), so the bits cannot depend on the core count.
"""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

import duetbench.harness
from duetbench.cli import EXIT_ERROR, main
from duetbench.config import ALL_STRATEGIES
from duetbench.harness import ExperimentConfig, analyze_measurement_set, emit_report, reanalyze_raw, run_experiment
from duetbench.measurement import Backend, Pairing, Strategy

SWEEP = dict(run_sweep=True, sweep_start=50, sweep_stop=200, sweep_step=50)


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _fingerprint(result):
    return (result.strategy, _bits(result.ci.lower_pct), _bits(result.ci.upper_pct), result.verdict,
            _bits(result.median_change_pct), result.samples.tobytes(), result.sweep,
            result.pairs_before_filter, result.pairs_after_filter)


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("pairing", list(Pairing))
def test_concurrent_analysis_equals_a_sequential_loop(tmp_path, monkeypatch, cores, pairing):
    monkeypatch.setattr(duetbench.harness, "available_cores", lambda: cores)
    cfg = ExperimentConfig(strategies=ALL_STRATEGIES, seed=23, repetitions=200, instances=2, resamples=1000,
                           backend=Backend.SIMULATED, pairing=pairing, **SWEEP)
    report = run_experiment(cfg)
    sequential = [analyze_measurement_set(r.measurements, cfg=cfg) for r in report.results]
    assert [r.strategy for r in report.results] == list(ALL_STRATEGIES)
    assert all(r.sweep for r in report.results)
    assert list(map(_fingerprint, report.results)) == list(map(_fingerprint, sequential))

    again = reanalyze_raw(emit_report(report, tmp_path, ())["raw_csv"], seed=cfg.seed, resamples=cfg.resamples,
                          pairing=pairing, **SWEEP)
    assert list(map(_fingerprint, again.results)) == list(map(_fingerprint, sequential))


@pytest.mark.parametrize("cores", [1, 2])
def test_each_strategy_has_its_own_thread_on_two_cores(monkeypatch, cores):
    monkeypatch.setattr(duetbench.harness, "available_cores", lambda: cores)
    all_started = threading.Barrier(len(ALL_STRATEGIES), timeout=10)  # no thread takes a second set
    threads = {}

    def record_thread(mset, **kwargs):
        threads[mset] = threading.get_ident()
        if cores > 1:
            all_started.wait()
        return mset

    monkeypatch.setattr(duetbench.harness, "analyze_measurement_set", record_thread)
    assert duetbench.harness._analyze_all(list(ALL_STRATEGIES), cfg=None) == list(ALL_STRATEGIES)
    if cores > 1:
        assert len(set(threads.values())) == len(ALL_STRATEGIES)
    else:
        assert set(threads.values()) == {threading.get_ident()}


def test_first_failure_in_config_order_is_raised_after_every_helper_stops(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(duetbench.harness, "available_cores", lambda: 3)
    original = duetbench.harness.analyze_measurement_set
    duet_failed = threading.Event()

    def fail_rmit_after_duet(mset, **kwargs):
        if mset.strategy is Strategy.INDEPENDENT:
            return original(mset, **kwargs)
        if mset.strategy is Strategy.DUET:
            duet_failed.set()
        else:
            duet_failed.wait(10)
        raise ValueError(f"{mset.strategy.value} analysis failed")

    monkeypatch.setattr(duetbench.harness, "analyze_measurement_set", fail_rmit_after_duet)
    threads = threading.active_count()
    cfg = ExperimentConfig(strategies=ALL_STRATEGIES, seed=24, repetitions=200, instances=2, resamples=1000,
                           backend=Backend.SIMULATED)
    with pytest.raises(ValueError, match="rmit analysis failed"):  # duet failed first, but rmit comes first
        run_experiment(cfg)
    assert duet_failed.is_set()
    assert threading.active_count() == threads

    duet_failed.clear()
    code = main(["compare", "--backend", "simulated", "--repetitions", "200", "--instances", "2",
                 "--resamples", "1000", "--seed", "24", "--out", str(tmp_path)])
    assert code == EXIT_ERROR
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": "rmit analysis failed"}
    assert threading.active_count() == threads


def test_every_set_is_analysed_once_by_more_threads_than_cores(monkeypatch):
    monkeypatch.setattr(duetbench.harness, "available_cores", lambda: 2)  # three threads, one per strategy
    taken = []

    def double(mset, **kwargs):
        taken.append(mset)
        return 2 * mset

    monkeypatch.setattr(duetbench.harness, "analyze_measurement_set", double)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = duetbench.harness._analyze_all(range(3), cfg=None)
    finally:
        sys.setswitchinterval(interval)
    assert results == [2 * i for i in range(3)]
    assert sorted(taken) == list(range(3))
    assert threading.active_count() == threads
