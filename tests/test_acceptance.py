"""End-to-end acceptance checks.

Each test prints one `[acceptance] ... PASS/FAIL` line (visible with -s or in
the captured output of failures). Statistical checks run the full pipeline on
the seeded simulator; the one live check is environment-sensitive and
soft-fails with a diagnostic on hosts with coarse CPU-time accounting or
noisy neighbors.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from conftest import requires_two_cores
from duetbench.cli import _VERDICT_EXIT, EXIT_PASS, EXIT_REGRESSION
from duetbench.analysis import (
    Verdict,
    bootstrap_ci,
    filter_cold_starts,
    percentile_interval,
    sweep_sample_size,
)
from duetbench.executor import DuetExecutor
from duetbench.harness import ExperimentConfig, run_experiment, summary_dict
from duetbench.measurement import Backend, Strategy
from duetbench.simenv import VariabilityModel
from duetbench.strategies import (
    LiveInstance,
    SimulatedInstance,
    pair_measurements,
    run_duet,
    run_rmit,
)
from duetbench.workloads import WorkloadKind, make_workload

SIM = Backend.SIMULATED


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _specs(regression_pct: float = 0.0, scale: int = 100_000):
    return (
        make_workload(WorkloadKind.CPU_MUTATION, scale, "A"),
        make_workload(WorkloadKind.CPU_MUTATION, scale, "B", regression_pct),
    )


def _duet_pairs(seed: int, repetitions: int, regression_pct: float = 0.0, model: VariabilityModel | None = None):
    model = model if model is not None else VariabilityModel()
    mset = run_duet(_specs(regression_pct), SimulatedInstance(model, seed, 0), repetitions)
    return pair_measurements(filter_cold_starts(mset))


def test_percentile_interval_matches_bruteforce_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    levels = (0.90, 0.95, 0.99)
    mismatches = 0
    for i in range(1000):
        size = int(rng.integers(1, 501))
        level = levels[i % 3]
        values = rng.normal(0.0, 50.0, size)
        ordered = sorted(values)
        k = math.floor(Fraction(size) * (1 - Fraction(str(level))) / 2)
        expected = (ordered[k], ordered[size - 1 - k])
        ci = percentile_interval(values, level)
        mismatches += (ci.lower_pct, ci.upper_pct) != expected
    elapsed = time.perf_counter() - t0
    _report(
        "percentile interval equals brute-force sort-and-trim oracle",
        mismatches == 0 and elapsed < 5.0,
        f"{1000 - mismatches}/1000 exact in {elapsed:.2f}s",
    )


def test_bootstrap_coverage_of_normal_median():
    t0 = time.perf_counter()
    hits = 0
    trials = 500
    for ss in np.random.SeedSequence(424242).spawn(trials):
        data = np.random.default_rng(ss).normal(5.0, 1.0, size=500)
        ci = bootstrap_ci(data, 0.99, 10_000)
        hits += ci.lower_pct <= 5.0 <= ci.upper_pct
    elapsed = time.perf_counter() - t0
    _report(
        "bootstrap 99% CI covers the true median",
        hits >= 0.98 * trials and elapsed < 120.0,
        f"covered in {hits}/{trials} trials, {elapsed:.0f}s",
    )


def test_simulated_ci_width_ordering_across_seeds():
    t0 = time.perf_counter()
    seeds = range(50)
    ordered = 0
    for seed in seeds:
        cfg = ExperimentConfig(repetitions=1500, instances=1, seed=seed, backend=SIM)
        widths = {r.strategy: r.ci.width_pp for r in run_experiment(cfg).results}
        ordered += widths[Strategy.DUET] < widths[Strategy.RMIT] < widths[Strategy.INDEPENDENT]
    elapsed = time.perf_counter() - t0
    _report(
        "CI width ordering duet < rmit < independent at 1500 repetitions",
        ordered >= 45 and elapsed < 300.0,
        f"ordered in {ordered}/50 seeds, {elapsed:.0f}s",
    )


def test_simulated_injected_regression_detected():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(50):
        cfg = ExperimentConfig(
            strategies=(Strategy.DUET,), repetitions=1500, instances=1, seed=seed,
            backend=SIM, regression_pct=5.0, threshold_pct=1.0,
        )
        (result,) = run_experiment(cfg).results
        hits += (
            result.ci.lower_pct <= 5.0 <= result.ci.upper_pct
            and result.verdict is Verdict.REGRESSION
        )
    elapsed = time.perf_counter() - t0
    _report(
        "duet 99% CI contains the injected +5% and flags a regression",
        hits >= 48 and elapsed < 300.0,  # >= 95% of 50 seeds
        f"detected in {hits}/50 seeds, {elapsed:.0f}s",
    )


# Binomial slack of the error-rate gate: three standard deviations of the number of a level-0.99 CI's misses in
# 200 gates, sqrt(200 * 0.01 * 0.99) = 1.41, rounded up. It bounds each one-sided error count and each miss count.
_GATES = 200
_SLACK = math.ceil(3 * math.sqrt(_GATES * 0.01 * 0.99))


def test_gate_error_rates_at_readme_defaults():
    # Exit 1 must mean a regression: a default gate (duet decides) at fixed seeds, A/A, near the 1 % threshold and
    # at +5 %. Independent's coverage is recorded only: it measures platform drift as much as the change.
    t0 = time.perf_counter()
    level = ExperimentConfig().ci_level
    errors, covered = {}, {}
    for pct in (0.0, 2.0, 5.0):
        wrong = EXIT_REGRESSION if pct == 0.0 else EXIT_PASS  # a CI that covers pct cannot give this exit
        errors[pct] = 0
        for seed in range(_GATES):
            report = run_experiment(ExperimentConfig(seed=seed, regression_pct=pct))
            errors[pct] += _VERDICT_EXIT[report.overall_verdict] == wrong
            for r in report.results:
                covered[r.strategy, pct] = covered.get((r.strategy, pct), 0) + (r.ci.lower_pct <= pct <= r.ci.upper_pct)
    elapsed = time.perf_counter() - t0
    most_errors = (1 - level) / 2 * _GATES + _SLACK
    least_covered = level * _GATES - _SLACK
    checked = [covered[s, pct] for s in (Strategy.DUET, Strategy.RMIT) for pct in errors]
    coverage = "; ".join(f"{s.value} {[covered[s, pct] for pct in errors]}" for s in Strategy)
    _report(
        "gate exit errors and CI coverage over 200 seeds at 0 %, +2 % and +5 %",
        max(errors.values()) <= most_errors and min(checked) >= least_covered,
        f"wrong exits {list(errors.values())} <= {most_errors:g}; covered {coverage} of {_GATES} "
        f"(duet and rmit >= {least_covered:g}); {elapsed:.1f}s",
    )


def test_small_sample_width_simulated():
    samples = _duet_pairs(seed=7, repetitions=101)  # first pair is cold-filtered
    assert len(samples) == 100
    ci = bootstrap_ci(samples, 0.99, 10_000)
    median = float(np.median(samples))
    bound = 0.02 * abs(median + 100.0)
    _report(
        "simulated duet with 100 pairs yields a narrow CI",
        ci.width_pp < bound,
        f"width {ci.width_pp:.3f} pp < {bound:.3f}",
    )


@requires_two_cores
def test_small_sample_width_live_duet():
    # Environment-sensitive: needs a quiet >= 2-core machine with fine-grained
    # per-thread CPU accounting. Soft-fails with a diagnostic otherwise.
    spec_a = make_workload(WorkloadKind.CPU_MUTATION, 480_000, "A")
    spec_b = make_workload(WorkloadKind.CPU_MUTATION, 480_000, "B")
    t0 = time.perf_counter()
    with DuetExecutor() as executor:
        live = LiveInstance(executor, 1)
        mset = run_duet((spec_a, spec_b), live, 100)
    samples = pair_measurements(filter_cold_starts(mset))
    ci = bootstrap_ci(samples, 0.99, 10_000)
    elapsed = time.perf_counter() - t0
    ok = ci.width_pp <= 2.0
    print(f"[acceptance] live duet A/A with 100 repetitions stays within 2 pp: "
          f"{'PASS' if ok else 'SOFT-FAIL'} (width {ci.width_pp:.2f} pp, {elapsed:.0f}s)")
    if not ok:
        pytest.xfail(
            f"environment-sensitive live check: CI width {ci.width_pp:.2f} pp > 2 pp "
            f"(CPU-time clock granularity {_cpu_tick_ms() * 1e3:#.3g} µs, shared host noise)"
        )


def _cpu_tick_ms() -> float:
    # observe the effective per-thread CPU clock quantum
    deltas = []
    for _ in range(5):
        start = time.thread_time_ns()
        while time.thread_time_ns() == start:
            pass
        deltas.append(time.thread_time_ns() - start)
    return min(deltas) / 1e6


def test_sweep_shape_and_small_sample_advantage():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        repetitions=1501, instances=1, seed=0, backend=SIM, resamples=2000,
        run_sweep=True, sweep_start=50, sweep_stop=1500, sweep_step=5,
    )
    report = run_experiment(cfg)
    points = {r.strategy.value: len(r.sweep) for r in report.results}
    sweeps = {r.strategy.value: dict(r.sweep) for r in report.results}

    duet_pairs = next(r.samples for r in report.results if r.strategy is Strategy.DUET)
    indep_pairs = next(r.samples for r in report.results if r.strategy is Strategy.INDEPENDENT)
    duet_100 = bootstrap_ci(duet_pairs[:100], 0.99, 10_000).width_pp
    indep_1500 = bootstrap_ci(indep_pairs[:1500], 0.99, 10_000).width_pp

    down = 0
    for seed in range(50):
        series = dict(sweep_sample_size(_duet_pairs(seed=seed, repetitions=101), 50, 100, 50, 0.99, 10_000))
        down += series[100] <= series[50]
    elapsed = time.perf_counter() - t0

    ok = (
        all(n == 291 for n in points.values())
        and down >= 40
        and duet_100 < indep_1500
    )
    _report(
        "sweep emits 291 points per strategy, duet narrows with n and beats independent early",
        ok,
        f"points {points}, width@100<=width@50 in {down}/50 seeds, "
        f"duet@100 {duet_100:.3f} < independent@1500 {indep_1500:.3f}, {elapsed:.0f}s",
    )


def test_rmit_order_uniformity_chi_square():
    trials = 10_000
    mset = run_rmit(_specs(), SimulatedInstance(VariabilityModel(), 20260810, 0), trials)
    ab = sum(1 for m in mset.measurements if m.version_label == "A" and m.order_position == 0)
    ba = trials - ab
    result = stats.chisquare([ab, ba])
    _report(
        "rmit order coin is uniform over 10000 trials",
        result.pvalue > 0.001,
        f"AB={ab}, BA={ba}, chi2 p={result.pvalue:.4f}",
    )


def test_end_to_end_determinism_byte_identical():
    t0 = time.perf_counter()
    blobs = []
    for _ in range(2):
        cfg = ExperimentConfig(repetitions=400, instances=2, seed=123, backend=SIM, resamples=2000)
        summary = summary_dict(run_experiment(cfg))
        summary.pop("run")  # timestamps excluded
        blobs.append(json.dumps(summary, sort_keys=True).encode())
    elapsed = time.perf_counter() - t0
    _report(
        "identical seed reproduces a byte-identical summary",
        blobs[0] == blobs[1] and elapsed < 60.0,
        f"{len(blobs[0])} bytes, {elapsed:.0f}s",
    )


def test_correlated_cancellation_exact_zero():
    model = VariabilityModel(duet_jitter_cv=0.0)  # fully shared draws
    samples = _duet_pairs(seed=5, repetitions=101, model=model)
    ci = bootstrap_ci(samples, 0.99, 10_000)
    ok = (
        len(samples) == 100
        and (samples == 0.0).all()
        and (ci.lower_pct, ci.upper_pct) == (0.0, 0.0)
    )
    _report(
        "fully shared duet draws cancel to exactly zero with CI [0, 0]",
        ok,
        f"{len(samples)} pairs, CI [{ci.lower_pct}, {ci.upper_pct}]",
    )
