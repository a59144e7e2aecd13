from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duetbench.analysis
from conftest import make_measurement
from duetbench.analysis import (
    ConfidenceInterval,
    Verdict,
    bootstrap_ci,
    filter_cold_starts,
    percentile_interval,
    relative_change,
    sweep_sample_size,
    verdict,
)
from duetbench.errors import EmptySamplesError, InsufficientSamplesError, PairingError, SweepRangeError
from duetbench.measurement import Strategy
from duetbench.strategies import MeasurementSet


def oracle_interval(values, level):
    """Independent sort-and-trim oracle using exact decimal arithmetic."""
    ordered = sorted(values)
    k = math.floor(Fraction(len(ordered)) * (1 - Fraction(str(level))) / 2)
    trimmed = ordered[k : len(ordered) - k]
    return trimmed[0], trimmed[-1]


def test_relative_change_arithmetic():
    assert relative_change(100, 105) == 5.0
    assert relative_change(7, 7) == 0.0
    assert relative_change(200, 190) == -5.0
    with pytest.raises(ZeroDivisionError):
        relative_change(0, 5)


def test_percentile_interval_trimming_rule():
    ci = percentile_interval(list(range(1, 101)), 0.90)
    assert (ci.lower_pct, ci.upper_pct) == (6.0, 95.0)
    assert ci.width_pp == 89.0


def test_percentile_interval_singleton():
    ci = percentile_interval([7.0], 0.99)
    assert (ci.lower_pct, ci.upper_pct, ci.width_pp) == (7.0, 7.0, 0.0)


def test_percentile_interval_empty_and_bad_level():
    with pytest.raises(EmptySamplesError):
        percentile_interval([], 0.9)
    with pytest.raises(ValueError):
        percentile_interval([1.0], 1.0)


def test_percentile_interval_uniform_width_monte_carlo():
    rng = np.random.default_rng(1234)
    widths = [percentile_interval(rng.uniform(0, 1, 1000), 0.99).width_pp for _ in range(20)]
    assert abs(float(np.mean(widths)) - 0.99) <= 0.02


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=300),
    level=st.sampled_from([0.90, 0.95, 0.99]),
)
def test_percentile_matches_oracle(values, level):
    lo, hi = oracle_interval(values, level)
    ci = percentile_interval(values, level)
    assert (ci.lower_pct, ci.upper_pct) == (lo, hi)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=200))
def test_percentile_nesting(values):
    wide = percentile_interval(values, 0.99)
    narrow = percentile_interval(values, 0.95)
    assert wide.lower_pct <= narrow.lower_pct
    assert narrow.upper_pct <= wide.upper_pct


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=100),
    shift=st.floats(-1e3, 1e3, allow_nan=False),
    level=st.sampled_from([0.90, 0.95, 0.99]),
)
def test_percentile_shift_equivariance(values, shift, level):
    base = percentile_interval(values, level)
    moved = percentile_interval([v + shift for v in values], level)
    # bounds are sample elements, so the shift is exact
    assert moved.lower_pct == next(v + shift for v in values if v == base.lower_pct)
    assert moved.upper_pct == next(v + shift for v in values if v == base.upper_pct)


def test_bootstrap_degenerate_distribution():
    ci = bootstrap_ci([4.2] * 60, 0.99, 1000, rng=0)
    assert (ci.lower_pct, ci.upper_pct, ci.width_pp) == (4.2, 4.2, 0.0)


def test_bootstrap_seed_determinism():
    data = np.random.default_rng(7).normal(0, 1, 200)
    a = bootstrap_ci(data, 0.99, 2000, rng=42)
    b = bootstrap_ci(data, 0.99, 2000, rng=42)
    assert a == b


def test_bootstrap_preconditions():
    with pytest.raises(InsufficientSamplesError):
        bootstrap_ci(list(range(49)), 0.99, 1000, rng=0)
    with pytest.raises(EmptySamplesError):
        bootstrap_ci([], 0.99, 1000, rng=0, min_samples=0)
    with pytest.raises(ValueError):
        bootstrap_ci(list(range(100)), 0.99, 999, rng=0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([1.0] * 60 + [bad]), 0.99, 1000, rng=0)


def test_bootstrap_shift_equivariance_same_index_sequence():
    # odd sample count keeps every resample median a sample element, so the
    # shift moves both bounds exactly
    data = list(np.random.default_rng(3).normal(5, 2, 101))
    shift = 17.0
    a = bootstrap_ci(data, 0.95, 1000, rng=9)
    b = bootstrap_ci([v + shift for v in data], 0.95, 1000, rng=9)
    assert b.lower_pct == pytest.approx(a.lower_pct + shift, abs=1e-9)
    assert b.upper_pct == pytest.approx(a.upper_pct + shift, abs=1e-9)


def test_bootstrap_width_nonnegative_and_bounds_ordered():
    for seed in range(5):
        data = np.random.default_rng(seed).normal(0, 3, 120)
        ci = bootstrap_ci(data, 0.99, 1000, rng=seed)
        assert ci.lower_pct <= ci.upper_pct
        assert ci.width_pp >= 0.0


def gathered_median_ci(values, level, resamples, gen):
    """The float-gathering bootstrap: np.median of values[idx] in 2 000-row chunks."""
    values = np.asarray(values, dtype=float)
    medians = np.empty(resamples)
    for done in range(0, resamples, 2_000):
        chunk = min(2_000, resamples - done)
        idx = gen.integers(0, values.size, size=(chunk, values.size))
        medians[done : done + chunk] = np.median(values[idx], axis=1)
    return percentile_interval(medians, level)


def _bits(ci):
    return np.array([ci.lower_pct, ci.upper_pct]).view(np.int64).tolist()


@pytest.mark.parametrize("n, data, level, resamples", [
    (50, "normal", 0.99, 10_000),
    (51, "normal", 0.95, 1_001),
    (1_500, "ties", 0.99, 1_001),
    (1_501, "normal", 0.9, 1_000),
    (60, "equal", 0.95, 1_000),
    (32_767, "normal", 0.99, 1_000),
    (32_768, "ties", 0.9, 1_000),
])
def test_bootstrap_matches_gathered_median_bit_for_bit(n, data, level, resamples):
    values = np.random.default_rng(n).normal(0.5, 3.0, n)
    if data == "ties":
        values = np.round(values, 1)
    elif data == "equal":
        values = np.full(n, -2.75)
    got = bootstrap_ci(values, level, resamples, np.random.default_rng(11))
    want = gathered_median_ci(values, level, resamples, np.random.default_rng(11))
    assert _bits(got) == _bits(want)


def test_bootstrap_consumes_a_shared_generator_like_the_gather():
    # sweep_sample_size hands one Generator to consecutive calls
    values = np.random.default_rng(5).normal(0, 2, 1_501)
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    for n in (1_500, 1_501):
        got = bootstrap_ci(values[:n], 0.99, 1_001, ours)
        assert _bits(got) == _bits(gathered_median_ci(values[:n], 0.99, 1_001, theirs))
    assert ours.integers(1 << 62) == theirs.integers(1 << 62)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=50, max_size=300))
def test_bootstrap_matches_gathered_median_on_any_finite_data(values):
    with np.errstate(over="ignore"):
        got = bootstrap_ci(values, 0.95, 1_000, np.random.default_rng(0))
        want = gathered_median_ci(values, 0.95, 1_000, np.random.default_rng(0))
    # == and not _bits: with both -0.0 and +0.0 present, which zero a
    # partition lands on is the sort's choice, and the two zeros are equal
    assert (got.lower_pct, got.upper_pct) == (want.lower_pct, want.upper_pct)
    if not any(v == 0.0 and math.copysign(1.0, v) < 0 for v in values):
        assert _bits(got) == _bits(want)


def test_bootstrap_chunk_size_does_not_change_bounds(monkeypatch):
    values = np.random.default_rng(2).normal(0, 1, 80)
    default = bootstrap_ci(values, 0.99, 1_000, rng=4)
    monkeypatch.setattr(duetbench.analysis, "_CHUNK_BYTES", 1)  # one row per chunk
    assert _bits(bootstrap_ci(values, 0.99, 1_000, rng=4)) == _bits(default)


def test_bootstrap_memory_stays_small_at_large_n():
    values = np.random.default_rng(8).normal(0, 1, 8_000)
    tracemalloc.start()
    try:
        bootstrap_ci(values, 0.99, 1_000, rng=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_sweep_point_counts_and_prefix_semantics():
    data = list(np.random.default_rng(0).normal(0, 1, 200))
    series = sweep_sample_size(data, 50, 200, 50, 0.95, 1000, rng=1)
    assert [n for n, _ in series] == [50, 100, 150, 200]
    single = sweep_sample_size(data, 50, 50, 5, 0.95, 1000, rng=1)
    assert len(single) == 1 and single[0][0] == 50


def test_sweep_errors():
    data = list(range(100))
    with pytest.raises(ValueError):
        sweep_sample_size(data, 50, 100, 0, 0.95, 1000, rng=0)
    with pytest.raises(SweepRangeError):
        sweep_sample_size(data, 50, 101, 5, 0.95, 1000, rng=0)
    with pytest.raises(InsufficientSamplesError):
        sweep_sample_size(data, 10, 100, 5, 0.95, 1000, rng=0)
    with pytest.raises(SweepRangeError):
        sweep_sample_size(data, 90, 60, 5, 0.95, 1000, rng=0)


def test_verdict_rules():
    assert verdict(ConfidenceInterval(4.8, 5.2, 0.99), 1.0) is Verdict.REGRESSION
    assert verdict(ConfidenceInterval(-0.1, 0.1, 0.99), 1.0) is Verdict.PASS
    assert verdict(ConfidenceInterval(0.5, 1.5, 0.99), 1.0) is Verdict.INCONCLUSIVE


def _mset(measurements):
    return MeasurementSet.from_rows(Strategy.DUET, ("A", "B"), measurements)


def test_filter_cold_starts_drops_pairs_whole():
    ms = []
    for rep in range(100):
        ms.append(make_measurement(100, "A", repetition=rep, cold=rep in (0, 5)))
        ms.append(make_measurement(105, "B", repetition=rep))
    filtered = filter_cold_starts(_mset(ms))
    reps = {m.repetition for m in filtered.measurements}
    assert len(filtered.measurements) == 196
    assert len(reps) == 98 and 0 not in reps and 5 not in reps


def test_filter_cold_starts_identity_without_cold():
    ms = [make_measurement(100, v, repetition=r) for r in range(10) for v in "AB"]
    filtered = filter_cold_starts(_mset(ms))
    assert list(filtered.measurements) == ms


def test_filter_cold_starts_all_cold_gives_empty():
    ms = [make_measurement(100, v, repetition=r, cold=True) for r in range(4) for v in "AB"]
    assert list(filter_cold_starts(_mset(ms)).measurements) == []


@pytest.mark.parametrize("broken", [
    pytest.param(lambda ms: ms[:-1], id="unpaired"),
    pytest.param(lambda ms: ms + ms[-2:-1], id="duplicate"),
    pytest.param(lambda ms: ms[:-1] + [make_measurement(100, "C", repetition=3)], id="foreign-label"),
])
def test_filter_cold_starts_refuses_broken_cold_pairs(broken):
    # repetition 3 is cold; pairing never sees its rows, so the filter checks them
    ms = [make_measurement(100, v, repetition=r, cold=r == 3) for r in range(4) for v in "AB"]
    with pytest.raises(PairingError, match=r"\(0, 3\)|duplicate"):
        filter_cold_starts(_mset(broken(ms)))


@pytest.mark.parametrize("cold_reps", [pytest.param((), id="no-cold"), pytest.param((0,), id="rep-0-cold")])
def test_filter_cold_starts_refuses_any_broken_pair(cold_reps):
    # repetition 3 is warm and lacks its candidate; the filter checks every pair, not only cold ones
    ms = [make_measurement(100, v, repetition=r, cold=r in cold_reps) for r in range(4) for v in "AB"]
    with pytest.raises(PairingError, match=r"\(0, 3\)"):
        filter_cold_starts(_mset(ms[:-1]))


def test_confidence_interval_invariants():
    with pytest.raises(ValueError):
        ConfidenceInterval(2.0, 1.0, 0.99)
    with pytest.raises(ValueError):
        ConfidenceInterval(0.0, 1.0, 0.0)
    ci = ConfidenceInterval(-1.5, 2.5, 0.95)
    assert ci.width_pp == 4.0

