from __future__ import annotations

import bisect
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ci_reference
from ci_reference import percentile_interval
from duetbench import analysis
from duetbench.analysis import (
    ConfidenceInterval,
    Verdict,
    _first_true,
    _log_factorials,
    bootstrap_ci,
    filter_cold_starts,
    relative_change,
    verdict,
)
from duetbench.errors import EmptySamplesError, InsufficientSamplesError, PairingError
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
    ci = bootstrap_ci([4.2] * 60, 0.99, 1000)
    assert (ci.lower_pct, ci.upper_pct, ci.width_pp) == (4.2, 4.2, 0.0)


def test_bootstrap_seed_determinism():
    # no resample is drawn, so the bounds depend on the data alone: not on a seed, a call or `resamples`
    data = np.random.default_rng(7).normal(0, 1, 200)
    a = bootstrap_ci(data, 0.99, 2000)
    assert bootstrap_ci(data, 0.99, 2000) == a == bootstrap_ci(data, 0.99, 1_000_000)


def test_bootstrap_preconditions():
    with pytest.raises(InsufficientSamplesError):
        bootstrap_ci(list(range(49)), 0.99, 1000)
    with pytest.raises(EmptySamplesError):
        bootstrap_ci([], 0.99, 1000, min_samples=0)
    with pytest.raises(ValueError):
        bootstrap_ci(list(range(100)), 0.99, 999)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([1.0] * 60 + [bad]), 0.99, 1000)
    for level in (0.0, 1.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match="level must lie in"):
            bootstrap_ci(list(range(100)), level, 1000)


def test_bootstrap_shift_equivariance_same_index_sequence():
    # odd sample count keeps every resample median a sample element, so the
    # shift moves both bounds exactly
    data = list(np.random.default_rng(3).normal(5, 2, 101))
    shift = 17.0
    a = bootstrap_ci(data, 0.95, 1000)
    b = bootstrap_ci([v + shift for v in data], 0.95, 1000)
    assert b.lower_pct == pytest.approx(a.lower_pct + shift, abs=1e-9)
    assert b.upper_pct == pytest.approx(a.upper_pct + shift, abs=1e-9)


def test_bootstrap_width_nonnegative_and_bounds_ordered():
    for seed in range(5):
        data = np.random.default_rng(seed).normal(0, 3, 120)
        ci = bootstrap_ci(data, 0.99, 1000)
        assert ci.lower_pct <= ci.upper_pct
        assert ci.width_pp >= 0.0


def _bits(ci):
    return np.array([ci.lower_pct, ci.upper_pct]).view(np.int64).tolist()


def _every_resample_median(values):
    """np.median of each of the n**n resamples of `values`, one leading draw at a time."""
    n = len(values)
    rest = np.indices((n,) * (n - 1)).reshape(n - 1, -1).T
    return np.concatenate([np.median(values[np.column_stack([np.full(len(rest), first), rest])], axis=1)
                           for first in range(n)])


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("data", ["distinct", "ties"])
def test_bootstrap_equals_the_trimmed_medians_of_every_resample(n, data):
    # The exact CI is the percentile bootstrap over all n**n equally likely resamples, bit for bit, at every
    # level whose tail holds a whole number of them.
    values = np.random.default_rng(n).normal(0.5, 3.0, n)
    if data == "ties":
        values = np.round(values)[[0, 0, *range(2, n)]]  # a pair of equal values, and whatever rounding ties
    medians = _every_resample_median(values)
    for share in (0.25, 0.05, 0.005, 0.001):
        tail = max(1, round(n**n * share))  # resamples trimmed from each end
        level = 1 - 2 * tail / n**n
        want = percentile_interval(medians, level)
        got = bootstrap_ci(values, level, 1000, min_samples=1)
        assert _bits(got) == _bits(want), (share, level)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, 1.0]), min_size=50, max_size=400),
       seed=st.integers(0, 2**32 - 1), level=st.sampled_from([0.90, 0.95, 0.99]))
def test_bootstrap_bounds_do_not_change_when_the_samples_are_permuted(values, seed, level):
    shuffled = np.random.default_rng(seed).permutation(values)
    got, want = bootstrap_ci(shuffled, level, 1000), bootstrap_ci(values, level, 1000)
    # == and not _bits: with both -0.0 and +0.0 present, which of the equal zeros sorts first is the order's choice
    assert (got.lower_pct, got.upper_pct) == (want.lower_pct, want.upper_pct)
    if not any(v == 0.0 and math.copysign(1.0, v) < 0 for v in values):
        assert _bits(got) == _bits(want)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(50, 20_000), seed=st.integers(0, 2**32 - 1), data=st.sampled_from(["normal", "ties", "zeros"]),
       level=st.floats(0.80, 0.999))
@example(n=20_000, seed=1, data="normal", level=0.99)
@example(n=19_999, seed=2, data="ties", level=0.999)
@example(n=8_000, seed=3, data="zeros", level=0.80)
def test_bootstrap_equals_the_reference_bit_for_bit(n, seed, data, level):
    gen = np.random.default_rng(seed)
    values = gen.normal(0.5, 3.0, n)
    if data == "ties":
        values = np.round(values)
    elif data == "zeros":  # mostly -0.0 and +0.0, the rest ties at -1 and 1
        values = np.round(values / 6) * gen.choice([-1.0, 1.0], n)
    got = bootstrap_ci(values, level, 1000)
    # the same input sorts the same way in both, so even the sign of a zero bound agrees: _bits, not ==
    assert _bits(got) == np.array(ci_reference.bootstrap_ci(values, level)).view(np.int64).tolist()


_LEVELS = (0.80, 0.90, 0.95, 0.99, 0.999)


@pytest.mark.parametrize("n", [1496, 1497, 7992, 7993])  # the benchmark's sizes after cold filtering
@pytest.mark.parametrize("data", ["normal", "ties", "zeros"])
def test_bootstrap_equals_the_reference_at_the_benchmark_sizes_in_a_few_probes(n, data, monkeypatch):
    gen = np.random.default_rng(n)
    values = gen.normal(0.5, 3.0, n)
    if data == "ties":
        values = np.round(values)
    elif data == "zeros":  # mostly -0.0 and +0.0, the rest ties at -1 and 1
        values = np.round(values / 6) * gen.choice([-1.0, 1.0], n)
    probes = _count_probes(monkeypatch)
    for level in _LEVELS:
        got = bootstrap_ci(values, level, 1000)
        assert _bits(got) == np.array(ci_reference.bootstrap_ci(values, level)).view(np.int64).tolist(), level
    # Each bound's search over the order statistics starts at its normal guess and computes F at 2 or 3
    # values, where bisecting all of x took about log2(n), 11 to 13; it asks no value twice, ties or not.
    assert len(probes) == 2 * len(_LEVELS) and max(map(len, probes)) <= 3, probes
    assert all(len(set(asked)) == len(asked) for asked in probes), probes


@pytest.mark.parametrize("n", [1496, 7992])
@pytest.mark.parametrize("data", ["normal", "ties", "zeros"])
def test_an_even_n_bound_computes_f_a_few_times_in_its_last_gap(n, data, monkeypatch):
    gen = np.random.default_rng(n)
    values = gen.normal(0.5, 3.0, n)
    if data == "ties":
        values = np.round(values)
    elif data == "zeros":  # mostly -0.0 and +0.0, the rest ties at -1 and 1
        values = np.round(values / 6) * gen.choice([-1.0, 1.0], n)
    keys = []
    probes = _count_probes(monkeypatch, keys)
    for level in _LEVELS:
        got = bootstrap_ci(values, level, 1000)
        assert _bits(got) == np.array(ci_reference.bootstrap_ci(values, level)).view(np.int64).tolist(), level
    # F is computed at the order statistics' probes, then by bisection over the last gap's pair means: at most
    # ceil(log2(m + 1)) more values for m means, 8 here; a tied gap holds few means or none.
    in_gap = [key.cache_info().misses - len(asked) for key, asked in zip(keys, probes)]
    assert len(keys) == 2 * len(_LEVELS) and 0 <= min(in_gap) and max(in_gap) <= 8, in_gap


def _count_probes(monkeypatch, keys=None):
    """The values each `_first_true` search asks its key, one list per search, from now on.

    Each search's key also goes to `keys` when given: a bound's memoised key, whose cache misses count the values at
    which the bound computes F, in its search over the order statistics and in any bisection of its last gap."""
    probes = []

    def counted(key, x, guess):
        probes.append([])
        if keys is not None:
            keys.append(key)
        return _first_true(lambda v: probes[-1].append(float(v)) or key(v), x, guess)

    monkeypatch.setattr(analysis, "_first_true", counted)
    return probes


@pytest.mark.parametrize("n", [1496, 1497, 7992, 7993])
@pytest.mark.parametrize("distinct", [2, 3, 21])
def test_heavily_tied_samples_give_the_reference_bounds_in_two_probes_a_bound(n, distinct, monkeypatch):
    # Runs of one value hundreds long: a probe inside one moves the search past the whole run. Stepping one index at
    # a time from the normal guess asked 14 to 22 values per bound at n = 7 993 (np.round of N(0.5, 3), 21 values).
    values = np.random.default_rng(n).integers(0, distinct, n) * 0.5 - 1.0
    probes = _count_probes(monkeypatch)
    for level in _LEVELS:
        got = bootstrap_ci(values, level, 1000)
        assert _bits(got) == np.array(ci_reference.bootstrap_ci(values, level)).view(np.int64).tolist(), level
    assert len(probes) == 2 * len(_LEVELS) and max(map(len, probes)) <= 2, probes


@pytest.mark.parametrize("n", range(1, 50))
def test_bootstrap_equals_the_reference_below_the_minimum_sample_size(n):
    values = np.random.default_rng(n).normal(0.5, 3.0, n)
    for level in (0.50, *_LEVELS):
        got = bootstrap_ci(values, level, 1000, min_samples=1)
        assert _bits(got) == np.array(ci_reference.bootstrap_ci(values, level)).view(np.int64).tolist(), level


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 400))
def test_first_true_is_bisect_left_in_few_calls_from_any_guess(data, n):
    run = data.draw(st.integers(1, n), "run")  # x holds runs of `run` equal values; 1: all distinct
    x = (np.arange(n) // run).astype(float)
    switch = data.draw(st.integers(0, n - 1), "switch")  # n - 1: all False but the last run
    guess = data.draw(st.integers(-2 * n - 5, 2 * n + 5), "guess")  # out of range on either side too
    asked = []

    def key(v):
        asked.append(float(v))
        return v >= x[switch]

    first = int(np.searchsorted(x, x[switch]))
    assert _first_true(key, x, guess) == bisect.bisect_left(x, True, key=lambda v: v >= x[switch]) == first
    assert x[-1] not in asked or x[-2] == x[-1]  # key(x[n - 1]) is known to hold and asked only at n - 2
    assert len(set(asked)) == len(asked)  # an answer holds over the value's whole run
    distance = abs(first - min(max(guess, 0), n - 2))
    assert len(asked) <= 2 * math.log2(distance + 1) + 2, (asked, distance)


def test_log_factorial_table_grows_only_to_the_largest_n(monkeypatch):
    empty = np.zeros(0)
    empty.flags.writeable = False
    monkeypatch.setattr(analysis, "_LOG_FACT", empty)
    values = np.random.default_rng(9).normal(0, 1, 16_000)
    bootstrap_ci(values, 0.99, 1000)
    bootstrap_ci(values[:60], 0.99, 1000)
    table = analysis._LOG_FACT
    assert not table.flags.writeable and not _log_factorials(60).flags.writeable
    assert table.size == 16_001  # log k! for k = 0..16 000, the largest n asked for
    assert table.tolist() == [math.lgamma(k + 1) for k in range(16_001)]


def test_log_factorial_table_keeps_every_growth_under_threads(monkeypatch):
    empty = np.zeros(0)
    empty.flags.writeable = False
    monkeypatch.setattr(analysis, "_LOG_FACT", empty)
    sizes = [[(w * 37 + j * 101) % 3000 for j in range(40)] for w in range(8)]
    wrong = []

    def grow(ns):
        for n in ns:
            if _log_factorials(n).size != n + 1:
                wrong.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=grow, args=(ns,)) for ns in sizes]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and not wrong
    # a smaller table stored over a larger one (a lost update) would leave it short of the largest n
    assert analysis._LOG_FACT.tolist() == [math.lgamma(k + 1) for k in range(max(map(max, sizes)) + 1)]


def gathered_median_ci(values, level, resamples, gen):
    """The Monte Carlo bootstrap: np.median of values[idx] in 2 000-row chunks."""
    values = np.asarray(values, dtype=float)
    medians = np.empty(resamples)
    for done in range(0, resamples, 2_000):
        chunk = min(2_000, resamples - done)
        idx = gen.integers(0, values.size, size=(chunk, values.size))
        medians[done : done + chunk] = np.median(values[idx], axis=1)
    return percentile_interval(medians, level)


@pytest.mark.parametrize("n, data", [(100, "normal"), (101, "normal"), (100, "ties")])
def test_bootstrap_lies_within_seeded_monte_carlo_bounds(n, data):
    values = np.random.default_rng(n).normal(0.5, 3.0, n)
    if data == "ties":
        values = np.round(values)
    exact = bootstrap_ci(values, 0.99, 10_000)
    runs = [gathered_median_ci(values, 0.99, 10_000, np.random.default_rng(seed)) for seed in range(20)]
    assert min(r.lower_pct for r in runs) <= exact.lower_pct <= max(r.lower_pct for r in runs)
    assert min(r.upper_pct for r in runs) <= exact.upper_pct <= max(r.upper_pct for r in runs)


def test_bootstrap_memory_stays_small_at_large_n():
    values = np.random.default_rng(8).normal(0, 1, 8_000)
    tracemalloc.start()
    try:
        bootstrap_ci(values, 0.99, 1_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_verdict_rules():
    assert verdict(ConfidenceInterval(4.8, 5.2, 0.99), 1.0) is Verdict.REGRESSION
    assert verdict(ConfidenceInterval(-0.1, 0.1, 0.99), 1.0) is Verdict.PASS
    assert verdict(ConfidenceInterval(0.5, 1.5, 0.99), 1.0) is Verdict.INCONCLUSIVE


def _pairs(reps, cold_reps=(), cold_versions=(0, 1)):
    """`reps` whole duet pairs on one instance, baseline 100 ns and candidate 105 ns; the named versions of the
    named repetitions are cold."""
    repetition, version = np.repeat(np.arange(reps), 2), np.tile([0, 1], reps)
    return MeasurementSet(Strategy.DUET, ("A", "B"), duration_ns=100 + 5 * version, instance_id=np.zeros(2 * reps, int),
                          repetition=repetition, version=version,
                          cold=np.isin(repetition, cold_reps) & np.isin(version, cold_versions),
                          order_position=np.full(2 * reps, -1), clock_mode=np.zeros(2 * reps, int))


def test_filter_cold_starts_drops_pairs_whole():
    filtered = filter_cold_starts(_pairs(100, cold_reps=(0, 5), cold_versions=(0,)))
    reps = set(filtered.repetition.tolist())
    assert len(filtered.measurements) == 196
    assert len(reps) == 98 and 0 not in reps and 5 not in reps


def test_filter_cold_starts_identity_without_cold():
    mset = _pairs(10)
    assert list(filter_cold_starts(mset).measurements) == list(mset)


def test_filter_cold_starts_all_cold_gives_empty():
    assert list(filter_cold_starts(_pairs(4, cold_reps=range(4))).measurements) == []


@pytest.mark.parametrize("broken", [
    pytest.param(lambda mset: mset[:-1], id="unpaired"),
    pytest.param(lambda mset: mset[np.r_[: len(mset), len(mset) - 2]], id="duplicate"),
])
def test_filter_cold_starts_refuses_broken_cold_pairs(broken):
    # repetition 3 is cold; pairing never sees its rows, so the filter checks them
    with pytest.raises(PairingError, match=r"\(0, 3\)|duplicate"):
        filter_cold_starts(broken(_pairs(4, cold_reps=(3,))))


@pytest.mark.parametrize("cold_reps", [pytest.param((), id="no-cold"), pytest.param((0,), id="rep-0-cold")])
def test_filter_cold_starts_refuses_any_broken_pair(cold_reps):
    # repetition 3 is warm and lacks its candidate; the filter checks every pair, not only cold ones
    with pytest.raises(PairingError, match=r"\(0, 3\)"):
        filter_cold_starts(_pairs(4, cold_reps=cold_reps)[:-1])


def test_confidence_interval_invariants():
    with pytest.raises(ValueError):
        ConfidenceInterval(2.0, 1.0, 0.99)
    with pytest.raises(ValueError):
        ConfidenceInterval(0.0, 1.0, 0.0)
    ci = ConfidenceInterval(-1.5, 2.5, 0.95)
    assert ci.width_pp == 4.0

