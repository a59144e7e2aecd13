from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import requires_two_cores
from duetbench.analysis import filter_cold_starts
from duetbench.errors import PairingError
from duetbench.executor import DuetExecutor, Timing
from duetbench.harness import ExperimentConfig
from duetbench.measurement import CLOCKS, Backend, ClockMode, Strategy
from duetbench.simenv import VariabilityModel
from duetbench.strategies import (
    LiveInstance,
    MeasurementSet,
    SimulatedInstance,
    pair_measurements,
    run_duet,
    run_independent,
    run_rmit,
    run_strategy,
)
from duetbench.workloads import WorkloadKind, WorkResult, make_workload

SPECS = (
    make_workload(WorkloadKind.CPU_MUTATION, 50_000, "A"),
    make_workload(WorkloadKind.CPU_MUTATION, 50_000, "B"),
)
MODEL = VariabilityModel()


def sim_backend(seed=1, instance_id=0, model=MODEL):
    return SimulatedInstance(model, seed, instance_id=instance_id)


def test_independent_runs_all_a_then_all_b():
    mset = run_independent(SPECS, sim_backend(), 3)
    assert [m.version_label for m in mset.measurements] == ["A", "A", "A", "B", "B", "B"]
    assert len(mset.measurements) == 6
    assert [m.repetition for m in mset.measurements] == [0, 1, 2, 0, 1, 2]


def test_simulated_run_is_byte_identical_on_rerun():
    first = run_independent(SPECS, sim_backend(seed=7), 20)
    second = run_independent(SPECS, sim_backend(seed=7), 20)
    assert list(first) == list(second)


class _NoExecutor:
    """Fails any invocation: the checks under test must come before the first one."""

    def __getattr__(self, name):
        raise AssertionError(f"executor.{name} used")


def test_instances_require_a_seed():
    # SeedSequence(None) would draw fresh entropy: rmit's order, and the simulated lottery and noise, would not repeat
    with pytest.raises(ValueError, match="needs a seed"):
        LiveInstance(_NoExecutor(), None)
    with pytest.raises(ValueError, match="needs a seed"):
        SimulatedInstance(MODEL, None)


def test_rmit_single_trial_has_complementary_positions():
    mset = run_rmit(SPECS, sim_backend(seed=5), 1)
    assert len(mset.measurements) == 2
    assert {m.order_position for m in mset.measurements} == {0, 1}
    assert {m.version_label for m in mset.measurements} == {"A", "B"}
    assert all(m.repetition == 0 for m in mset.measurements)


def test_rmit_order_counts_within_binomial_bound():
    # 99.9% two-sided binomial bound for n=1000, p=0.5 is ~[448, 552];
    # the asserted window is deliberately looser.
    mset = run_rmit(SPECS, sim_backend(seed=11), 1000)
    ab = sum(
        1 for m in mset.measurements if m.version_label == "A" and m.order_position == 0
    )
    assert 430 <= ab <= 570


def test_rmit_identical_seed_gives_identical_order():
    def order_sequence(seed):
        mset = run_rmit(SPECS, sim_backend(seed=seed), 200)
        firsts = [m.version_label for m in mset.measurements if m.order_position == 0]
        return firsts

    assert order_sequence(13) == order_sequence(13)
    assert order_sequence(13) != order_sequence(14)  # astronomically unlikely to match


def test_duet_pairs_share_repetition_indices():
    mset = run_duet(SPECS, sim_backend(seed=3), 100)
    assert len(mset.measurements) == 200
    for rep in range(100):
        labels = {m.version_label for m in mset.measurements if m.repetition == rep}
        assert labels == {"A", "B"}


def test_duet_fully_shared_draws_cancel_exactly():
    model = VariabilityModel(duet_jitter_cv=0.0)
    mset = run_duet(SPECS, sim_backend(seed=9, model=model), 50)
    samples = pair_measurements(filter_cold_starts(mset))
    assert samples.size and (samples == 0.0).all()


def test_duplicate_version_labels_rejected():
    same = (SPECS[0], make_workload(WorkloadKind.CPU_MUTATION, 50_000, "A"))
    for runner in (run_independent, run_rmit, run_duet):
        with pytest.raises(ValueError, match="distinct labels"):
            runner(same, LiveInstance(_NoExecutor(), 1), 5)
    with pytest.raises(ValueError, match="distinct labels"):
        MeasurementSet(Strategy.DUET, ("A", "A"))


def test_pairing_arithmetic():
    mset = _set([0, 0, 1, 1, 0, 0], [1, 1, 0, 0, 0, 0], [0, 1, 0, 1, 0, 1], duration_ns=[100, 110, 100, 90, 100, 105])
    samples = pair_measurements(mset)
    assert samples.dtype == np.float64
    # (instance, repetition) order, whatever the row order
    assert samples.tolist() == [5.0, 10.0, -10.0]


def test_pairing_empty_set():
    samples = pair_measurements(MeasurementSet(Strategy.DUET, ("A", "B")))
    assert samples.dtype == np.float64 and samples.shape == (0,)


def test_pairing_missing_partner_raises():
    with pytest.raises(PairingError):
        pair_measurements(_set([0, 0, 0], [0, 0, 1], [0, 1, 0]))


def test_pairing_count_invariant():
    for strategy, runner in (
        (Strategy.INDEPENDENT, run_independent),
        (Strategy.RMIT, run_rmit),
        (Strategy.DUET, run_duet),
    ):
        mset = runner(SPECS, sim_backend(seed=21), 40)
        assert mset.strategy is strategy
        assert len(pair_measurements(mset)) == 40


def test_random_pairing_scheme_is_seeded_and_complete():
    mset = run_independent(SPECS, sim_backend(seed=2), 30)
    a = pair_measurements(mset, scheme="random", rng=np.random.default_rng(5))
    b = pair_measurements(mset, scheme="random", rng=np.random.default_rng(5))
    assert a.tobytes() == b.tobytes()
    assert len(a) == 30
    with pytest.raises(ValueError):
        pair_measurements(mset, scheme="nope")
    for rng in (None, 5):  # OS entropy, or one seed for every instance alike
        with pytest.raises(ValueError, match="needs a numpy.random.Generator"):
            pair_measurements(mset, scheme="random", rng=rng)


def test_simulated_cold_flags_first_instance_invocation():
    for strategy, runner in (
        (Strategy.INDEPENDENT, run_independent),
        (Strategy.RMIT, run_rmit),
        (Strategy.DUET, run_duet),
    ):
        mset = runner(SPECS, sim_backend(seed=17), 5)
        cold = [m for m in mset.measurements if m.cold]
        assert len(cold) == 1
        assert mset.measurements[0].cold


def test_clock_override_applies_to_all_measurements():
    mset = run_duet(SPECS, sim_backend(seed=1), 3, ClockMode.WALL_CLOCK)
    assert all(m.clock_mode is ClockMode.WALL_CLOCK for m in mset.measurements)
    cfg = ExperimentConfig(clock=ClockMode.WALL_CLOCK)
    for strategy in Strategy:
        mset = run_strategy(cfg, strategy, SPECS, sim_backend(seed=1), 3)
        assert all(m.clock_mode is ClockMode.WALL_CLOCK for m in mset.measurements)


class _RecordingExecutor:
    """Stands in for DuetExecutor: records the specs in worker order; worker i reports 1000 * (i + 1) ns."""

    def __init__(self):
        self.sent = []

    def duet_invoke(self, spec_a, spec_b, *, clock):
        self.sent.append((spec_a.version_label, spec_b.version_label))
        return tuple(Timing(1000 * (worker + 1), clock, WorkResult(checksum=ord(spec.version_label), units_done=worker))
                     for worker, spec in enumerate((spec_a, spec_b)))


def test_live_duet_alternates_the_baseline_worker():
    executor = _RecordingExecutor()
    mset = run_duet(SPECS, LiveInstance(executor, 0, instance_id=3), 4)
    assert executor.sent == [("A", "B"), ("B", "A"), ("A", "B"), ("B", "A")]
    pairs = list(zip(mset.measurements[::2], mset.measurements[1::2]))
    assert [(a.version_label, b.version_label) for a, b in pairs] == [("A", "B")] * 4
    assert [(a.repetition, b.repetition) for a, b in pairs] == [(r, r) for r in range(4)]
    assert [(a.duration_ns, b.duration_ns) for a, b in pairs] == [(1000, 2000), (2000, 1000)] * 2
    assert all(m.result.checksum == ord(m.version_label) and m.instance_id == 3 for m in mset.measurements)


@requires_two_cores
def test_work_results_identical_across_strategies_live():
    specs = (
        make_workload(WorkloadKind.MEM_SIEVE, 5000, "A"),
        make_workload(WorkloadKind.MEM_SIEVE, 5000, "B"),
    )
    checksums = {}
    with DuetExecutor() as executor:
        live = LiveInstance(executor, 50)
        for strategy in Strategy:
            mset = run_strategy(ExperimentConfig(backend=Backend.LIVE, seed=50), strategy, specs, live, 3)
            checksums[strategy] = {m.version_label: m.result.checksum for m in mset.measurements}
            assert all(not m.cold for m in mset.measurements)
    assert checksums[Strategy.INDEPENDENT] == checksums[Strategy.RMIT] == checksums[Strategy.DUET]


class _SoloRecorder:
    """Stands in for DuetExecutor's solo path: records each call; call i reports 1000 + i ns and checksum i.

    Its timings carry a foreign clock, which the set must not take.
    """

    def __init__(self):
        self.calls = []

    def solo_invoke(self, *args, **kwargs):
        i = len(self.calls)
        self.calls.append((args, kwargs))
        return Timing(1000 + i, ClockMode.CPU_TIME, WorkResult(i, 0))


@pytest.mark.parametrize("runner", [run_independent, run_rmit])
def test_live_solo_set_takes_its_layout_from_the_strategy(runner):
    executor = _SoloRecorder()
    mset = runner(SPECS, LiveInstance(executor, 11, instance_id=2), 6)
    layout = runner(SPECS, sim_backend(seed=11, instance_id=2), 6)  # the same instance's order stream
    assert executor.calls == [((SPECS[v], ClockMode.WALL_CLOCK), {}) for v in layout.version.tolist()]
    for name in ("version", "repetition", "order_position", "instance_id", "clock_mode"):
        assert getattr(mset, name).tolist() == getattr(layout, name).tolist(), name
    assert set(mset.instance_id.tolist()) == {2}
    assert set(mset.clock_mode.tolist()) == {CLOCKS.index(ClockMode.WALL_CLOCK)}
    assert mset.duration_ns.tolist() == list(range(1000, 1012))
    assert [m.result.checksum for m in mset] == list(range(12))
    assert not mset.cold.any()


def _set(instance_id, repetition, version, order_position=-1, clock_mode=0, duration_ns=None):
    n = len(version)
    return MeasurementSet(Strategy.RMIT, ("A", "B"), duration_ns=np.arange(1, n + 1) if duration_ns is None else duration_ns,
                          instance_id=instance_id, repetition=repetition, version=version, cold=np.zeros(n, bool),
                          order_position=np.broadcast_to(order_position, n), clock_mode=np.broadcast_to(clock_mode, n))


@pytest.mark.parametrize(("name", "rule", "value"), [
    *[("order_position", r"-1 \(none\), 0 or 1", v) for v in (257, -255, 2, -2)],
    *[("version", r"0 \(baseline\) or 1 \(candidate\)", v) for v in (257, -255, 2, -1)],
    *[("clock_mode", "an index into CLOCKS", v) for v in (257, -255, 2, -1)],
])
def test_codes_are_checked_before_they_narrow(name, rule, value):
    # int64 257 and -255 would wrap to 1 as int8; a version or clock out of range would break reading the row
    columns = {"version": [0, 1], "order_position": [-1, -1], "clock_mode": [0, 0], name: np.array([value, 0])}
    with pytest.raises(ValueError, match=rf"{name} must be {rule}, got {value}$"):
        _set([0, 0], [0, 0], **columns)


def test_columns_of_different_lengths_are_refused():
    with pytest.raises(ValueError, match="columns differ in length"):
        MeasurementSet(Strategy.DUET, ("A", "B"), duration_ns=[1])


def test_order_position_is_int8():
    mset = run_rmit(SPECS, sim_backend(seed=3), 10)
    assert mset.order_position.dtype == np.int8
    assert mset.order_position.tolist() == [0, 1] * 10


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 30)), unique=True, max_size=40), data=st.data())
def test_pair_order_in_place_matches_the_sort(keys, data):
    # Runs and archives hold pairs of one key in ascending key order; other sets take the sort, whole or not.
    keys = sorted(keys)
    n = 2 * len(keys)
    candidate_first = data.draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))  # rmit's coin
    inst, rep = (np.repeat(np.array([k[i] for k in keys], dtype=np.int64), 2) for i in (0, 1))
    version = np.array([(1, 0) if c else (0, 1) for c in candidate_first], dtype=np.int8).reshape(n)
    rows = list(range(n))
    change = data.draw(st.sampled_from(["none", "shuffle", "drop", "duplicate", "flip"]) if n else st.just("none"))
    if change == "shuffle":
        rows = data.draw(st.permutations(rows))
    elif change in ("drop", "duplicate", "flip"):
        i = data.draw(st.integers(0, n - 1))
        if change == "drop":  # odd length
            del rows[i]
        elif change == "duplicate":  # odd length, one key thrice
            rows.insert(i, i)
        else:  # a pair of two baselines or two candidates
            version[i] = 1 - version[i]
    mset = _set(inst[rows], rep[rows], version[rows])

    def outcome():
        try:
            return mset.pair_order().tolist()
        except PairingError as exc:
            return str(exc)

    in_place = outcome()
    with mock.patch.object(MeasurementSet, "_pairs_in_place", return_value=None):
        assert in_place == outcome()
    if change == "none":
        assert mset._pairs_in_place() is not None
