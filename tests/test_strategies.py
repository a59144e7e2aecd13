from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import requires_two_cores
from duetbench import strategies
from duetbench.analysis import filter_cold_starts
from duetbench.errors import PairingError
from duetbench.executor import CorePlan, DuetExecutor, Timing
from duetbench.harness import ExperimentConfig, run_experiment
from duetbench.measurement import CLOCKS, Backend, ClockMode, Strategy
from duetbench.simenv import VariabilityModel
from duetbench.strategies import (
    LiveInstance,
    MeasurementSet,
    SimulatedInstance,
    open_instances,
    pair_measurements,
    run_strategy,
)
from duetbench.workloads import WorkloadKind, WorkloadSpec, WorkResult

SPECS = (
    WorkloadSpec(WorkloadKind.CPU_MUTATION, 50_000, "A"),
    WorkloadSpec(WorkloadKind.CPU_MUTATION, 50_000, "B"),
)
MODEL = VariabilityModel()


def run(strategy, repetitions, seed=1, executor=None, **settings):
    """`strategy` over one instance (unless `settings` say otherwise) of the workload of SPECS."""
    cfg = ExperimentConfig(repetitions=repetitions, seed=seed, **{"instances": 1, "scale": 50_000, **settings})
    return run_strategy(cfg, strategy, open_instances(cfg, executor))


def test_independent_runs_all_a_then_all_b():
    executor = _SoloRecorder()
    mset = run(Strategy.INDEPENDENT, 3, executor=executor)
    assert [args[0].version_label for args, _ in executor.calls] == ["A", "A", "A", "B", "B", "B"]
    # the set holds the rows by repetition
    assert [m.version_label for m in mset.measurements] == ["A", "B"] * 3
    assert [m.repetition for m in mset.measurements] == [0, 0, 1, 1, 2, 2]
    assert mset.duration_ns.tolist() == [1000, 1003, 1001, 1004, 1002, 1005]


def test_simulated_run_is_byte_identical_on_rerun():
    first = run(Strategy.INDEPENDENT, 20, seed=7, instances=3)
    second = run(Strategy.INDEPENDENT, 20, seed=7, instances=3)
    assert list(first) == list(second)


def test_a_gate_opens_each_instance_once_and_each_strategy_starts_it_afresh(monkeypatch):
    # Streams are keyed by instance alone: a gate derives them once, not once per strategy as well, and each
    # strategy runs from the state they opened in, so it gets the set it gets on instances of its own.
    opened = []
    streams = strategies._instance_streams
    monkeypatch.setattr(strategies, "_instance_streams", lambda *key: opened.append(key) or streams(*key))
    cfg = ExperimentConfig(seed=7, repetitions=301, instances=4, scale=50_000, resamples=1000)
    report = run_experiment(cfg)
    assert opened == [(7, i) for i in range(4)]
    for result in report.results:
        assert list(result.measurements) == list(run_strategy(cfg, result.strategy, open_instances(cfg)))
    instances = open_instances(cfg)  # rmit's order stream starts afresh too
    assert list(run_strategy(cfg, Strategy.RMIT, instances)) == list(run_strategy(cfg, Strategy.RMIT, instances))


class _NoExecutor:
    """Fails any invocation: the checks under test must come before the first one."""

    def __getattr__(self, name):
        raise AssertionError(f"executor.{name} used")


def test_instances_require_a_seed():
    # SeedSequence(None) would draw fresh entropy: rmit's order, and the simulated lottery and noise, would not repeat
    with pytest.raises(ValueError, match="needs a seed"):
        LiveInstance(_NoExecutor(), None, 0)
    with pytest.raises(ValueError, match="needs a seed"):
        SimulatedInstance(MODEL, None, 0)


def test_rmit_single_trial_has_complementary_positions():
    mset = run(Strategy.RMIT, 1, seed=5)
    assert len(mset.measurements) == 2
    assert {m.order_position for m in mset.measurements} == {0, 1}
    assert {m.version_label for m in mset.measurements} == {"A", "B"}
    assert all(m.repetition == 0 for m in mset.measurements)


def test_rmit_order_counts_within_binomial_bound():
    # 99.9% two-sided binomial bound for n=1000, p=0.5 is ~[448, 552];
    # the asserted window is deliberately looser.
    mset = run(Strategy.RMIT, 1000, seed=11)
    ab = sum(
        1 for m in mset.measurements if m.version_label == "A" and m.order_position == 0
    )
    assert 430 <= ab <= 570


def test_rmit_identical_seed_gives_identical_order():
    def order_sequence(seed):
        mset = run(Strategy.RMIT, 200, seed=seed)
        firsts = [m.version_label for m in mset.measurements if m.order_position == 0]
        return firsts

    assert order_sequence(13) == order_sequence(13)
    assert order_sequence(13) != order_sequence(14)  # astronomically unlikely to match


def test_duet_pairs_share_repetition_indices():
    mset = run(Strategy.DUET, 100, seed=3)
    assert len(mset.measurements) == 200
    for rep in range(100):
        labels = {m.version_label for m in mset.measurements if m.repetition == rep}
        assert labels == {"A", "B"}


def test_duet_fully_shared_draws_cancel_exactly():
    mset = run(Strategy.DUET, 50, seed=9, model=VariabilityModel(duet_jitter_cv=0.0))
    samples = pair_measurements(filter_cold_starts(mset), None)
    assert samples.size and (samples == 0.0).all()


def test_duplicate_version_labels_rejected():
    # a runner never sees them: its config refuses them (tests/test_harness.py::test_config_validation)
    with pytest.raises(ValueError, match="distinct labels"):
        MeasurementSet(Strategy.DUET, ("A", "A"))


def test_pairing_arithmetic():
    mset = _set([0, 0, 1, 1, 0, 0], [1, 1, 0, 0, 0, 0], [0, 1, 0, 1, 0, 1], duration_ns=[100, 110, 100, 90, 100, 105])
    samples = pair_measurements(mset, None)
    assert samples.dtype == np.float64
    # (instance, repetition) order, whatever the row order
    assert samples.tolist() == [5.0, 10.0, -10.0]


def test_pairing_empty_set():
    samples = pair_measurements(MeasurementSet(Strategy.DUET, ("A", "B")), None)
    assert samples.dtype == np.float64 and samples.shape == (0,)


def test_pairing_missing_partner_raises():
    with pytest.raises(PairingError):
        pair_measurements(_set([0, 0, 0], [0, 0, 1], [0, 1, 0]), None)


def test_pairing_count_invariant():
    for strategy in Strategy:
        mset = run(strategy, 40, seed=21, instances=3)
        assert mset.strategy is strategy
        assert len(pair_measurements(mset, None)) == 40


def test_random_pairing_scheme_is_seeded_and_complete():
    mset = run(Strategy.INDEPENDENT, 30, seed=2)
    a = pair_measurements(mset, 5)
    b = pair_measurements(mset, 5)
    assert a.tobytes() == b.tobytes()
    assert len(a) == 30


def test_simulated_cold_flags_first_instance_invocation():
    for strategy in Strategy:
        mset = run(strategy, 5, seed=17)
        cold = [m for m in mset.measurements if m.cold]
        assert len(cold) == 1
        assert mset.measurements[0].cold


def test_clock_override_applies_to_all_measurements():
    for strategy in Strategy:
        mset = run(strategy, 3, clock=ClockMode.WALL_CLOCK)
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
    mset = run(Strategy.DUET, 4, seed=0, executor=executor)
    assert executor.sent == [("A", "B"), ("B", "A"), ("A", "B"), ("B", "A")]
    pairs = list(zip(mset.measurements[::2], mset.measurements[1::2]))
    assert [(a.version_label, b.version_label) for a, b in pairs] == [("A", "B")] * 4
    assert [(a.repetition, b.repetition) for a, b in pairs] == [(r, r) for r in range(4)]
    assert [(a.duration_ns, b.duration_ns) for a, b in pairs] == [(1000, 2000), (2000, 1000)] * 2
    assert all(m.result.checksum == ord(m.version_label) and m.instance_id == 0 for m in mset.measurements)


@requires_two_cores
def test_work_results_identical_across_strategies_live():
    checksums = {}
    with DuetExecutor(CorePlan(0, 1)) as executor:
        for strategy in Strategy:
            mset = run(strategy, 3, seed=50, executor=executor, backend=Backend.LIVE, workload=WorkloadKind.MEM_SIEVE,
                       scale=5000)
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


@pytest.mark.parametrize("strategy", [Strategy.INDEPENDENT, Strategy.RMIT])
def test_live_solo_set_takes_its_layout_from_the_strategy(strategy):
    executor = _SoloRecorder()
    mset = run(strategy, 6, seed=11, executor=executor, instances=3)
    layout = run(strategy, 6, seed=11, instances=3)  # the same instances' order streams
    ran = np.argsort(mset.duration_ns)  # the rows in the order they ran: call i reports 1000 + i ns
    assert executor.calls == [((SPECS[v], ClockMode.WALL_CLOCK), {}) for v in mset.version[ran].tolist()]
    for name in ("version", "repetition", "order_position", "instance_id", "clock_mode"):
        assert getattr(mset, name).tolist() == getattr(layout, name).tolist(), name
    assert mset.instance_id.tolist() == [0] * 4 + [1] * 4 + [2] * 4
    assert set(mset.clock_mode.tolist()) == {CLOCKS.index(ClockMode.WALL_CLOCK)}
    assert sorted(mset.duration_ns.tolist()) == list(range(1000, 1012))
    assert [m.result.checksum for m in mset] == (mset.duration_ns - 1000).tolist()  # each result stays with its row
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


@pytest.mark.parametrize(("name", "rule", "value"), [
    ("instance_id", ">= 0", -1), ("instance_id", ">= 0", -2**63), ("duration_ns", "> 0", 0), ("repetition", ">= 0", -1),
])
def test_int64_columns_are_checked_against_their_ranges(name, rule, value):
    # raw.csv's writer has no sign row: no int64 column holds a negative value
    columns = {"instance_id": [0, 0], "repetition": [0, 0], "duration_ns": [1, 2], name: np.array([value, 1])}
    with pytest.raises(ValueError, match=rf"{name} must be {rule}, got {value}$"):
        _set(version=[0, 1], **columns)


def test_columns_of_different_lengths_are_refused():
    with pytest.raises(ValueError, match="columns differ in length"):
        MeasurementSet(Strategy.DUET, ("A", "B"), duration_ns=[1])


def test_order_position_is_int8():
    mset = run(Strategy.RMIT, 10, seed=3)
    assert mset.order_position.dtype == np.int8
    assert mset.order_position.tolist() == [0, 1] * 10


def _reference_pair_order(inst, rep, version):
    """pair_order in plain Python: rows grouped by key in a dict, each key's baseline row first."""
    groups = {}
    for row, key in enumerate(zip(inst, rep)):
        groups.setdefault(key, []).append(row)
    broken = [key for key in sorted(groups) if sorted(version[row] for row in groups[key]) != [0, 1]]
    if broken:
        return f"measurements do not form whole pairs at (instance, repetition) {broken[:5]}"
    return [row for key in sorted(groups) for row in sorted(groups[key], key=lambda row: version[row])]


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 30)), unique=True, max_size=40), data=st.data())
def test_pair_order_matches_a_plain_reference(keys, data):
    # Runs and archives hold pairs of one key in ascending key order; any other set is sorted, whole or not.
    keys = sorted(keys)
    n = 2 * len(keys)
    candidate_first = data.draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))  # rmit's coin
    inst, rep = (np.repeat(np.array([k[i] for k in keys], dtype=np.int64), 2) for i in (0, 1))
    version = np.array([(1, 0) if c else (0, 1) for c in candidate_first], dtype=np.int8).reshape(n)
    rows = list(range(n))
    kinds = ["none", "shuffle", "drop", "duplicate", "flip", *(["swap pairs"] if len(keys) > 1 else [])]
    change = data.draw(st.sampled_from(kinds) if n else st.just("none"))
    if change == "shuffle":
        rows = data.draw(st.permutations(rows))
    elif change == "swap pairs":  # whole pairs, two adjacent ones out of key order
        k = 2 * data.draw(st.integers(0, len(keys) - 2))
        rows[k : k + 4] = rows[k + 2 : k + 4] + rows[k : k + 2]
    elif change in ("drop", "duplicate", "flip"):
        i = data.draw(st.integers(0, n - 1))
        if change == "drop":  # odd length
            del rows[i]
        elif change == "duplicate":  # odd length, one key thrice
            rows.insert(i, i)
        else:  # a pair of two baselines or two candidates
            version[i] = 1 - version[i]
    mset = _set(inst[rows], rep[rows], version[rows])
    try:
        outcome = mset.pair_order().tolist()
    except PairingError as exc:
        outcome = str(exc)
    assert outcome == _reference_pair_order(inst[rows].tolist(), rep[rows].tolist(), version[rows].tolist())
    if change in ("none", "shuffle", "swap pairs"):
        assert isinstance(outcome, list)
