from __future__ import annotations

import json
import multiprocessing as mp
import os

import numpy as np
import pytest

from conftest import requires_two_cores
from duetbench import executor as executor_mod
from duetbench.analysis import relative_change
from duetbench.cli import EXIT_ERROR, main
from duetbench.errors import AffinityUnsupportedError, BarrierTimeoutError, InsufficientCoresError
from duetbench.executor import (
    CorePlan,
    DuetExecutor,
    Timing,
    available_cores,
    timed_run,
)
from duetbench.measurement import ClockMode
from duetbench.workloads import WorkloadKind, WorkloadSpec

SPEC_SMALL = WorkloadSpec(WorkloadKind.CPU_MUTATION, 20_000, "A")


def test_available_cores_positive():
    assert available_cores() >= 1
    if hasattr(os, "sched_getaffinity"):
        assert available_cores() == len(os.sched_getaffinity(0))


def test_core_plan_validation():
    with pytest.raises(ValueError):
        CorePlan(0, 0)
    with pytest.raises(ValueError):
        CorePlan(-1, 1)
    plan = CorePlan(0, 1)
    assert (plan.core_a, plan.core_b) == (0, 1)


def test_duet_refuses_single_core_host(monkeypatch):
    monkeypatch.setattr(executor_mod, "available_cores", lambda: 1)
    with DuetExecutor(CorePlan(0, 1)) as ex:
        with pytest.raises(InsufficientCoresError):
            ex.duet_invoke(SPEC_SMALL, WorkloadSpec(WorkloadKind.CPU_MUTATION, 20_000, "B"))


def test_duet_refuses_core_beyond_host():
    with DuetExecutor(CorePlan(0, available_cores() + 7)) as ex:
        with pytest.raises(InsufficientCoresError):
            ex.duet_invoke(SPEC_SMALL, WorkloadSpec(WorkloadKind.CPU_MUTATION, 20_000, "B"))
        assert not ex._procs


def test_duet_cores_must_lie_in_the_affinity_mask(monkeypatch):
    class Spawned(Exception):
        pass

    def spawn():
        raise Spawned

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 3})  # e.g. under `taskset -c 2,3`
    monkeypatch.setattr(executor_mod, "_context", spawn)
    spec_b = WorkloadSpec(WorkloadKind.CPU_MUTATION, 20_000, "B")
    with DuetExecutor(CorePlan(2, 3)) as ex:
        with pytest.raises(Spawned):
            ex.duet_invoke(SPEC_SMALL, spec_b)
    for plan in (CorePlan(0, 1), CorePlan(2, 5)):
        with DuetExecutor(plan) as ex:
            with pytest.raises(InsufficientCoresError, match=r"affinity mask is \[2, 3\]"):
                ex.duet_invoke(SPEC_SMALL, spec_b)


def test_a_one_core_mask_is_named_with_the_host_size(monkeypatch, tmp_path, capsys):
    # e.g. `taskset -c 1` on a larger host: the refusal names the mask and os.cpu_count(), not 1 as the host's size
    class Spawned(Exception):
        pass

    def spawn():
        raise Spawned

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1})
    monkeypatch.setattr(executor_mod, "_context", spawn)
    args = ["run", "--backend", "live", "--strategy", "duet", "--cores", "1", "0", "--repetitions", "4",
            "--out", str(tmp_path)]
    assert main(args) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InsufficientCoresError"
    assert "affinity mask [1]" in err["message"] and f"os.cpu_count() {os.cpu_count()}" in err["message"]


def test_affinity_unsupported_platform(monkeypatch):
    monkeypatch.setattr(executor_mod, "pinning_supported", lambda: False)
    with pytest.raises(AffinityUnsupportedError):
        DuetExecutor(CorePlan(0, 1), pinning=True)
    # explicit downgrade is allowed
    DuetExecutor(CorePlan(0, 1), pinning=False).close()


def test_solo_smallest_workload():
    spec = WorkloadSpec(WorkloadKind.MEM_SIEVE, 2, "A")
    m = DuetExecutor(CorePlan(0, 1), pinning=False).solo_invoke(spec, ClockMode.WALL_CLOCK)
    assert m.duration_ns > 0
    assert m.result.units_done == 1


def test_solo_clock_mode_echo():
    m = DuetExecutor(CorePlan(0, 1), pinning=False).solo_invoke(SPEC_SMALL, clock=ClockMode.CPU_TIME)
    assert m.clock_mode is ClockMode.CPU_TIME


def test_solo_repeated_same_order_of_magnitude():
    ex = DuetExecutor(CorePlan(0, 1), pinning=False)
    a = ex.solo_invoke(SPEC_SMALL, ClockMode.WALL_CLOCK)
    b = ex.solo_invoke(SPEC_SMALL, ClockMode.WALL_CLOCK)
    ratio = max(a.duration_ns, b.duration_ns) / min(a.duration_ns, b.duration_ns)
    assert ratio < 10


def test_cpu_time_within_wall_clock_bound():
    # needs a run much longer than the CPU clock tick (10ms on some kernels)
    spec = WorkloadSpec(WorkloadKind.CPU_MUTATION, 640_000, "A")
    _, cpu_ns, wall_ns = timed_run(spec)
    assert cpu_ns <= wall_ns * 1.05


@requires_two_cores
def test_duet_aa_identical_work_results():
    spec_b = WorkloadSpec(WorkloadKind.CPU_MUTATION, 20_000, "B")
    with DuetExecutor(CorePlan(0, 1)) as ex:
        m_a, m_b = ex.duet_invoke(SPEC_SMALL, spec_b)
    assert m_a.result == m_b.result
    assert m_a.clock_mode is ClockMode.CPU_TIME


def test_solo_returns_only_a_timing_on_the_clock_asked_for(monkeypatch):
    result = timed_run(SPEC_SMALL)[0]
    monkeypatch.setattr(executor_mod, "timed_run", lambda spec: (result, 7, 11))  # (result, cpu_ns, wall_ns)
    ex = DuetExecutor(CorePlan(0, 1), pinning=False)
    assert ex.solo_invoke(SPEC_SMALL) == Timing(11, ClockMode.WALL_CLOCK, result)
    assert ex.solo_invoke(SPEC_SMALL, ClockMode.CPU_TIME) == Timing(7, ClockMode.CPU_TIME, result)


@requires_two_cores
def test_duet_returns_only_timings_on_the_clock_asked_for(monkeypatch):
    replies = []
    recv = DuetExecutor._recv

    def recording(executor, idx):
        replies.append(recv(executor, idx)[1])
        return "ok", replies[-1]

    monkeypatch.setattr(DuetExecutor, "_recv", recording)
    spec_b = WorkloadSpec(WorkloadKind.CPU_MUTATION, 20_000, "B")
    with DuetExecutor(CorePlan(0, 1)) as ex:
        cases = [({}, ClockMode.CPU_TIME, "cpu_ns"),  # no clock: the default, CPU time
                 ({"clock": ClockMode.CPU_TIME}, ClockMode.CPU_TIME, "cpu_ns"),
                 ({"clock": ClockMode.WALL_CLOCK}, ClockMode.WALL_CLOCK, "wall_ns")]
        for clock, mode, key in cases:
            timings = ex.duet_invoke(SPEC_SMALL, spec_b, **clock)
            # dataclass equality also asks for exactly a Timing
            assert timings == tuple(Timing(r[key], mode, r["result"]) for r in replies[-2:])


@requires_two_cores
def test_duet_barrier_ordering_and_affinity_isolation():
    spec_b = WorkloadSpec(WorkloadKind.CPU_MUTATION, 20_000, "B")
    with DuetExecutor(CorePlan(0, 1)) as ex:
        for rep in range(5):
            ex.duet_invoke(SPEC_SMALL, spec_b)
            trace = ex.last_barrier
            assert trace.start_a_ns >= trace.release_ns
            assert trace.start_b_ns >= trace.release_ns
            assert trace.affinity_a == (0,)
            assert trace.affinity_b == (1,)


@requires_two_cores
def test_unpinned_workers_keep_full_mask():
    spec_b = WorkloadSpec(WorkloadKind.CPU_MUTATION, 20_000, "B")
    with DuetExecutor(CorePlan(0, 1), pinning=False) as ex:
        assert not ex.pinning
        ex.duet_invoke(SPEC_SMALL, spec_b)
        # workers keep the full affinity mask when pinning is off
        assert len(ex.last_barrier.affinity_a) == available_cores()


@requires_two_cores
def test_pin_failure_raises_and_stops_workers(monkeypatch):
    def refuse(pid, cores):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    before = set(mp.active_children())
    with DuetExecutor(CorePlan(0, 1)) as ex:
        with pytest.raises(AffinityUnsupportedError):
            ex.duet_invoke(SPEC_SMALL, WorkloadSpec(WorkloadKind.CPU_MUTATION, 20_000, "B"))
        assert not ex._procs
    assert set(mp.active_children()) <= before


@requires_two_cores
def test_duet_barrier_timeout_maps_to_error(monkeypatch):
    monkeypatch.setattr(executor_mod, "BARRIER_TIMEOUT_S", 1.0)
    with DuetExecutor(CorePlan(0, 1)) as ex:
        ex._ensure_workers()
        ex._barrier.abort()
        with pytest.raises(BarrierTimeoutError, match=r"within 1\.0s$"):
            ex.duet_invoke(SPEC_SMALL, WorkloadSpec(WorkloadKind.CPU_MUTATION, 20_000, "B"))
        # executor recovers with fresh workers afterwards
        m_a, m_b = ex.duet_invoke(SPEC_SMALL, WorkloadSpec(WorkloadKind.CPU_MUTATION, 20_000, "B"))
        assert m_a.result == m_b.result


@requires_two_cores
def test_duet_detects_five_percent_direction():
    # Wall clock: per-worker CPU clocks are tick-quantized on some kernels,
    # while each worker owns one core so wall time tracks its work closely.
    spec_a = WorkloadSpec(WorkloadKind.CPU_MUTATION, 100_000, "A")
    spec_b = WorkloadSpec(WorkloadKind.CPU_MUTATION, 100_000, "B", 5.0)
    # The baseline alternates between the workers, as in a live duet run, so a
    # difference between the two cores does not read as one between versions.
    changes = []
    with DuetExecutor(CorePlan(0, 1)) as ex:
        for rep in range(100):
            if rep % 2 == 0:
                m_a, m_b = ex.duet_invoke(spec_a, spec_b, clock=ClockMode.WALL_CLOCK)
            else:
                m_b, m_a = ex.duet_invoke(spec_b, spec_a, clock=ClockMode.WALL_CLOCK)
            changes.append(relative_change(m_a.duration_ns, m_b.duration_ns))
    slower = sum(1 for c in changes if c > 0)
    assert slower > 50, f"candidate slower in only {slower}/100 repetitions (median {np.median(changes):.2f}%)"
