from __future__ import annotations

import multiprocessing as mp
import os

import pytest

from conftest import requires_two_cores
from duetbench import executor as executor_mod
from duetbench.errors import ExecutionError
from duetbench.executor import DuetExecutor
from duetbench.workloads import WorkloadKind, make_workload

SPEC_A = make_workload(WorkloadKind.CPU_MUTATION, 20_000, "A")
SPEC_B = make_workload(WorkloadKind.CPU_MUTATION, 20_000, "B")


@requires_two_cores
@pytest.mark.skipif(executor_mod._context().get_start_method() != "fork",
                    reason="a patched run_workload reaches the workers only when they are forked")
def test_worker_execution_error_raises_and_the_next_pair_recovers(monkeypatch):
    def fail(spec):
        raise RuntimeError("boom")

    before = set(mp.active_children())
    with DuetExecutor() as ex:
        monkeypatch.setattr(executor_mod, "run_workload", fail)  # before the workers are forked
        with pytest.raises(ExecutionError, match=r"^execution:RuntimeError\('boom'\)$"):
            ex.duet_invoke(SPEC_A, SPEC_B)
        assert not ex._procs
        assert set(mp.active_children()) <= before
        monkeypatch.undo()
        m_a, m_b = ex.duet_invoke(SPEC_A, SPEC_B)
        assert m_a.result == m_b.result


@requires_two_cores
@pytest.mark.skipif(executor_mod._context().get_start_method() != "fork",
                    reason="a patched run_workload reaches the workers only when they are forked")
def test_worker_that_exits_mid_pair_raises_and_the_next_pair_recovers(monkeypatch):
    def leave(spec):
        os._exit(7)

    before = set(mp.active_children())
    with DuetExecutor() as ex:
        monkeypatch.setattr(executor_mod, "run_workload", leave)  # before the workers are forked
        with pytest.raises(ExecutionError, match=r"^duet worker 0 closed its pipe unexpectedly$"):
            ex.duet_invoke(SPEC_A, SPEC_B)
        assert not ex._procs
        assert set(mp.active_children()) <= before
        monkeypatch.undo()
        m_a, m_b = ex.duet_invoke(SPEC_A, SPEC_B)
        assert m_a.result == m_b.result


def test_solo_workload_out_of_memory_raises_execution_error(monkeypatch):
    def exhaust(spec):
        raise MemoryError("no room")

    monkeypatch.setattr(executor_mod, "run_workload", exhaust)
    with pytest.raises(ExecutionError, match=r"^workload exhausted resources: MemoryError\('no room'\)$"):
        DuetExecutor(pinning=False).solo_invoke(SPEC_A)
