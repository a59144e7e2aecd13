from __future__ import annotations

import multiprocessing as mp

import pytest

from conftest import requires_two_cores
from duetbench import executor as executor_mod
from duetbench.errors import ExecutionError
from duetbench.executor import DuetExecutor
from duetbench.workloads import WorkloadKind, make_workload

SPEC_A = make_workload(WorkloadKind.CPU_MUTATION, 20_000, "A")
SPEC_B = make_workload(WorkloadKind.CPU_MUTATION, 20_000, "B")


@requires_two_cores
@pytest.mark.skipif(executor_mod._CTX.get_start_method() != "fork",
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
