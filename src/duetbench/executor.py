"""Live execution engine: pinned worker processes with a synchronized start.

Duet invocations run the two workload versions in two persistent worker
processes, each pinned to its own CPU core, that share the host's memory.
The coordinator (this process) owns a three-party barrier: for every
repetition it dispatches both tasks, then everyone waits at the barrier, so
neither worker starts its work before the other is ready. Workers are
processes rather than threads because the interpreter lock would otherwise
serialize two CPU-bound Python workloads.

The coordinator pins each worker to its core once, right after spawning it;
each worker reports its affinity mask with every result, so a pair that ran
off its cores shows in `last_barrier`.

Each invocation is timed with both per-thread CPU time and wall-clock
timestamps; which one ends up in its `Timing` is decided by the clock mode
(duet defaults to CPU time, solo invocations to wall clock).

`multiprocessing` is imported when the first workers are spawned, so a
process that spawns none (a simulated gate, `analyze`) never loads it.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from dataclasses import dataclass

from .config import CorePlan
from .errors import (
    AffinityUnsupportedError,
    BarrierTimeoutError,
    ExecutionError,
    InsufficientCoresError,
)
from .measurement import ClockMode
from .workloads import WorkloadSpec, WorkResult, run_workload

BARRIER_TIMEOUT_S = 5.0  # how long the coordinator and each worker wait for the other two at the barrier


def _context():
    """The multiprocessing context duet workers start from.

    fork keeps worker startup cheap and works regardless of how the caller's
    main module was loaded; platforms without fork fall back to spawn.
    """
    import multiprocessing as mp

    return mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")


def available_cores() -> int:
    """Logical cores usable for pinning (respects an existing affinity mask)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pinning_supported() -> bool:
    return hasattr(os, "sched_setaffinity")


@dataclass(frozen=True)
class BarrierTrace:
    """Synchronization diagnostics from the most recent duet invocation.

    Timestamps are monotonic-clock nanoseconds, comparable across the
    coordinator and worker processes. `release_ns` is taken by the
    coordinator immediately before it arrives at the barrier, so it lower
    bounds the instant both workers were released.
    """

    release_ns: int
    start_a_ns: int
    start_b_ns: int
    affinity_a: tuple[int, ...] | None
    affinity_b: tuple[int, ...] | None


@dataclass(frozen=True)
class Timing:
    """What one live invocation measured: its duration on `clock_mode` and the workload's result.

    `strategies.run_strategy` lays out the set (labels, instance, repetition, order) and keeps only these.
    """

    duration_ns: int
    clock_mode: ClockMode
    result: WorkResult


def timed_run(spec: WorkloadSpec) -> tuple[WorkResult, int, int]:
    """Run one workload, returning (result, cpu_time_ns, wall_clock_ns)."""
    wall0 = time.perf_counter_ns()
    cpu0 = time.thread_time_ns()
    result = run_workload(spec)
    cpu_ns = time.thread_time_ns() - cpu0
    wall_ns = time.perf_counter_ns() - wall0
    return result, max(cpu_ns, 1), max(wall_ns, 1)


def _worker_main(conn, barrier) -> None:
    """Worker loop: receive a workload spec (None stops), rendezvous at the barrier, run, report."""
    while (spec := conn.recv()) is not None:
        affinity = tuple(sorted(os.sched_getaffinity(0))) if pinning_supported() else None
        try:
            barrier.wait(BARRIER_TIMEOUT_S)
        except threading.BrokenBarrierError:
            conn.send((BarrierTimeoutError, "broken or timed out"))
            continue
        start_ns = time.monotonic_ns()
        try:
            result, cpu_ns, wall_ns = timed_run(spec)
        except Exception as exc:  # surfaced as ExecutionError in the parent
            conn.send((ExecutionError, f"execution:{exc!r}"))
            continue
        conn.send(
            (
                "ok",
                {
                    "cpu_ns": cpu_ns,
                    "wall_ns": wall_ns,
                    "start_ns": start_ns,
                    "affinity": affinity,
                    "result": result,
                },
            )
        )


class DuetExecutor:
    """Coordinator owning two persistent duet workers.

    One executor serves one caller at a time; concurrent executors need
    disjoint core plans. Workers are started and pinned lazily on the first
    duet invocation and torn down by `close()` (or the context manager).
    """

    def __init__(self, plan: CorePlan, *, pinning: bool = True) -> None:
        self.plan = plan
        self.pinning = pinning
        if pinning and not pinning_supported():
            raise AffinityUnsupportedError("platform cannot set CPU affinity; construct with pinning=False to run unpinned")
        self.last_barrier: BarrierTrace | None = None
        self._procs: list = []  # multiprocessing processes
        self._conns: list = []
        self._barrier = None

    def __enter__(self) -> "DuetExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_workers(self) -> None:
        if self._procs and all(p.is_alive() for p in self._procs):
            return
        self.close()
        available = available_cores()
        if available < 2:  # a one-core mask on a larger host is refused here too, so name both
            mask = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "unknown"
            raise InsufficientCoresError(f"duet mode needs >= 2 usable cores, got {available}: "
                                         f"affinity mask {mask}, os.cpu_count() {os.cpu_count()}")
        cores = (self.plan.core_a, self.plan.core_b)
        if self.pinning and not set(cores) <= (mask := os.sched_getaffinity(0)):
            raise InsufficientCoresError(f"cores {list(cores)} requested but the affinity mask is {sorted(mask)}")
        ctx = _context()
        self._barrier = ctx.Barrier(3)
        for core in cores:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, self._barrier),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
            if self.pinning:
                try:
                    os.sched_setaffinity(proc.pid, {core})
                except OSError as exc:
                    self.close()
                    raise AffinityUnsupportedError(f"cannot pin a duet worker to core {core}: {exc}") from exc

    def duet_invoke(
        self,
        spec_a: WorkloadSpec,
        spec_b: WorkloadSpec,
        *,
        clock: ClockMode = ClockMode.CPU_TIME,
    ) -> tuple[Timing, Timing]:
        """Run both versions in parallel behind a shared start barrier.

        Returns the timings of (spec_a, spec_b) in argument order, on `clock`.
        """
        self._ensure_workers()
        for conn, spec in zip(self._conns, (spec_a, spec_b)):
            conn.send(spec)
        release_ns = time.monotonic_ns()
        try:
            self._barrier.wait(BARRIER_TIMEOUT_S)
        except threading.BrokenBarrierError:
            self.close()
            raise BarrierTimeoutError(f"workers did not rendezvous within {BARRIER_TIMEOUT_S}s") from None
        payloads = []
        for status, payload in [self._recv(i) for i in range(2)]:
            if status != "ok":  # an error class and its message
                self.close()
                raise status(payload)
            payloads.append(payload)
        pa, pb = payloads
        self.last_barrier = BarrierTrace(
            release_ns=release_ns,
            start_a_ns=pa["start_ns"],
            start_b_ns=pb["start_ns"],
            affinity_a=pa["affinity"],
            affinity_b=pb["affinity"],
        )
        key = "cpu_ns" if clock is ClockMode.CPU_TIME else "wall_ns"
        return Timing(pa[key], clock, pa["result"]), Timing(pb[key], clock, pb["result"])

    def solo_invoke(self, spec: WorkloadSpec, clock: ClockMode = ClockMode.WALL_CLOCK) -> Timing:
        """Run one workload alone in this process, no worker needed, and time it on `clock`."""
        try:
            result, cpu_ns, wall_ns = timed_run(spec)
        except MemoryError as exc:
            raise ExecutionError(f"workload exhausted resources: {exc!r}") from exc
        return Timing(cpu_ns if clock is ClockMode.CPU_TIME else wall_ns, clock, result)

    def _recv(self, idx: int):
        conn, proc = self._conns[idx], self._procs[idx]
        while not conn.poll(0.2):
            if not proc.is_alive():
                self.close()
                raise ExecutionError(f"duet worker {idx} died (exit code {proc.exitcode})")
        try:
            return conn.recv()
        except EOFError:
            self.close()
            raise ExecutionError(f"duet worker {idx} closed its pipe unexpectedly") from None

    def close(self) -> None:
        """Stop the workers, killing any that linger, and drop them; the next duet invocation spawns fresh ones."""
        for conn in self._conns:
            with contextlib.suppress(OSError):  # a dead worker's pipe is broken
                conn.send(None)
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            with contextlib.suppress(OSError):
                conn.close()
        self._conns, self._procs, self._barrier = [], [], None
