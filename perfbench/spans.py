"""In-memory span tracer and the patches that place spans at layer boundaries.

A span is (name, start_ns, end_ns, parent, gate, attrs). Spans nest on the
coordinating thread, so a span's self time is its duration minus the
durations of its direct children. Spans named `workloads.run_workload` are
synthetic: their duration is the workload time a worker or the coordinator
measured inside an executor call, which lets the executor's own cost be told
apart from the work it ran.

Calls the benchmark makes itself are wrapped with `Tracer.span`. Calls the
program makes internally are reached by replacing the module attributes the
callers look them up through (see `patched`); nothing under `src/` changes.
`DuetExecutor.duet_invoke` is the exception: the benchmark wraps it once for
the whole run (`gates.DuetPairs`), and that wrapper calls `Tracer.duet_pair`
during traced gates.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

# Attribute names on `duetbench.harness` that `run_experiment` and
# `reanalyze_raw` resolve at call time, with the span name each gets.
HARNESS_HOOKS = {
    "bootstrap_ci": "analysis.bootstrap_ci",
    "run_strategy": "strategies.run_strategy",
    "pair_measurements": "strategies.pair_measurements",
    "filter_cold_starts": "analysis.filter_cold_starts",
    "load_raw_csv": "harness.load_raw_csv",
}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    gate: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans for one benchmark run; `gate` tags every new span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.gate = -1
        self._stack: list[int] = []
        # Worker replies of the current duet pair, collected by the `_recv` patch.
        self.replies: list[dict[str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter_ns(), 0, parent, self.gate, attrs)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec.attrs
        finally:
            rec.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def leaf(self, name: str, dur_ns: int, end_ns: int, **attrs: Any) -> None:
        """Add a child of the open span covering `dur_ns` before `end_ns`."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, end_ns - dur_ns, end_ns, parent, self.gate, attrs))

    def duet_pair(self, executor: Any, call: Callable[[], Any]) -> Any:
        """Run one duet pair, `call()`, in an `executor.duet_invoke` span with its barrier data."""
        spawns = not executor._procs
        self.replies.clear()
        with self.span("executor.duet_invoke", spawn=spawns) as attrs:
            try:
                result = call()
            except Exception:
                attrs["error"] = True
                raise
            end_ns = time.perf_counter_ns()
            if len(self.replies) == 2:
                pa, pb = self.replies
                slow_wall = max(pa["wall_ns"], pb["wall_ns"])
                attrs["worker_wall_ns"] = slow_wall
                attrs["worker_cpu_ns"] = [pa["cpu_ns"], pb["cpu_ns"]]
                trace = executor.last_barrier
                attrs["skew_ns"] = abs(trace.start_a_ns - trace.start_b_ns)
                attrs["release_lag_ns"] = max(trace.start_a_ns, trace.start_b_ns) - trace.release_ns
                self.leaf("workloads.run_workload", slow_wall, end_ns)
            return result

    def self_ns(self) -> list[int]:
        out = [s.dur_ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.dur_ns
        return out

    def write(self, path: Path) -> None:
        rows = [
            {"name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns, "parent": s.parent, "gate": s.gate, **s.attrs}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def _set(target: Any, attr: str, value: Any, undo: list[Callable[[], None]]) -> None:
    original = getattr(target, attr)
    setattr(target, attr, value)
    undo.append(lambda: setattr(target, attr, original))


@contextlib.contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Wrap the program's internal layer calls with spans while active.

    `DuetExecutor._recv` is wrapped only to hand the workers' replies to
    `Tracer.duet_pair`; it gets no span of its own.
    """
    import duetbench.harness as harness
    from duetbench.executor import DuetExecutor
    from duetbench.measurement import ClockMode

    undo: list[Callable[[], None]] = []

    def hook(attr: str, name: str) -> None:
        fn = getattr(harness, attr)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name) as attrs:
                result = fn(*args, **kwargs)
                _annotate(attr, args, kwargs, result, attrs)
                return result

        _set(harness, attr, wrapper, undo)

    for attr, name in HARNESS_HOOKS.items():
        hook(attr, name)

    solo_invoke = DuetExecutor.solo_invoke
    recv = DuetExecutor._recv

    def recv_wrapper(self: DuetExecutor, idx: int) -> Any:
        reply = recv(self, idx)
        if reply[0] == "ok":
            tracer.replies.append(reply[1])
        return reply

    def solo_wrapper(self: DuetExecutor, spec: Any, *args: Any, **kwargs: Any) -> Any:
        with tracer.span("executor.solo_invoke") as attrs:
            try:
                m = solo_invoke(self, spec, *args, **kwargs)
            except Exception:
                attrs["error"] = True
                raise
            if m.clock_mode is ClockMode.WALL_CLOCK:
                attrs["workload_ns"] = m.duration_ns
                tracer.leaf("workloads.run_workload", m.duration_ns, time.perf_counter_ns())
            return m

    _set(DuetExecutor, "_recv", recv_wrapper, undo)
    _set(DuetExecutor, "solo_invoke", solo_wrapper, undo)
    try:
        yield
    finally:
        for fn in reversed(undo):
            fn()


def _annotate(attr: str, args: tuple, kwargs: dict, result: Any, attrs: dict[str, Any]) -> None:
    """Record the work count of one wrapped harness call on its span."""
    if attr == "bootstrap_ci":
        attrs["n"] = len(args[0])
        attrs["resamples"] = args[2] if len(args) > 2 else kwargs["resamples"]
    elif attr == "run_strategy":
        attrs["backend"] = args[0].backend.value
        attrs["invocations"] = len(result.measurements)
    elif attr == "pair_measurements":
        attrs["pairs"] = len(result)
    elif attr == "filter_cold_starts":
        attrs["cold_pairs_removed"] = (len(args[0].measurements) - len(result.measurements)) // 2
    elif attr == "load_raw_csv":
        attrs["rows"] = sum(len(v) for v in result.values())
