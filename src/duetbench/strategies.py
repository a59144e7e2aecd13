"""The three invocation strategies over a live or simulated backend.

- independent: all baseline invocations back-to-back, then all candidate
  invocations, each run alone but within the same instance context.
- rmit (randomized multiple interleaved trials): per trial a seeded coin
  decides the order, then both versions run sequentially within the trial.
- duet: both versions run in parallel per repetition, core-isolated and
  synchronized on the live backend (which worker runs the baseline
  alternates), or given correlated noise draws on the simulated one.

A backend represents one "instance": either a live executor on this host or
one simulated platform instance. Seed derivation is keyed by instance id
only, never by strategy, so all strategies compared under one seed see the
same instance lottery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

import numpy as np

from .analysis import relative_change
from .errors import PairingError
from .executor import DuetExecutor
from .measurement import ClockMode, Measurement, Strategy, default_clock
from .simenv import (
    InstanceState,
    VariabilityModel,
    advance_time,
    draw_jitter,
    draw_noise,
    sample_instance,
    simulate_invocation,
)
from .workloads import WorkloadSpec

if TYPE_CHECKING:
    from .harness import ExperimentConfig


def _instance_streams(seed: int, instance_id: int) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    """(lottery, noise, order) generators for one instance, strategy-agnostic."""
    children = np.random.SeedSequence(seed, spawn_key=(0, instance_id)).spawn(3)
    return tuple(np.random.default_rng(c) for c in children)


@dataclass
class MeasurementSet:
    """Ordered measurements of one strategy run.

    `version_labels` is (baseline, candidate); pairing relies on it."""

    strategy: Strategy
    version_labels: tuple[str, str]
    measurements: list[Measurement] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.version_labels[0] == self.version_labels[1]:
            raise ValueError(f"the two versions need distinct labels, both are {self.version_labels[0]!r}")


class InstanceBackend(Protocol):
    def run_single(
        self, spec: WorkloadSpec, *, strategy: Strategy, repetition: int, clock: ClockMode, order_position: int | None = None
    ) -> Measurement: ...

    def run_parallel_pair(
        self, spec_a: WorkloadSpec, spec_b: WorkloadSpec, *, repetition: int, clock: ClockMode
    ) -> tuple[Measurement, Measurement]: ...

    def order_coin(self) -> bool: ...


class SimulatedInstance:
    """One simulated platform instance with its own streams and clock.

    The virtual clock starts at 0 and advances one time step per sequential
    execution slot; a duet pair occupies a single slot since the two runs are
    concurrent.
    """

    def __init__(self, model: VariabilityModel, seed: int, instance_id: int = 0) -> None:
        if seed is None:  # SeedSequence(None) would draw fresh entropy
            raise ValueError("the simulated backend requires a seed")
        lottery, noise, order = _instance_streams(seed, instance_id)
        self.model = model
        self.instance: InstanceState = sample_instance(model, lottery, instance_id=instance_id)
        self._noise_rng = noise
        self._order_rng = order
        self._t = 0.0

    def run_single(self, spec, *, strategy, repetition, clock, order_position=None) -> Measurement:
        m = simulate_invocation(
            self.model,
            self.instance,
            spec,
            self._t,
            self._noise_rng,
            strategy=strategy,
            repetition=repetition,
            order_position=order_position,
            clock_mode=clock,
        )
        self._t = advance_time(self._t, self.model.time_step_s)
        return m

    def run_parallel_pair(self, spec_a, spec_b, *, repetition, clock) -> tuple[Measurement, Measurement]:
        shared = draw_noise(self.model, self._noise_rng)
        pair = []
        for spec in (spec_a, spec_b):
            jitter = draw_jitter(self.model, self._noise_rng)
            pair.append(
                simulate_invocation(
                    self.model,
                    self.instance,
                    spec,
                    self._t,
                    self._noise_rng,
                    shared_draw=shared * jitter,
                    strategy=Strategy.DUET,
                    repetition=repetition,
                    clock_mode=clock,
                )
            )
        self._t = advance_time(self._t, self.model.time_step_s)
        return pair[0], pair[1]

    def order_coin(self) -> bool:
        return bool(self._order_rng.integers(0, 2) == 0)


class LiveInstance:
    """One live 'instance': a duet executor plus this process for solo runs."""

    def __init__(self, executor: DuetExecutor, instance_id: int = 0, seed: int | None = None) -> None:
        self.executor = executor
        self.instance_id = instance_id
        self._order_rng = _instance_streams(seed, instance_id)[2] if seed is not None else None

    def run_single(self, spec, *, strategy, repetition, clock, order_position=None) -> Measurement:
        return self.executor.solo_invoke(
            spec,
            clock=clock,
            strategy=strategy,
            repetition=repetition,
            instance_id=self.instance_id,
            order_position=order_position,
        )

    def run_parallel_pair(self, spec_a, spec_b, *, repetition, clock) -> tuple[Measurement, Measurement]:
        """Run one pair, baseline first; odd repetitions put the candidate on the first worker.

        Alternating the workers keeps a difference between the two cores
        from reading as a difference between the versions.
        """
        if repetition % 2 == 0:
            return self.executor.duet_invoke(spec_a, spec_b, repetition=repetition, instance_id=self.instance_id, clock=clock)
        m_b, m_a = self.executor.duet_invoke(spec_b, spec_a, repetition=repetition, instance_id=self.instance_id, clock=clock)
        return m_a, m_b

    def order_coin(self) -> bool:
        if self._order_rng is None:
            raise ValueError("live rmit needs a seeded instance (pass seed=...)")
        return bool(self._order_rng.integers(0, 2) == 0)


def _new_set(strategy: Strategy, specs: tuple[WorkloadSpec, WorkloadSpec]) -> MeasurementSet:
    return MeasurementSet(strategy, (specs[0].version_label, specs[1].version_label))


def run_independent(
    specs: tuple[WorkloadSpec, WorkloadSpec], backend: InstanceBackend, repetitions: int, clock: ClockMode | None = None
) -> MeasurementSet:
    """All baseline invocations first, then all candidate invocations."""
    mset = _new_set(Strategy.INDEPENDENT, specs)
    clock = clock or default_clock(Strategy.INDEPENDENT)
    for spec in specs:
        for rep in range(repetitions):
            mset.measurements.append(backend.run_single(spec, strategy=Strategy.INDEPENDENT, repetition=rep, clock=clock))
    return mset


def run_rmit(
    specs: tuple[WorkloadSpec, WorkloadSpec], backend: InstanceBackend, repetitions: int, clock: ClockMode | None = None
) -> MeasurementSet:
    """Randomized interleaved trials: a fair coin orders each trial."""
    mset = _new_set(Strategy.RMIT, specs)
    clock = clock or default_clock(Strategy.RMIT)
    for rep in range(repetitions):
        first, second = specs if backend.order_coin() else (specs[1], specs[0])
        mset.measurements.append(backend.run_single(first, strategy=Strategy.RMIT, repetition=rep, clock=clock, order_position=0))
        mset.measurements.append(backend.run_single(second, strategy=Strategy.RMIT, repetition=rep, clock=clock, order_position=1))
    return mset


def run_duet(
    specs: tuple[WorkloadSpec, WorkloadSpec], backend: InstanceBackend, repetitions: int, clock: ClockMode | None = None
) -> MeasurementSet:
    """Parallel synchronized pairs; one (baseline, candidate) pair per repetition."""
    mset = _new_set(Strategy.DUET, specs)
    clock = clock or default_clock(Strategy.DUET)
    for rep in range(repetitions):
        mset.measurements.extend(backend.run_parallel_pair(specs[0], specs[1], repetition=rep, clock=clock))
    return mset


_RUNNERS = {
    Strategy.INDEPENDENT: run_independent,
    Strategy.RMIT: run_rmit,
    Strategy.DUET: run_duet,
}


def run_strategy(
    cfg: ExperimentConfig, strategy: Strategy, specs: tuple[WorkloadSpec, WorkloadSpec], backend: InstanceBackend,
    repetitions: int,
) -> MeasurementSet:
    """Run `strategy` on one instance; of the gate's config only `cfg.clock` is read."""
    return _RUNNERS[strategy](specs, backend, repetitions, cfg.clock)


def pair_measurements(
    mset: MeasurementSet,
    scheme: str = "index",
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Match baseline and candidate measurements into per-repetition changes.

    Pairs are formed per (instance, repetition); for the independent strategy
    that equals pairing the i-th baseline invocation with the i-th candidate
    invocation. scheme="random" instead permutes the candidate assignment
    within each instance (requires an rng). Returns the relative changes in
    percent as a float64 array in (instance, repetition) order.
    """
    baseline_label, candidate_label = mset.version_labels
    by_instance: dict[int, dict[str, dict[int, Measurement]]] = {}
    for m in mset.measurements:
        if m.version_label not in (baseline_label, candidate_label):
            raise PairingError(f"unexpected version label {m.version_label!r}")
        slot = by_instance.setdefault(m.instance_id, {baseline_label: {}, candidate_label: {}})[m.version_label]
        if m.repetition in slot:
            raise PairingError(f"duplicate measurement for {m.version_label!r} repetition {m.repetition}")
        slot[m.repetition] = m

    changes: list[float] = []
    for instance_id in sorted(by_instance):
        base = by_instance[instance_id][baseline_label]
        cand = by_instance[instance_id][candidate_label]
        if set(base) != set(cand):
            missing = sorted(set(base).symmetric_difference(cand))
            raise PairingError(f"instance {instance_id}: unpaired repetitions {missing[:5]} (counts {len(base)} vs {len(cand)})")
        reps = sorted(base)
        cand_order = list(reps)
        if scheme == "random":
            gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
            cand_order = [reps[i] for i in gen.permutation(len(reps))]
        elif scheme != "index":
            raise ValueError(f"unknown pairing scheme {scheme!r}")
        changes.extend(relative_change(base[rep].duration_ns, cand[c].duration_ns) for rep, c in zip(reps, cand_order))
    return np.array(changes, dtype=np.float64)
