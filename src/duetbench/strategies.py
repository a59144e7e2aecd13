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

import numpy as np

from .analysis import relative_change
from .config import ExperimentConfig, VariabilityModel
from .executor import DuetExecutor
from .measurement import CLOCKS, ClockMode, MeasurementSet, Strategy, default_clock
from .simenv import (
    InstanceState,
    advance_time,
    draw_noise,
    draw_pair_noise,
    sample_instance,
    simulate_invocations,
)
from .workloads import WorkloadSpec

Specs = tuple[WorkloadSpec, WorkloadSpec]


def _instance_streams(seed: int, instance_id: int) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    """(lottery, noise, order) generators for one instance, strategy-agnostic."""
    children = np.random.SeedSequence(seed, spawn_key=(0, instance_id)).spawn(3)
    return tuple(np.random.default_rng(c) for c in children)


class SimulatedInstance:
    """One simulated platform instance with its own streams and clock.

    The virtual clock starts at 0 and advances one time step per sequential
    execution slot; a duet pair occupies a single slot since the two runs are
    concurrent. Each run draws all its noise in one batch.
    """

    def __init__(self, model: VariabilityModel, seed: int, instance_id: int = 0) -> None:
        if seed is None:  # SeedSequence(None) would draw fresh entropy
            raise ValueError("the simulated backend requires a seed")
        lottery, self._noise_rng, self.order_rng = _instance_streams(seed, instance_id)
        self.model = model
        self.instance: InstanceState = sample_instance(model, lottery, instance_id=instance_id)
        self._t = 0.0

    def run(self, strategy, specs, version, repetition, order_position, clock) -> MeasurementSet:
        n = len(version)
        paired = strategy is Strategy.DUET  # rows 2k and 2k + 1 are one pair, in one slot
        slots = advance_time(self._t, self.model.time_step_s, n // 2 if paired else n)
        self._t = float(slots[-1])
        if paired:
            noise, t = draw_pair_noise(self.model, self._noise_rng, n // 2).ravel(), np.repeat(slots[:-1], 2)
        else:
            noise, t = draw_noise(self.model, self._noise_rng, n), slots[:-1]
        duration, cold = simulate_invocations(self.model, self.instance, specs, version, t, noise)
        return MeasurementSet(
            strategy, _labels(specs), duration_ns=duration, instance_id=np.full(n, self.instance.instance_id),
            repetition=repetition, version=version, cold=cold, order_position=order_position,
            clock_mode=np.full(n, CLOCKS.index(clock)),
        )


class LiveInstance:
    """One live 'instance': a duet executor plus this process for solo runs."""

    def __init__(self, executor: DuetExecutor, instance_id: int = 0, seed: int | None = None) -> None:
        self.executor = executor
        self.instance_id = instance_id
        self.order_rng = _instance_streams(seed, instance_id)[2] if seed is not None else None

    def run(self, strategy, specs, version, repetition, order_position, clock) -> MeasurementSet:
        """Run the invocations one by one, or as duet pairs of rows 2k and 2k + 1.

        Odd repetitions put the candidate on the first worker: a difference
        between the two cores then does not read as one between the versions.
        """
        rows = []
        if strategy is Strategy.DUET:
            for rep in repetition[::2].tolist():
                pair = (specs[0], specs[1]) if rep % 2 == 0 else (specs[1], specs[0])
                m_first, m_second = self.executor.duet_invoke(*pair, repetition=rep, instance_id=self.instance_id, clock=clock)
                rows += (m_first, m_second) if rep % 2 == 0 else (m_second, m_first)
        else:
            for v, rep, pos in zip(version.tolist(), repetition.tolist(), order_position.tolist()):
                rows.append(self.executor.solo_invoke(specs[v], clock=clock, strategy=strategy, repetition=rep,
                                                      instance_id=self.instance_id, order_position=None if pos < 0 else pos))
        return MeasurementSet.from_rows(strategy, _labels(specs), rows)


InstanceBackend = SimulatedInstance | LiveInstance


def _labels(specs: Specs) -> tuple[str, str]:
    if specs[0].version_label == specs[1].version_label:
        raise ValueError(f"the two versions need distinct labels, both are {specs[0].version_label!r}")
    return specs[0].version_label, specs[1].version_label


def _run(strategy: Strategy, specs: Specs, backend: InstanceBackend, version, repetition, order_position,
         clock: ClockMode | None) -> MeasurementSet:
    """Check the labels, then run the invocations laid out row by row (an order_position of -1 is none)."""
    _labels(specs)
    return backend.run(strategy, specs, np.asarray(version, np.int8), repetition,
                       np.broadcast_to(order_position, len(repetition)), clock or default_clock(strategy))


def run_independent(specs: Specs, backend: InstanceBackend, repetitions: int, clock: ClockMode | None = None) -> MeasurementSet:
    """All baseline invocations first, then all candidate invocations."""
    reps = np.tile(np.arange(repetitions), 2)
    return _run(Strategy.INDEPENDENT, specs, backend, np.repeat([0, 1], repetitions), reps, -1, clock)


def run_rmit(specs: Specs, backend: InstanceBackend, repetitions: int, clock: ClockMode | None = None) -> MeasurementSet:
    """Randomized interleaved trials: a fair coin from the instance's order stream orders each trial."""
    if backend.order_rng is None:
        raise ValueError("live rmit needs a seeded instance (pass seed=...)")
    baseline_first = backend.order_rng.integers(0, 2, size=repetitions) == 0
    version = np.stack([~baseline_first, baseline_first], axis=1).ravel()
    reps = np.repeat(np.arange(repetitions), 2)
    return _run(Strategy.RMIT, specs, backend, version, reps, np.tile([0, 1], repetitions), clock)


def run_duet(specs: Specs, backend: InstanceBackend, repetitions: int, clock: ClockMode | None = None) -> MeasurementSet:
    """Parallel synchronized pairs; one (baseline, candidate) pair per repetition."""
    reps = np.repeat(np.arange(repetitions), 2)
    return _run(Strategy.DUET, specs, backend, np.tile([0, 1], repetitions), reps, -1, clock)


_RUNNERS = {
    Strategy.INDEPENDENT: run_independent,
    Strategy.RMIT: run_rmit,
    Strategy.DUET: run_duet,
}


def run_strategy(
    cfg: ExperimentConfig, strategy: Strategy, specs: Specs, backend: InstanceBackend,
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
    within each instance (requires an rng; a seed seeds each instance alike).
    Returns the relative changes in percent, `(t_b - t_a) / t_a * 100`, as a
    float64 array in (instance, repetition) order.
    """
    if scheme not in ("index", "random"):
        raise ValueError(f"unknown pairing scheme {scheme!r}")
    order = mset.pair_order()
    duration = mset.duration_ns[order]
    base, cand = duration[0::2], duration[1::2]
    if scheme == "random" and len(cand):
        inst = mset.instance_id[order[0::2]]
        starts = np.flatnonzero(np.r_[True, inst[1:] != inst[:-1]])
        for start, stop in zip(starts, [*starts[1:], len(cand)]):
            gen = np.random.default_rng(rng)
            cand[start:stop] = cand[start:stop][gen.permutation(stop - start)]
    return relative_change(base, cand)
