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
from .simenv import draw_noise, draw_pair_noise, sample_instance, simulate_invocations
from .workloads import WorkloadSpec

Specs = tuple[WorkloadSpec, WorkloadSpec]


def _instance_streams(seed: int, instance_id: int) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    """(lottery, noise, order) generators for one instance, strategy-agnostic."""
    if seed is None:  # SeedSequence(None) would draw fresh entropy
        raise ValueError("an instance needs a seed")
    children = np.random.SeedSequence(seed, spawn_key=(0, instance_id)).spawn(3)
    return tuple(np.random.default_rng(c) for c in children)


class SimulatedInstance:
    """One simulated platform instance: its lottery draw, streams, clock and cold state.

    The virtual clock starts at 0 and advances one time step per sequential
    execution slot; a duet pair occupies a single slot since the two runs are
    concurrent. Each run draws all its noise in one batch. Only the instance's
    first invocation is cold.
    """

    def __init__(self, model: VariabilityModel, seed: int, instance_id: int = 0) -> None:
        lottery, self._noise_rng, self.order_rng = _instance_streams(seed, instance_id)
        self.model = model
        self.instance_id = instance_id
        self.quality, self.drift_phase = sample_instance(model, lottery)
        self._t = 0.0
        self._warm = False

    def run(self, strategy, specs, version, clock) -> tuple[np.ndarray, np.ndarray, None]:
        """The simulated durations and cold flags of the invocations laid out in `version`; no results."""
        n = len(version)
        paired = strategy is Strategy.DUET  # rows 2k and 2k + 1 are one pair, in one slot
        slots = np.cumsum(np.r_[self._t, np.full(n // 2 if paired else n, self.model.time_step_s)])
        self._t = float(slots[-1])
        if paired:
            noise, t = draw_pair_noise(self.model, self._noise_rng, n // 2).ravel(), np.repeat(slots[:-1], 2)
        else:
            noise, t = draw_noise(self.model, self._noise_rng, n), slots[:-1]
        cold = np.zeros(n, bool)
        cold[:1] = not self._warm
        self._warm |= n > 0
        return simulate_invocations(self.model, self.quality, self.drift_phase, specs, version, t, noise, cold), cold, None


class LiveInstance:
    """One live 'instance': a duet executor plus this process for solo runs, and the seeded order stream of rmit."""

    def __init__(self, executor: DuetExecutor, seed: int, instance_id: int = 0) -> None:
        self.executor = executor
        self.instance_id = instance_id
        self.order_rng = _instance_streams(seed, instance_id)[2]

    def run(self, strategy, specs, version, clock) -> tuple[list[int], np.ndarray, list]:
        """Run the invocations one by one, or as duet pairs of rows 2k and 2k + 1; live runs are never cold.

        Odd pairs put the candidate on the first worker: a difference between
        the two cores then does not read as one between the versions.
        """
        if strategy is Strategy.DUET:
            timings = []
            for k in range(len(version) // 2):
                flip = -1 if k % 2 else 1  # reverses the specs sent and the timings returned
                timings += self.executor.duet_invoke(*specs[::flip], clock=clock)[::flip]
        else:
            timings = [self.executor.solo_invoke(specs[v], clock) for v in version.tolist()]
        return [t.duration_ns for t in timings], np.zeros(len(timings), bool), [t.result for t in timings]


InstanceBackend = SimulatedInstance | LiveInstance


def _run(strategy: Strategy, specs: Specs, backend: InstanceBackend, version, repetition, order_position,
         clock: ClockMode | None) -> MeasurementSet:
    """Check the labels, run the invocations laid out row by row (an order_position of -1 is none) and build their set."""
    labels = (specs[0].version_label, specs[1].version_label)
    if labels[0] == labels[1]:
        raise ValueError(f"the two versions need distinct labels, both are {labels[0]!r}")
    clock = clock or default_clock(strategy)
    version = np.asarray(version, np.int8)
    duration, cold, result = backend.run(strategy, specs, version, clock)
    n = len(version)
    return MeasurementSet(
        strategy, labels, duration_ns=duration, instance_id=np.full(n, backend.instance_id), repetition=repetition,
        version=version, cold=cold, order_position=np.broadcast_to(order_position, n),
        clock_mode=np.full(n, CLOCKS.index(clock)), result=result,
    )


def run_independent(specs: Specs, backend: InstanceBackend, repetitions: int, clock: ClockMode | None = None) -> MeasurementSet:
    """All baseline invocations first, then all candidate invocations."""
    reps = np.tile(np.arange(repetitions), 2)
    return _run(Strategy.INDEPENDENT, specs, backend, np.repeat([0, 1], repetitions), reps, -1, clock)


def run_rmit(specs: Specs, backend: InstanceBackend, repetitions: int, clock: ClockMode | None = None) -> MeasurementSet:
    """Randomized interleaved trials: a fair coin from the instance's order stream orders each trial."""
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
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Match baseline and candidate measurements into per-repetition changes.

    Pairs are formed per (instance, repetition); for the independent strategy
    that equals pairing the i-th baseline invocation with the i-th candidate
    invocation. scheme="random" instead permutes the candidate assignment
    within each instance, drawing from `rng`, which must be a Generator.
    Returns the relative changes in percent, `(t_b - t_a) / t_a * 100`, as a
    float64 array in (instance, repetition) order.
    """
    if scheme not in ("index", "random"):
        raise ValueError(f"unknown pairing scheme {scheme!r}")
    if scheme == "random" and not isinstance(rng, np.random.Generator):
        raise ValueError(f"random pairing needs a numpy.random.Generator, got {rng!r}")
    order = mset.pair_order()
    duration = mset.duration_ns[order]
    base, cand = duration[0::2], duration[1::2]
    if scheme == "random" and len(cand):
        inst = mset.instance_id[order[0::2]]
        starts = np.flatnonzero(np.r_[True, inst[1:] != inst[:-1]])
        for start, stop in zip(starts, [*starts[1:], len(cand)]):
            cand[start:stop] = cand[start:stop][rng.permutation(stop - start)]
    return relative_change(base, cand)
