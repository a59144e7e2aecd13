"""The three invocation strategies, run over a gate's live or simulated instances.

A strategy runs on each of a gate's `instances` in turn: simulated
instances, or in live mode live instances that share one executor. The
gate's repetitions are split over them (`instance_repetitions`), and each
instance runs its share in the order the strategy lays out:

- independent: all baseline invocations back-to-back, then all candidate
  invocations, each run alone but within the same instance context.
- rmit (randomized multiple interleaved trials): per trial a seeded coin
  decides the order, then both versions run sequentially within the trial.
- duet: both versions run in parallel per repetition, core-isolated and
  synchronized on the live backend (which worker runs the baseline
  alternates), or given correlated noise draws on the simulated one.

The rows of all instances form the strategy's one set, tagged with their
instance id and laid out in `key_order`, by (instance, repetition): only
independent's rows need a sort. Seed derivation is keyed by instance id only,
never by strategy, so all strategies compared under one seed see the same
instance lottery: a gate opens its instances once (`open_instances`), and
each strategy starts them from the state they opened in.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .analysis import relative_change
from .config import ExperimentConfig, VariabilityModel
from .measurement import CLOCKS, STRATEGIES, MeasurementSet, Strategy, default_clock, key_order
from .simenv import draw_noise, draw_pair_noise, sample_instance, simulate_invocations

if TYPE_CHECKING:
    from .executor import DuetExecutor  # only a live gate loads the executor


def _instance_streams(seed: int, instance_id: int) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    """(lottery, noise, order) generators for one instance, strategy-agnostic.

    Every seeded stream is `SeedSequence(seed, spawn_key=(purpose, key))`, built in this module:
    purpose 0 keys these per-instance streams by instance id, purpose 3 the random pairing by the
    strategy's index in `STRATEGIES` (`pair_measurements`). Purposes 1 and 2 keyed the Monte Carlo
    bootstrap and sweep, which the exact CI replaced; they are retired, not reused.
    """
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

    def __init__(self, model: VariabilityModel, seed: int, instance_id: int) -> None:
        lottery, self._noise_rng, self.order_rng = _instance_streams(seed, instance_id)
        self.model = model
        self.quality, self.drift_phase = sample_instance(model, lottery)
        self._opening = self._noise_rng.bit_generator.state, self.order_rng.bit_generator.state
        self.reset()

    def reset(self) -> None:
        """Back to the state the instance opened in: its streams at their first draws, its clock at 0, cold."""
        self._noise_rng.bit_generator.state, self.order_rng.bit_generator.state = self._opening
        self._t, self._warm = 0.0, False

    def run(self, strategy, specs, version, clock) -> tuple[np.ndarray, np.ndarray, None]:
        """The simulated durations and cold flags of the invocations laid out in `version`; no results."""
        n = len(version)
        paired = strategy is Strategy.DUET  # rows 2k and 2k + 1 are one pair, in one slot
        slots = np.cumsum(np.r_[self._t, np.full(n // 2 if paired else n, self.model.time_step_s)])
        self._t = float(slots[-1])
        if paired:
            noise, t = draw_pair_noise(self.model, self._noise_rng, n // 2), np.repeat(slots[:-1], 2)
        else:
            noise, t = draw_noise(self.model, self._noise_rng, n), slots[:-1]
        cold = np.zeros(n, bool)
        cold[:1] = not self._warm
        self._warm |= n > 0
        return simulate_invocations(self.model, self.quality, self.drift_phase, specs, version, t, noise, cold), cold, None


class LiveInstance:
    """One live 'instance': a duet executor plus this process for solo runs, and the seeded order stream of rmit."""

    def __init__(self, executor: DuetExecutor, seed: int, instance_id: int) -> None:
        self.executor = executor
        self.order_rng = _instance_streams(seed, instance_id)[2]
        self._opening = self.order_rng.bit_generator.state

    def reset(self) -> None:
        """Back to the order stream's first draw."""
        self.order_rng.bit_generator.state = self._opening

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


def instance_repetitions(total: int, instances: int) -> list[int]:
    """ceil(total/instances) per instance, truncated so the sum equals total."""
    per = math.ceil(total / instances)
    return [min(per, max(total - i * per, 0)) for i in range(instances)]


def open_instances(cfg: ExperimentConfig,
                   executor: DuetExecutor | None = None) -> dict[int, SimulatedInstance | LiveInstance]:
    """The instances of `cfg` that run a repetition, by id: simulated ones, or live ones sharing `executor`."""
    return {i: SimulatedInstance(cfg.model, cfg.seed, i) if executor is None else LiveInstance(executor, cfg.seed, i)
            for i, reps in enumerate(instance_repetitions(cfg.repetitions, cfg.instances)) if reps}


def run_strategy(cfg: ExperimentConfig, strategy: Strategy,
                 instances: dict[int, SimulatedInstance | LiveInstance]) -> MeasurementSet:
    """Run `strategy` on each of `cfg`'s `instances` (`open_instances`), each reset to its opening."""
    specs, clock = cfg.specs(), cfg.clock or default_clock(strategy)
    shares, parts = instance_repetitions(cfg.repetitions, cfg.instances), []
    for instance_id, instance in instances.items():
        instance.reset()
        reps = shares[instance_id]
        repetition, position = np.repeat(np.arange(reps), 2), np.int8(-1)  # an order_position of -1 is none
        if strategy is Strategy.INDEPENDENT:  # all baseline invocations first, then all candidate invocations
            version, repetition = np.repeat([0, 1], reps), np.tile(np.arange(reps), 2)
        elif strategy is Strategy.RMIT:  # a fair coin from the instance's order stream orders each trial
            baseline_first = instance.order_rng.integers(0, 2, size=reps) == 0
            version = np.stack([~baseline_first, baseline_first], axis=1).ravel()
            position = np.tile(np.int8([0, 1]), reps)
        else:  # duet: one (baseline, candidate) pair per repetition
            version = np.tile([0, 1], reps)
        version = version.astype(np.int8)
        duration, cold, result = instance.run(strategy, specs, version, clock)
        n = len(version)
        parts.append((duration, np.full(n, instance_id), repetition, version, cold, np.broadcast_to(position, n), result))
    *columns, results = zip(*parts)
    columns = dict(zip(("duration_ns", "instance_id", "repetition", "version", "cold", "order_position"),
                       map(np.concatenate, columns)))
    order = key_order(columns["instance_id"], columns["repetition"])  # stable: in-repetition order kept
    return MeasurementSet(
        strategy, (specs[0].version_label, specs[1].version_label), **{name: c[order] for name, c in columns.items()},
        clock_mode=np.full(len(order), CLOCKS.index(clock), np.int8),
        result=None if results[0] is None else np.array([r for part in results for r in part], object)[order],
    )


def pair_measurements(mset: MeasurementSet, seed: int | None) -> np.ndarray:
    """Match baseline and candidate measurements into per-repetition changes.

    With seed None, pairs are formed per (instance, repetition); for the
    independent strategy that equals pairing the i-th baseline invocation with
    the i-th candidate invocation. A seed instead permutes the candidates
    within each instance, drawing from the strategy's purpose-3 stream, which
    depends on the seed and the strategy alone, so a re-analysis pairs as its run did.
    Returns the relative changes in percent, `(t_b - t_a) / t_a * 100`, as a
    float64 array in (instance, repetition) order.
    """
    order = mset.pair_order()
    base, cand = mset.duration_ns[order[0::2]], mset.duration_ns[order[1::2]]
    if seed is not None and len(cand):  # 0 is a seed
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3, STRATEGIES.index(mset.strategy))))
        inst = mset.instance_id[order[0::2]]
        starts = np.flatnonzero(np.r_[True, inst[1:] != inst[:-1]])
        for start, stop in zip(starts, [*starts[1:], len(cand)]):
            cand[start:stop] = cand[start:stop][rng.permutation(stop - start)]
    return relative_change(base, cand)
