"""Measurements: one row type, one columnar set, and the enums that tag them.

A `Measurement` is one timed invocation of one workload version, the row the
live executor returns. A `MeasurementSet` holds one strategy run as numpy
columns; everything downstream (pairing, cold filtering, bootstrap analysis,
CSV export) works on those columns, whether they came from the live executor
or the simulated platform.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any

import numpy as np

from .errors import PairingError
from .workloads import WorkResult


class Strategy(str, Enum):
    """How the two versions are invoked relative to each other."""

    INDEPENDENT = "independent"
    RMIT = "rmit"
    DUET = "duet"


class ClockMode(str, Enum):
    """What the duration of an invocation is measured with.

    CPU_TIME is per-thread CPU time; WALL_CLOCK is the difference of
    timestamps taken before and after the call. Default policy: duet
    invocations use CPU_TIME, the sequential strategies use WALL_CLOCK.
    A config override can force either clock everywhere.
    """

    CPU_TIME = "cpu_time"
    WALL_CLOCK = "wall_clock"


class Backend(str, Enum):
    """Where invocations actually run."""

    LIVE = "live"
    SIMULATED = "simulated"


class Pairing(str, Enum):
    """How a strategy's baseline and candidate invocations are matched into pairs."""

    INDEX = "index"
    RANDOM = "random"


def default_clock(strategy: Strategy) -> ClockMode:
    return ClockMode.CPU_TIME if strategy is Strategy.DUET else ClockMode.WALL_CLOCK


@dataclass(frozen=True)
class Measurement:
    """One timed invocation.

    `order_position` is only set for RMIT trials (0 = ran first in its trial).
    `result` carries the workload output for determinism checks; the simulated
    backend leaves it None since it models durations, not actual work.
    """

    duration_ns: int
    clock_mode: ClockMode
    version_label: str
    strategy: Strategy
    instance_id: int
    repetition: int
    cold: bool
    order_position: int | None = None
    result: WorkResult | None = None


CLOCKS = tuple(ClockMode)


def codes(cells: Sequence[str], values: Sequence[str], what: str) -> np.ndarray:
    """The index of each cell in `values`; ValueError names the first cell that is none of them."""
    index = {value: i for i, value in enumerate(values)}
    try:
        return np.fromiter(map(index.__getitem__, cells), np.int8, len(cells))
    except KeyError as exc:
        raise ValueError(f"{what} {exc.args[0]!r} is none of {list(values)}") from None


def version_codes(labels: tuple[str, str], names: Sequence[str], instance_id: Sequence[int],
                  repetition: Sequence[int]) -> np.ndarray:
    """Each name's index in `labels`; PairingError names the rows of any other label."""
    try:
        return codes(names, labels, "version label")
    except ValueError as exc:
        where = [(int(i), int(r)) for i, r, n in zip(instance_id, repetition, names) if n not in labels]
        raise PairingError(f"{exc} at (instance, repetition) {where[:5]}") from None


def _column(dtype: Any, default: Any = ()) -> Any:
    return field(default=default, metadata={"dtype": dtype})


@dataclass(eq=False)
class MeasurementSet(Sequence):
    """The measurements of one strategy run, one numpy column per field.

    `version_labels` is (baseline, candidate); pairing relies on it. Read as a sequence, the set
    yields `Measurement` rows, built on access; `len()` is O(1). `measurements` is the set itself.
    """

    strategy: Strategy
    version_labels: tuple[str, str]
    duration_ns: np.ndarray = _column(np.int64)
    instance_id: np.ndarray = _column(np.int64)
    repetition: np.ndarray = _column(np.int64)
    version: np.ndarray = _column(np.int8)  # index into version_labels
    cold: np.ndarray = _column(np.bool_)
    order_position: np.ndarray = _column(np.int64)  # -1 for none
    clock_mode: np.ndarray = _column(np.int8)  # index into CLOCKS
    result: np.ndarray = _column(object, None)  # None: no workload results, as on the simulated backend

    def __post_init__(self) -> None:
        if self.version_labels[0] == self.version_labels[1]:
            raise ValueError(f"the two versions need distinct labels, both are {self.version_labels[0]!r}")
        if self.result is None:
            self.result = np.full(len(self.duration_ns), None, object)
        for name, dtype in COLUMNS.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype))
        if len({len(getattr(self, name)) for name in COLUMNS}) > 1:
            raise ValueError("measurement columns differ in length")
        for name, bad, rule in (("duration_ns", self.duration_ns < 1, "> 0"), ("repetition", self.repetition < 0, ">= 0"),
                                ("order_position", abs(self.order_position) > 1, "-1 (none), 0 or 1")):
            if bad.any():
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)[bad][0]}")

    @classmethod
    def from_rows(cls, strategy: Strategy, version_labels: tuple[str, str], rows: Iterable[Measurement]) -> MeasurementSet:
        """The set of `rows`, in their order (the live backend's path)."""
        rows = list(rows)
        same = {name: [getattr(m, name) for m in rows] for name in ("duration_ns", "instance_id", "repetition", "cold")}
        return cls(
            strategy, version_labels, **same,
            version=version_codes(version_labels, [m.version_label for m in rows], same["instance_id"], same["repetition"]),
            order_position=[-1 if m.order_position is None else m.order_position for m in rows],
            clock_mode=[CLOCKS.index(m.clock_mode) for m in rows],
            result=np.fromiter((m.result for m in rows), object, len(rows)),
        )

    @classmethod
    def concat(cls, sets: Sequence[MeasurementSet]) -> MeasurementSet:
        """One set of `sets` in order; they share the first one's strategy and labels."""
        return cls(sets[0].strategy, sets[0].version_labels,
                   **{name: np.concatenate([getattr(s, name) for s in sets]) for name in COLUMNS})

    def pair_order(self) -> np.ndarray:
        """Row positions by (instance, repetition, version): each pair's baseline, then its candidate.

        PairingError names the first (instance, repetition) keys without exactly one row of each."""
        order = np.lexsort((self.version, self.repetition, self.instance_id))
        inst, rep = self.instance_id[order], self.repetition[order]
        starts = np.flatnonzero(np.r_[True, (inst[1:] != inst[:-1]) | (rep[1:] != rep[:-1])][: len(order)])
        # whole: every key has two rows, whose versions (sorted) are 0 and 1
        broken = (np.diff(np.r_[starts, len(order)]) != 2) | (np.add.reduceat(self.version[order], starts) != 1)
        if broken.any():
            at = starts[broken][:5]
            keys = list(zip(inst[at].tolist(), rep[at].tolist()))
            raise PairingError(f"measurements do not form whole pairs at (instance, repetition) {keys}")
        return order

    @property
    def measurements(self) -> MeasurementSet:
        return self

    def __len__(self) -> int:
        return len(self.duration_ns)

    def __getitem__(self, i: Any) -> Measurement | MeasurementSet:
        """Row `i` as a Measurement; a slice, index array or mask selects a set of rows, in that order."""
        if not isinstance(i, (int, np.integer)):
            return MeasurementSet(self.strategy, self.version_labels, **{name: getattr(self, name)[i] for name in COLUMNS})
        i = range(len(self))[i]
        position = int(self.order_position[i])
        return Measurement(
            duration_ns=int(self.duration_ns[i]),
            clock_mode=CLOCKS[self.clock_mode[i]],
            version_label=self.version_labels[self.version[i]],
            strategy=self.strategy,
            instance_id=int(self.instance_id[i]),
            repetition=int(self.repetition[i]),
            cold=bool(self.cold[i]),
            order_position=None if position < 0 else position,
            result=self.result[i],
        )


COLUMNS = {f.name: f.metadata["dtype"] for f in fields(MeasurementSet) if f.metadata}
