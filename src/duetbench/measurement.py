"""Measurements: one row type, one columnar set, and the enums that tag them.

A `MeasurementSet` holds one strategy run as numpy columns; everything
downstream (pairing, cold filtering, bootstrap analysis, CSV export) works on
those columns, whether they came from the live executor or the simulated
platform. A `Measurement` is one row of a set, one timed invocation of one
workload version, built when the set is read as a sequence. Runs and pairing
order rows one way, by (instance, repetition) with `key_order`.
"""

from __future__ import annotations

from collections.abc import Sequence
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
STRATEGIES = tuple(Strategy)  # a strategy's index here is its code: in the raw.csv reader and the pairing stream's key


def key_order(instance_id: np.ndarray, repetition: np.ndarray) -> np.ndarray:
    """Row positions in stable (instance, repetition) order; rows whose keys already ascend are not sorted."""
    inst, rep = instance_id, repetition
    if ((inst[1:] > inst[:-1]) | (inst[1:] == inst[:-1]) & (rep[1:] >= rep[:-1])).all():
        return np.arange(len(inst))
    return np.lexsort((rep, inst))


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
    order_position: np.ndarray = _column(np.int8)  # -1 for none
    clock_mode: np.ndarray = _column(np.int8)  # index into CLOCKS
    result: np.ndarray = _column(object, None)  # None: no workload results, as on the simulated backend

    def __post_init__(self) -> None:
        if self.version_labels[0] == self.version_labels[1]:
            raise ValueError(f"the two versions need distinct labels, both are {self.version_labels[0]!r}")
        if self.result is None:
            self.result = np.broadcast_to(np.array(None, object), len(self.duration_ns))  # a read-only view of one None
        for name, dtype in COLUMNS.items():  # the codes narrow after their range checks, so 257 cannot wrap to 1
            setattr(self, name, np.asarray(getattr(self, name), None if name in _CODES else dtype))
        if len({len(getattr(self, name)) for name in COLUMNS}) > 1:
            raise ValueError("measurement columns differ in length")
        for name, least, most, rule in (("duration_ns", 1, np.inf, "> 0"), ("instance_id", 0, np.inf, ">= 0"),
                                        ("repetition", 0, np.inf, ">= 0"),
                                        ("version", 0, 1, "0 (baseline) or 1 (candidate)"),
                                        ("order_position", -1, 1, "-1 (none), 0 or 1"),
                                        ("clock_mode", 0, len(CLOCKS) - 1, "an index into CLOCKS")):
            column = getattr(self, name)
            if len(column) and not (least <= column.min() and column.max() <= most):
                raise ValueError(f"{name} must be {rule}, got {column[(column < least) | (column > most)][0]}")
        for name in _CODES:
            setattr(self, name, getattr(self, name).astype(np.int8, copy=False))

    def pair_order(self) -> np.ndarray:
        """Row positions by (instance, repetition, version): each pair's baseline, then its candidate.

        In key order (`key_order`), rows 2k and 2k + 1 must hold key k's one baseline and one candidate;
        candidate-first pairs, as rmit runs them, are swapped. PairingError names the first
        (instance, repetition) keys without exactly one row of each."""
        order = key_order(self.instance_id, self.repetition)
        inst, rep, version = self.instance_id[order], self.repetition[order], self.version[order]
        new = (inst[1:] != inst[:-1]) | (rep[1:] != rep[:-1])  # row k + 1 starts a key
        if len(order) % 2 or not new[1::2].all() or new[0::2].any() or (version[0::2] == version[1::2]).any():
            starts = np.r_[0, np.flatnonzero(new) + 1]
            broken = (np.diff(np.r_[starts, len(order)]) != 2) | (np.add.reduceat(version, starts) != 1)
            at = starts[broken][:5]
            keys = list(zip(inst[at].tolist(), rep[at].tolist()))
            raise PairingError(f"measurements do not form whole pairs at (instance, repetition) {keys}")
        swapped = np.flatnonzero(version[0::2]) * 2
        order[swapped], order[swapped + 1] = order[swapped + 1], order[swapped]
        return order

    @property
    def measurements(self) -> MeasurementSet:
        return self

    def __len__(self) -> int:
        return len(self.duration_ns)

    def __getitem__(self, i: Any) -> Measurement | MeasurementSet:
        """Row `i` as a Measurement; a slice, index array or mask selects a set of rows, in that order."""
        if not isinstance(i, (int, np.integer)):
            columns = {name: getattr(self, name)[i] for name in COLUMNS if name != "result"}
            result = None if self.result.strides[0] == 0 else self.result[i]  # the shared None stays one view
            return MeasurementSet(self.strategy, self.version_labels, result=result, **columns)
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
_CODES = tuple(name for name, dtype in COLUMNS.items() if dtype is np.int8)  # version, order_position, clock_mode
