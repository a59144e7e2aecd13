"""Deterministic versioned benchmark workloads.

Two kinds of work are supported: a CPU-bound weight-vector mutation loop and a
memory-bound prime sieve. A workload spec fixes the kind, a scale parameter
and an injected regression percentage; the regression scales the *work*, not
the code path, so a "+5%" candidate really performs 5% more units of work.

Determinism matters more than realism here: the same spec always produces a
bit-identical `WorkResult`, which is what lets A/A experiments assert version
identity and what defeats dead-code elimination of the timed loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import compress
from math import isqrt

from .errors import InvalidRegressionError, InvalidWorkloadError

_MASK64 = (1 << 64) - 1

# Fixed-size weight vector for the CPU workload; small enough to stay cache
# resident so the loop is compute-bound rather than memory-bound.
_WEIGHTS = 64


class WorkloadKind(str, Enum):
    CPU_MUTATION = "cpu_mutation"
    MEM_SIEVE = "mem_sieve"


DEFAULT_SCALES = {WorkloadKind.CPU_MUTATION: 20_000, WorkloadKind.MEM_SIEVE: 200_000}


@dataclass(frozen=True)
class WorkloadSpec:
    """A deterministic, scalable unit of work with a version label; `kind` may be given by its value.

    `regression_pct` is the percent of extra work relative to the base scale;
    it is resolved at micro-percent (1e-6) granularity so that decimal inputs
    like 5.0 scale exactly.
    """

    kind: WorkloadKind
    scale: int
    version_label: str
    regression_pct: float = 0.0

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "kind", WorkloadKind(self.kind))
        except ValueError:
            raise InvalidWorkloadError(f"unknown workload kind: {self.kind!r}") from None
        if self.scale < 2:
            raise InvalidWorkloadError(f"scale must be >= 2, got {self.scale}")
        if self.regression_pct < 0:
            raise InvalidRegressionError(f"regression_pct must be >= 0, got {self.regression_pct}")

    @property
    def effective_scale(self) -> int:
        """floor(scale * (1 + regression_pct/100)), computed exactly."""
        pct_micro = round(self.regression_pct * 1_000_000)
        return self.scale + (self.scale * pct_micro) // 100_000_000


@dataclass(frozen=True)
class WorkResult:
    """Output digest of one workload run.

    `checksum` is an order-independent 64-bit modular sum of the values the
    workload computed; `units_done` counts iterations (CPU) or primes found
    (sieve). Identical specs always yield identical results.
    """

    checksum: int
    units_done: int


def run_workload(spec: WorkloadSpec) -> WorkResult:
    """Execute the work described by `spec` and return its digest."""
    n = spec.effective_scale
    if spec.kind is WorkloadKind.CPU_MUTATION:
        return _run_cpu_mutation(n)
    return _run_mem_sieve(n)


def _run_cpu_mutation(iterations: int) -> WorkResult:
    # Repeated in-place perturbation of a fixed 64-entry integer weight
    # vector, driven by an inline LCG with a fixed seed. One unit = one
    # mutation. The checksum accumulates every mutated value mod 2^64.
    weights = [(i * 0x9E3779B97F4A7C15) & _MASK64 for i in range(_WEIGHTS)]
    state = 0x9E3779B97F4A7C15
    checksum = 0
    mask = _MASK64
    for _ in range(iterations):
        state = (state * 6364136223846793005 + 1442695040888963407) & mask
        idx = state >> 58
        value = ((weights[idx] ^ state) * 0x2545F4914F6CDD1D) & mask
        weights[idx] = value
        checksum = (checksum + value) & mask
    return WorkResult(checksum=checksum, units_done=iterations)


def _run_mem_sieve(limit: int) -> WorkResult:
    # Classic Sieve of Eratosthenes over [2, limit] on a full byte array;
    # the bulk slice assignments are the memory-bound part.
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(flags[p * p :: p]))
    count = flags.count(1)
    checksum = sum(compress(range(limit + 1), flags)) & _MASK64
    return WorkResult(checksum=checksum, units_done=count)
