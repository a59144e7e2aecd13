from __future__ import annotations

import statistics
import time

import pytest

from duetbench.errors import InvalidRegressionError, InvalidWorkloadError
from duetbench.workloads import WorkloadKind, WorkloadSpec, run_workload


def brute_force_primes(limit: int) -> list[int]:
    """Independent oracle: trial-division primality over [2, limit]."""
    primes = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            primes.append(n)
    return primes


def test_effective_scale_five_percent_on_million():
    spec = WorkloadSpec(WorkloadKind.MEM_SIEVE, 1_000_000, "B", 5.0)
    assert spec.effective_scale == 1_050_000


def test_effective_scale_zero_regression_identity():
    spec = WorkloadSpec(WorkloadKind.CPU_MUTATION, 10_000, "A", 0.0)
    assert spec.effective_scale == 10_000


@pytest.mark.parametrize(
    "scale,pct,expected",
    [
        (1000, 30.0, 1300),  # binary 0.3 rounds down without exact arithmetic
        (1000, 0.1, 1001),
        (999, 5.0, 1048),  # floor(999 * 1.05) = floor(1048.95)
        (2, 0.0, 2),
    ],
)
def test_effective_scale_exact_decimal_arithmetic(scale, pct, expected):
    assert WorkloadSpec(WorkloadKind.MEM_SIEVE, scale, "B", pct).effective_scale == expected


def test_sieve_matches_brute_force_oracle():
    primes = brute_force_primes(30)
    assert len(primes) == 10  # {2,3,5,7,11,13,17,19,23,29}
    result = run_workload(WorkloadSpec(WorkloadKind.MEM_SIEVE, 30, "A"))
    assert result.units_done == len(primes)
    assert result.checksum == sum(primes) % 2**64


@pytest.mark.parametrize("limit", [2, 17, 100, 1000])
def test_sieve_oracle_various_limits(limit):
    primes = brute_force_primes(limit)
    result = run_workload(WorkloadSpec(WorkloadKind.MEM_SIEVE, limit, "A"))
    assert result.units_done == len(primes)
    assert result.checksum == sum(primes) % 2**64


def test_sieve_smallest_scale():
    result = run_workload(WorkloadSpec(WorkloadKind.MEM_SIEVE, 2, "A"))
    assert result.units_done == 1


def test_invalid_scale_rejected():
    with pytest.raises(InvalidWorkloadError):
        WorkloadSpec(WorkloadKind.MEM_SIEVE, 1, "A")
    with pytest.raises(InvalidWorkloadError):
        WorkloadSpec("no_such_kind", 100, "A")


def test_negative_regression_rejected():
    with pytest.raises(InvalidRegressionError):
        WorkloadSpec(WorkloadKind.CPU_MUTATION, 100, "B", -1.0)


@pytest.mark.parametrize("kind", list(WorkloadKind))
def test_determinism_bit_identical_reruns(kind):
    spec = WorkloadSpec(kind, 5000, "A", 3.0)
    assert run_workload(spec) == run_workload(spec)


@pytest.mark.parametrize("kind", list(WorkloadKind))
def test_version_label_does_not_affect_work(kind):
    a = WorkloadSpec(kind, 4000, "A", 0.0)
    b = WorkloadSpec(kind, 4000, "B", 0.0)
    assert run_workload(a) == run_workload(b)


def test_cpu_mutation_units_follow_effective_scale():
    spec = WorkloadSpec(WorkloadKind.CPU_MUTATION, 1000, "B", 5.0)
    assert run_workload(spec).units_done == 1050


def test_cpu_time_grows_with_five_percent_more_work():
    # CPU clocks on some kernels tick at 10ms, so the workload must be large
    # enough that a 5% gap clears the per-run accounting noise of the mean.
    base = WorkloadSpec(WorkloadKind.CPU_MUTATION, 320_000, "A")
    bigger = WorkloadSpec(WorkloadKind.CPU_MUTATION, 320_000, "B", 5.0)
    assert bigger.effective_scale == 336_000

    # Interleaved (A, B, A, B, ...), so that drift of the host over the runs
    # weighs on both sides alike.
    t_base, t_bigger = [], []
    for _ in range(31):
        for spec, times in ((base, t_base), (bigger, t_bigger)):
            t0 = time.thread_time_ns()
            run_workload(spec)
            times.append(time.thread_time_ns() - t0)
    assert statistics.mean(t_bigger) > statistics.mean(t_base)
    assert statistics.median(t_bigger) >= statistics.median(t_base)
