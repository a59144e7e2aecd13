"""Statistical analysis: relative changes, percentile bootstrap CIs, verdicts.

The relative performance change of a candidate B against a baseline A is

    change_pct = (t_b - t_a) / t_a * 100

i.e. positive values mean B is slower. The confidence interval of the median
change is a percentile bootstrap: resample the paired changes with
replacement, take the median of every resample, then trim equal tails of the
resulting medians (sort ascending, drop floor(n*(1-level)/2) values from each
end; the remaining extremes are the bounds). This makes no distributional
assumptions about the measurements.

The bootstrap never gathers floats: it sorts the samples once, turns each
resample's drawn indices into ranks and finds the middle ranks by a partial
sort of small integers (see `bootstrap_ci`). Sorting is monotone, so the
k-th smallest rank names the k-th smallest value, and the draws are those of
a plain gather: the bounds are the bits `np.median` over `values[idx]` gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Sequence

import numpy as np

from .errors import EmptySamplesError, InsufficientSamplesError, SweepRangeError
from .measurement import MeasurementSet

DEFAULT_LEVEL = 0.99
DEFAULT_RESAMPLES = 10_000
MIN_RESAMPLES = 1000
MIN_SAMPLE_SIZE = 50

# Bootstrapping below ~50 samples is known to underestimate interval size,
# so bootstrap_ci refuses rather than silently returning a too-narrow CI.

# Resamples are drawn in chunks whose int64 index block stays near this size,
# so memory does not grow with n; any split gives the same index stream. Strategies are bootstrapped side
# by side (`harness._analyze_all`), so each chunk's blocks are alive once per thread.
_CHUNK_BYTES = 256 << 10


@dataclass(frozen=True)
class ConfidenceInterval:
    lower_pct: float
    upper_pct: float
    level: float
    width_pp: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        if self.lower_pct > self.upper_pct:
            raise ValueError(f"lower bound {self.lower_pct} exceeds upper bound {self.upper_pct}")
        object.__setattr__(self, "width_pp", self.upper_pct - self.lower_pct)


class Verdict(str, Enum):
    PASS = "pass"
    REGRESSION = "regression"
    INCONCLUSIVE = "inconclusive"


def relative_change(t_a: Any, t_b: Any) -> Any:
    """Percent change of candidate duration t_b relative to baseline t_a (numbers or arrays)."""
    if np.any(np.asarray(t_a) <= 0):
        raise ZeroDivisionError(f"baseline duration must be > 0, got {np.min(t_a)}")
    return (t_b - t_a) / t_a * 100.0


def filter_cold_starts(mset: MeasurementSet) -> MeasurementSet:
    """Drop cold-start measurements, removing affected pairs whole.

    Rows are grouped into pairs as pairing groups them (`MeasurementSet.pair_order`), so a
    set that is not whole pairs raises PairingError. A pair with any cold member is discarded
    whole, so no repetition survives half-measured; the rest keep their order.
    """
    order = mset.pair_order()
    drop = np.empty(len(order), dtype=bool)
    drop[order] = np.repeat(mset.cold[order].reshape(-1, 2).any(axis=1), 2)
    return mset[~drop]


def _trim_count(n: int, level: float) -> int:
    # Tiny epsilon corrects binary float drift for decimal levels such as
    # 0.90, where n*(1-level)/2 lands a hair below the intended integer.
    return int(math.floor(n * (1.0 - level) / 2.0 + 1e-9))


def percentile_interval(samples: Sequence[float], level: float) -> ConfidenceInterval:
    """Equal-tail trimming interval over raw samples.

    Sort ascending (stable), remove floor(n*(1-level)/2) values from each
    end, and return the remaining minimum and maximum as the bounds.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise EmptySamplesError("cannot build an interval from zero samples")
    ordered = np.sort(values, kind="stable")
    k = _trim_count(ordered.size, level)
    return ConfidenceInterval(lower_pct=float(ordered[k]), upper_pct=float(ordered[ordered.size - 1 - k]), level=level)


def bootstrap_ci(
    samples: Sequence[float] | np.ndarray,
    level: float = DEFAULT_LEVEL,
    resamples: int = DEFAULT_RESAMPLES,
    rng: np.random.Generator | int | None = None,
    *,
    min_samples: int = MIN_SAMPLE_SIZE,
) -> ConfidenceInterval:
    """Percentile bootstrap CI of the median relative change.

    Draws `resamples` same-size resamples with replacement, takes the median
    of each and applies `percentile_interval` to the medians. `samples` are
    plain numbers; `rng` may be a Generator or a seed.

    Each resample's median comes from ranks: the samples are sorted once
    (stable, so tied values get distinct ranks), a resample's drawn indices
    become ranks (int16 up to 32 767 samples, int32 above), and the row is
    partitioned in place at n // 2. That rank is the upper middle; for even
    n the lower middle is the largest rank left of it. The median is the
    sorted value at the upper middle for odd n and `(lower + upper) / 2` for
    even n, the same mean of the two middle values `np.median` computes, so
    the bounds are bit-identical to taking `np.median` of the gathered rows.
    (Where both -0.0 and +0.0 occur, which of those equal zeros a median
    lands on may differ.)
    """
    values = np.asarray(samples, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("bootstrap samples must all be finite")
    if values.size < min_samples:
        raise InsufficientSamplesError(
            f"bootstrap needs >= {min_samples} samples, got {values.size}; "
            "intervals over fewer samples come out too narrow"
        )
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"resamples must be >= {MIN_RESAMPLES}, got {resamples}")
    gen = np.random.default_rng(rng)
    n = values.size
    half = n // 2
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    rank = np.empty(n, dtype=np.int16 if n <= np.iinfo(np.int16).max else np.int32)
    rank[order] = np.arange(n)
    rows = max(1, _CHUNK_BYTES // (8 * n))
    medians = np.empty(resamples, dtype=float)
    for done in range(0, resamples, rows):
        chunk = min(rows, resamples - done)
        ranks = rank[gen.integers(0, n, size=(chunk, n))]
        ranks.partition(half, axis=1)
        upper = ordered[ranks[:, half]]
        if n % 2:
            medians[done : done + chunk] = upper
        else:
            medians[done : done + chunk] = (ordered[ranks[:, :half].max(axis=1)] + upper) / 2
    return percentile_interval(medians, level)


def sweep_sample_size(
    samples: Sequence[float] | np.ndarray,
    start: int,
    stop: int,
    step: int,
    level: float = DEFAULT_LEVEL,
    resamples: int = DEFAULT_RESAMPLES,
    rng: np.random.Generator | int | None = None,
    *,
    min_samples: int = MIN_SAMPLE_SIZE,
) -> list[tuple[int, float]]:
    """CI width as a function of sample count.

    For each n in start, start+step, ..., stop (inclusive) the bootstrap CI
    is computed over the first n samples; returns the (n, width_pp) series.
    """
    values = np.asarray(samples, dtype=float)
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if start < min_samples:
        raise InsufficientSamplesError(f"sweep start {start} is below the minimum sample size {min_samples}")
    if start > stop:
        raise SweepRangeError(f"sweep start {start} exceeds stop {stop}")
    if stop > values.size:
        raise SweepRangeError(f"sweep stop {stop} exceeds the {values.size} available samples")
    gen = np.random.default_rng(rng)
    series: list[tuple[int, float]] = []
    for n in range(start, stop + 1, step):
        ci = bootstrap_ci(values[:n], level, resamples, gen, min_samples=min_samples)
        series.append((n, ci.width_pp))
    return series


def verdict(ci: ConfidenceInterval, threshold_pct: float) -> Verdict:
    """Gate decision: the whole CI must clear the threshold either way."""
    if ci.lower_pct > threshold_pct:
        return Verdict.REGRESSION
    if ci.upper_pct < threshold_pct:
        return Verdict.PASS
    return Verdict.INCONCLUSIVE
