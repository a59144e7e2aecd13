"""Statistical analysis: relative changes, percentile bootstrap CIs, verdicts.

The relative performance change of a candidate B against a baseline A is

    change_pct = (t_b - t_a) / t_a * 100

i.e. positive values mean B is slower. The confidence interval of the median
change is a percentile bootstrap: resample the paired changes with
replacement, take the median of every resample, then trim equal tails of the
resulting medians (sort ascending, drop floor(n*(1-level)/2) values from each
end; the remaining extremes are the bounds). This makes no distributional
assumptions about the measurements.

No resample is drawn: the distribution of a resample's median is a closed
form in the sorted samples (Maritz & Jarrett, JASA 1978; Efron 1982), so
`bootstrap_ci` returns the limit of that trimming rule as the number of
resamples grows without bound. Over all n**n equally likely resamples of a
small set it gives the bits that trimming rule gives over their medians.
"""

from __future__ import annotations

import bisect
import functools
import math
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Sequence

import numpy as np

from .errors import EmptySamplesError, InsufficientSamplesError
from .measurement import MeasurementSet

DEFAULT_LEVEL = 0.99
DEFAULT_RESAMPLES = 10_000
MIN_RESAMPLES = 1000
MIN_SAMPLE_SIZE = 50

# Bootstrapping below ~50 samples is known to underestimate interval size,
# so bootstrap_ci refuses rather than silently returning a too-narrow CI.

# A share of the median's distribution within this of a tail share counts as equal to it, as the trimming rule
# takes its count floor(n*(1-level)/2) with 1e-9 of slack: the log-factorial arithmetic is good to about 1e-11.
_SLACK = 1e-9
# Even n: ranks whose q_i is below e**_LOG_CUT are left out; together they move F by far less than _SLACK.
_LOG_CUT = -46.0
# For even n, a resample's two middle draws lie _GAP or more ranks apart with a chance below e**-31.
_GAP = 64
# np.exp is some 15 (to 0.0) to 120 (to a subnormal) times slower below about -708, so tail sums raise their log
# terms to this floor first. A raised term adds under e**-700: it moves a sum F by at most its last bit, far below
# the 1e-11 the log-factorial arithmetic is good to.
_EXP_FLOOR = -700.0
# log k! by math.lgamma for k = 0 .. the largest n any bootstrap_ci call has asked for, shared by every call in the
# process. It grows only to that n (8 bytes a value), under _LOG_FACT_LOCK, and is replaced, never written in place.
_LOG_FACT = np.zeros(0)
_LOG_FACT_LOCK = threading.Lock()


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
    cold = mset.cold[order]
    keep = np.empty(len(order), dtype=bool)
    keep[order] = np.repeat(~(cold[0::2] | cold[1::2]), 2)
    return mset[keep]


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n: a read-only prefix of the shared table."""
    global _LOG_FACT
    with _LOG_FACT_LOCK:
        if _LOG_FACT.size <= n:
            _LOG_FACT = np.append(_LOG_FACT, [math.lgamma(k + 1) for k in range(_LOG_FACT.size, n + 1)])
            _LOG_FACT.flags.writeable = False
        return _LOG_FACT[: n + 1]


def _first_true(key: Callable[[float], bool], x: np.ndarray, guess: int) -> int:
    """bisect.bisect_left(x, True, key=key) for an ascending x and a key False, then True, without asking key(x[-1]).
    Steps 1, 2, 4, ... out from `guess`, clamped into 0..n-2, until the switch is bracketed, then bisects the bracket;
    as key holds alike over a run of equal values, each answer moves the bracket's end to the far end of the value's
    run. At most 2 * log2(d + 1) + 2 calls of key, d the distance from the clamped guess to the result."""
    lo, hi, step, bisecting = -1, len(x) - 1, 1, False  # key is False at lo (-1 stands before index 0), True at hi
    t = min(max(guess, 0), len(x) - 2)
    while hi - lo > 1:
        if bisecting or not lo < t < hi:  # the first step back across the switch lands beyond lo or hi
            bisecting, t = True, (lo + hi) // 2
        if key(x[t]):
            hi = int(x.searchsorted(x[t], "left"))
            t = hi - step
        else:
            lo = int(x.searchsorted(x[t], "right")) - 1
            t = lo + step
        step *= 2
    return hi


def bootstrap_ci(
    samples: Sequence[float] | np.ndarray,
    level: float = DEFAULT_LEVEL,
    resamples: int = DEFAULT_RESAMPLES,
    *,
    min_samples: int = MIN_SAMPLE_SIZE,
) -> ConfidenceInterval:
    """Percentile bootstrap CI of the median relative change, computed exactly.

    The bounds are those the trimming rule (module docstring) gives over the
    medians of resamples drawn with replacement, in the limit of infinitely many
    resamples: with F the distribution function of a resample's median and
    a = (1 - level) / 2, the lower bound is the smallest value v with
    F(v) > a and the upper the smallest with F(v) >= 1 - a. `resamples` is
    checked but does not change them.

    With x sorted, 1-based ranks, h = n // 2 and N_j ~ Binom(n, j/n) the
    draws on ranks <= j, a resample's median is x at its (h+1)-th smallest
    rank for odd n, so F(x_j) = P(N_j >= h+1). For even n it is
    (x_L + x_U) / 2, as `np.median` computes it, over the h-th and (h+1)-th
    smallest ranks L and U. Summing P(L = i, U = j) over j telescopes:
    F(v) = P(N_I >= h) - sum over i <= I of q_i * ((n - J_i) / (n - i))**(n - h),
    where q_i = P(N_i = h) * (1 - ((i-1)/i)**h), I = #{x <= v} and
    J_i = #{j : (x_i + x_j) / 2 <= v}. Each bound is found over the order
    statistics first, then by bisection over the pair means in the last gap.

    A resample median's rank is near normal around h with spread sqrt(n)/2,
    so each bound's search starts at index h + z * sqrt(n) / 2, z the normal
    quantile of its tail share, and steps out from there (`_first_true`). As
    F grows with v, the search returns what bisecting all of x returns; the
    guess sets only how often F is computed (twice per bound, mostly).
    """
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise EmptySamplesError("cannot bootstrap zero samples")
    if not np.isfinite(values).all():
        raise ValueError("bootstrap samples must all be finite")
    if values.size < min_samples:
        raise InsufficientSamplesError(
            f"bootstrap needs >= {min_samples} samples, got {values.size}; "
            "intervals over fewer samples come out too narrow"
        )
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"resamples must be >= {MIN_RESAMPLES}, got {resamples}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    x = np.sort(values)
    n, half = x.size, x.size // 2
    log_fact = _log_factorials(n)
    log_choose = log_fact[n] - log_fact - log_fact[::-1]
    ks = np.arange(n + 1.0)  # k = 0..n and, read backwards, n - k
    tail = (1.0 - level) / 2

    def log_pmf(k: int | slice, ranks: Any) -> Any:
        """log P(N_ranks = k), for 0 < ranks < n and k an index or a slice of 0..n."""
        return log_choose[k] + ks[k] * np.log(ranks / n) + ks[::-1][k] * np.log((n - ranks) / n)

    @functools.cache  # the bisection over pair means probes ranks again
    def at_least(count: int, ranks: int) -> float:
        """P(N_ranks >= count)."""
        return 1.0 if ranks == n else float(np.exp(np.maximum(log_pmf(slice(count, None), ranks), _EXP_FLOOR)).sum())

    if n % 2:
        def cdf(v: float, ranks: int) -> float:
            return at_least(half + 1, ranks)
    else:
        # Only ranks i where q_i carries mass, each with its pair means up to _GAP ranks on (+inf past x_n). As
        # log_pmf(half, i) is concave in i, they form one run around half. It lies within 5 sqrt(n) of half: there
        # P(N_i = half) <= exp(-n KL(half/n || i/n)) <= exp(-2 (i - half)**2 / n) <= e**-50 (Pinsker), below _LOG_CUT.
        reach = math.ceil(5 * math.sqrt(n))
        i = np.arange(max(half - reach, 1), min(half + reach + 1, n))
        log_q = log_pmf(half, i)
        kept = np.flatnonzero(log_q > _LOG_CUT)
        i, log_q = i[kept[0] : kept[-1] + 1], log_q[kept[0] : kept[-1] + 1]
        q = np.exp(log_q) * (1 - ((i - 1) / i) ** half)
        rest = n - i  # n - J_i is rest + 1 - the count of row i's pair means <= v
        full = q * (np.maximum(rest + 1 - _GAP, 0) / rest) ** (n - half)  # row terms with all _GAP means <= v
        # x at ranks i .. i + _GAP - 1 of each row i: its pair means are (partners[:, :1] + partners) / 2, built
        # only for the rows whose means straddle a value.
        padded = np.concatenate((x, np.full(_GAP, np.inf)))
        partners = np.lib.stride_tricks.as_strided(padded[i[0] - 1 :], (len(i), _GAP), padded.strides * 2,
                                                   writeable=False)
        last = (partners[:, 0] + partners[:, -1]) / 2  # each row's largest pair mean

        def cdf(v: float, ranks: int) -> float:
            rows = i.searchsorted(ranks, "right")  # i <= I, so J_i >= i
            part = slice(last[:rows].searchsorted(v, "right"), rows)  # rows ascend both ways: those before lie <= v
            below = ((partners[part, :1] + partners[part]) / 2 <= v).sum(axis=1)
            terms = q[part] * ((rest[part] + 1 - below) / rest[part]) ** (n - half)
            return at_least(half, ranks) - float(np.concatenate((full[: part.start], terms)).sum())

    def smallest(holds: Callable[[float], bool], z: float) -> float:
        """The smallest value v a median can take with holds(F(v)), searched from z; F(x_n) = 1 holds."""
        @functools.cache  # tied samples give one value many indices
        def key(v: float) -> bool:
            return holds(cdf(v, int(np.searchsorted(x, v, "right"))))

        t = _first_true(key, x, math.floor(half + z * math.sqrt(n) / 2))
        if n % 2 or t == 0:
            return float(x[t])
        # The pair means in (x[t-1], x[t]) belong to rows i <= t whose means straddle x[t-1]. Of equal means,
        # bisect_left returns the first, the one np.unique keeps.
        rows = slice(last.searchsorted(x[t - 1], "right"), i.searchsorted(t, "right"))
        means = (partners[rows, :1] + partners[rows]) / 2
        between = np.append(np.sort(means[(means > x[t - 1]) & (means < x[t])]), x[t])  # x[t] tops them
        return float(between[bisect.bisect_left(between, True, key=key)])

    z = 0.0  # Phi(z) = tail, by Newton's method from 0: Phi is convex below 0, so no step overshoots
    while abs(step := (math.erfc(-z / math.sqrt(2)) / 2 - tail) * math.sqrt(2 * math.pi) * math.exp(z * z / 2)) > 1e-3:
        z -= step
    return ConfidenceInterval(
        lower_pct=smallest(lambda f: f > tail + _SLACK, z),
        upper_pct=smallest(lambda f: f >= 1.0 - tail - _SLACK, -z),
        level=level,
    )


def verdict(ci: ConfidenceInterval, threshold_pct: float) -> Verdict:
    """Gate decision: the whole CI must clear the threshold either way."""
    if ci.lower_pct > threshold_pct:
        return Verdict.REGRESSION
    if ci.upper_pct < threshold_pct:
        return Verdict.PASS
    return Verdict.INCONCLUSIVE
