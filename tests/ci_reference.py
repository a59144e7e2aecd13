"""References the exact median CI is checked against.

`percentile_interval` is the equal-tail trimming rule of `duetbench.analysis`
over given values: over the medians of all n**n resamples of a small set, it
gives the bounds `bootstrap_ci` must give bit for bit.

`bootstrap_ci` is `duetbench.analysis.bootstrap_ci` as it computed the bounds
before its log-factorial table was shared, its tail sums memoised, its probes
decided by Hoeffding's bound and its pair means counted by whole rows. It
evaluates the distribution function F in full at every probe, so tests can
hold the program's bounds to it bit for bit. `at_least` is lifted out of the
function, unchanged, so tests can also read the full tail sum at any rank.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from duetbench.analysis import ConfidenceInterval
from duetbench.errors import EmptySamplesError

_SLACK = 1e-9
_LOG_CUT = -46.0
_GAP = 64


def _trim_count(n, level):
    # Tiny epsilon corrects binary float drift for decimal levels such as
    # 0.90, where n*(1-level)/2 lands a hair below the intended integer.
    return int(math.floor(n * (1.0 - level) / 2.0 + 1e-9))


def percentile_interval(samples, level):
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


def tables(n):
    """log_pmf(k, ranks) = log P(N_ranks = k) and at_least(count, ranks) = P(N_ranks >= count), N_j ~ Binom(n, j/n)."""
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    log_choose = log_fact[n] - log_fact - log_fact[::-1]

    def log_pmf(k, ranks):
        return log_choose[k] + k * np.log(ranks / n) + (n - k) * np.log((n - ranks) / n)

    def at_least(count, ranks):
        return 1.0 if ranks == n else float(np.exp(log_pmf(np.arange(count, n + 1), ranks)).sum())

    return log_pmf, at_least


def bootstrap_ci(samples, level):
    """(lower, upper) bounds of the exact percentile bootstrap CI of the median."""
    x = np.sort(np.asarray(samples, dtype=float))
    n, half = x.size, x.size // 2
    log_pmf, at_least = tables(n)

    if n % 2:
        def cdf(v):
            return at_least(half + 1, int(np.searchsorted(x, v, "right")))
    else:
        i = np.arange(1, n)
        i = i[log_pmf(half, i) > _LOG_CUT]
        q = np.exp(log_pmf(half, i)) * (1 - ((i - 1) / i) ** half)
        partner = np.minimum(i[:, None] - 1 + np.arange(min(_GAP, n)), n)
        means = (x[i - 1, None] + np.append(x, np.inf)[partner]) / 2

        def cdf(v):
            ranks = int(np.searchsorted(x, v, "right"))
            rows = slice(0, np.searchsorted(i, ranks, "right"))
            below = i[rows] - 1 + (means[rows] <= v).sum(axis=1)
            return at_least(half, ranks) - float((q[rows] * ((n - below) / (n - i[rows])) ** (n - half)).sum())

    def smallest(holds):
        t = bisect.bisect_left(x, True, key=lambda v: holds(cdf(v)))
        if n % 2 or t == 0:
            return float(x[t])
        between = np.append(np.unique(means[(means > x[t - 1]) & (means < x[t])]), x[t])
        return float(between[bisect.bisect_left(between, True, key=lambda v: holds(cdf(v)))])

    tail = (1.0 - level) / 2
    return smallest(lambda f: f > tail + _SLACK), smallest(lambda f: f >= 1.0 - tail - _SLACK)
