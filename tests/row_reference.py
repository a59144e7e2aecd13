"""Reference: the row-at-a-time simulator, merge, cold filter and pairing.

This is how duetbench measured a simulated gate before its measurements
became numpy columns: one Python call and one row per invocation, scalar
noise draws, a stable sort of the merged rows, a set-based cold filter and
dicts of dicts for pairing. It is deliberately plain and self-contained (it
reads only a config's fields), so that tests can hold the program's output
to it byte for byte: the same `raw.csv` and the same change arrays.
"""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple

import numpy as np

STRATEGY_CODE = {"independent": 0, "rmit": 1, "duet": 2}
HEADER = ("strategy", "instance_id", "repetition", "version", "duration_ns", "clock_mode", "cold", "order_position")

Row = namedtuple("Row", "strategy instance_id repetition version duration_ns clock_mode cold order_position")


def _lognormal_sigma(cv):
    return math.sqrt(math.log1p(cv * cv))


class Instance:
    """One simulated instance: its quality lottery, noise and order streams, and virtual clock."""

    def __init__(self, model, seed, instance_id):
        children = np.random.SeedSequence(seed, spawn_key=(0, instance_id)).spawn(3)
        lottery, self.noise, self.order = (np.random.default_rng(c) for c in children)
        self.model = model
        self.instance_id = instance_id
        quality = float(math.exp(lottery.normal(0.0, _lognormal_sigma(model.instance_quality_cv))))
        self.quality = min(max(quality, 0.5), 2.0)
        self.phase = float(lottery.uniform(0.0, 2.0 * math.pi))
        self.served = 0
        self.t = 0.0

    def invoke(self, spec, noise, strategy, repetition, clock, order_position=""):
        m = self.model
        cold = self.served == 0
        drift = 1.0 + m.drift_amplitude * math.sin(2.0 * math.pi * self.t / m.drift_period_s + self.phase)
        cost = spec.effective_scale * m.base_cost_ns_per_unit * self.quality * drift * noise
        if cold:
            cost += m.cold_penalty_ms * 1e6
        self.served += 1
        return Row(strategy, self.instance_id, repetition, spec.version_label, max(int(cost), 1), clock, cold,
                   order_position)

    def fresh_noise(self):
        return float(math.exp(self.noise.normal(0.0, self.model.temporal_sigma)))

    def single(self, spec, strategy, repetition, clock, order_position=""):
        row = self.invoke(spec, self.fresh_noise(), strategy, repetition, clock, order_position)
        self.t = self.t + self.model.time_step_s
        return row

    def pair(self, specs, repetition, clock):
        shared = self.fresh_noise()
        sigma = _lognormal_sigma(self.model.duet_jitter_cv)
        rows = []
        for spec in specs:
            jitter = float(math.exp(self.noise.normal(0.0, sigma)))
            rows.append(self.invoke(spec, shared * jitter, "duet", repetition, clock))
        self.t = self.t + self.model.time_step_s
        return rows


def run_instance(strategy, specs, inst, repetitions, clock):
    """One strategy's rows on one instance, in invocation order."""
    rows = []
    if strategy == "independent":
        for spec in specs:
            rows += [inst.single(spec, strategy, rep, clock) for rep in range(repetitions)]
    elif strategy == "rmit":
        for rep in range(repetitions):
            first, second = specs if inst.order.integers(0, 2) == 0 else (specs[1], specs[0])
            rows.append(inst.single(first, strategy, rep, clock, 0))
            rows.append(inst.single(second, strategy, rep, clock, 1))
    else:
        for rep in range(repetitions):
            rows += inst.pair(specs, rep, clock)
    return rows


def measure(cfg, strategy):
    """A strategy's rows over every instance, merged and stably sorted by (instance, repetition)."""
    clock = cfg.clock.value if cfg.clock is not None else ("cpu_time" if strategy == "duet" else "wall_clock")
    per = math.ceil(cfg.repetitions / cfg.instances)
    rows, left = [], cfg.repetitions
    for instance_id in range(cfg.instances):
        reps, left = min(per, left), left - min(per, left)
        if reps:
            rows += run_instance(strategy, cfg.specs(), Instance(cfg.model, cfg.seed, instance_id), reps, clock)
    rows.sort(key=lambda r: (r.instance_id, r.repetition))
    return rows


def raw_csv(results):
    """raw.csv bytes of (strategy, rows) results, one writerow per row."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(HEADER)
    for _, rows in results:
        for r in rows:
            writer.writerow([*r[:6], "true" if r.cold else "false", r.order_position])
    return buf.getvalue().encode("utf-8")


def changes(rows, labels, scheme, rng):
    """Cold-filtered, paired relative changes in percent, (instance, repetition) order."""
    cold = {(r.instance_id, r.repetition) for r in rows if r.cold}
    by_instance = {}
    for r in rows:
        if (r.instance_id, r.repetition) not in cold:
            by_instance.setdefault(r.instance_id, {labels[0]: {}, labels[1]: {}})[r.version][r.repetition] = r
    out = []
    for instance_id in sorted(by_instance):
        base, cand = by_instance[instance_id][labels[0]], by_instance[instance_id][labels[1]]
        reps = sorted(base)
        order = reps if scheme == "index" else [reps[i] for i in rng.permutation(len(reps))]
        out += [(cand[c].duration_ns - base[b].duration_ns) / base[b].duration_ns * 100.0 for b, c in zip(reps, order)]
    return np.array(out, dtype=np.float64)


def pairing_rng(seed, strategy):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3, STRATEGY_CODE[strategy])))


def gate(cfg):
    """(raw.csv bytes, {strategy: change array}) of a simulated config's gate."""
    results = [(s.value, measure(cfg, s.value)) for s in cfg.strategies]
    labels = (cfg.baseline_label, cfg.candidate_label)
    samples = {s: changes(rows, labels, cfg.pairing, pairing_rng(cfg.seed, s)) for s, rows in results}
    return raw_csv(results), samples
