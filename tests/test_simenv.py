from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duetbench.config import ExperimentConfig
from duetbench.errors import ConfigError
from duetbench.measurement import ClockMode, Strategy
from duetbench.simenv import (
    VariabilityModel,
    draw_noise,
    draw_pair_noise,
    drift_factor,
    sample_instance,
    simulate_invocations,
)
from duetbench.strategies import SimulatedInstance, open_instances, run_strategy
from duetbench.workloads import WorkloadKind, WorkloadSpec

SPEC_A = WorkloadSpec(WorkloadKind.CPU_MUTATION, 20_000, "A")
SPEC_B5 = WorkloadSpec(WorkloadKind.CPU_MUTATION, 20_000, "B", 5.0)

NOISE_FREE = VariabilityModel(
    instance_quality_cv=0.0,
    temporal_sigma=0.0,
    cold_penalty_ms=0.0,
    drift_amplitude=0.0,
    duet_jitter_cv=0.0,
)


def simulate(model, quality, specs, t, noise, drift_phase=0.0):
    """Warm durations of specs[i % len(specs)] run at time t with the noise exponents of the rows of `noise`."""
    n = len(noise)
    version, cold = np.arange(n) % len(specs), np.zeros(n, bool)
    return simulate_invocations(model, quality, drift_phase, specs, version, np.full(n, t), np.asarray(noise), cold)


def one_at_a_time(model, quality, drift_phase, specs, version, t, noise, cold):
    """`simulate_invocations` as the simulator first computed it: libm's exp and sin, one value at a time, and one
    Python float operation after another in the same order."""
    out = []
    for v, at, exponents, is_cold in zip(version.tolist(), t.tolist(), noise.tolist(), cold.tolist()):
        base = specs[v].effective_scale * model.base_cost_ns_per_unit * quality
        drift = 1.0 + model.drift_amplitude * math.sin(2.0 * math.pi * at / model.drift_period_s + drift_phase)
        factor = math.exp(exponents[0])
        for exponent in exponents[1:]:
            factor = factor * math.exp(exponent)
        cost = base * drift * factor + (model.cold_penalty_ms * 1e6 if is_cold else 0.0)
        out.append(max(int(cost), 1))
    return np.array(out, np.int64)


def test_zero_cv_quality_is_exactly_one():
    quality, _ = sample_instance(VariabilityModel(instance_quality_cv=0.0), np.random.default_rng(5))
    assert quality == 1.0


def test_sampling_is_seed_deterministic():
    model = VariabilityModel()
    first = sample_instance(model, np.random.default_rng(123))
    second = sample_instance(model, np.random.default_rng(123))
    assert first == second


def test_quality_cv_matches_configuration():
    model = VariabilityModel(instance_quality_cv=0.15)
    rng = np.random.default_rng(99)
    qualities = np.array([sample_instance(model, rng)[0] for _ in range(10_000)])
    empirical_cv = qualities.std() / qualities.mean()
    assert 0.12 <= empirical_cv <= 0.18
    assert qualities.min() >= 0.5 and qualities.max() <= 2.0


def test_noise_free_aa_pair_is_identical():
    rng = np.random.default_rng(0)
    spec_b0 = WorkloadSpec(WorkloadKind.CPU_MUTATION, 20_000, "B")
    d_a, d_b = simulate(NOISE_FREE, 1.0, (SPEC_A, spec_b0), 0.0, draw_noise(NOISE_FREE, rng, 2))
    assert d_a == d_b


def test_noise_free_regression_is_exactly_five_percent():
    rng = np.random.default_rng(0)
    d_a, d_b = simulate(NOISE_FREE, 1.0, (SPEC_A, SPEC_B5), 0.0, draw_noise(NOISE_FREE, rng, 2))
    assert (d_b - d_a) / d_a * 100.0 == 5.0


def test_shared_draw_cancels_exactly_under_full_noise():
    model = VariabilityModel()  # full default noise
    spec_b0 = WorkloadSpec(WorkloadKind.CPU_MUTATION, 20_000, "B")
    d_a, d_b = simulate(model, 1.37, (SPEC_A, spec_b0), 42.0, [[0.21, -0.003], [0.21, -0.003]], drift_phase=2.1)
    assert d_a == d_b


def test_first_invocation_is_cold_and_pays_penalty():
    model = VariabilityModel(temporal_sigma=0.0, instance_quality_cv=0.0, drift_amplitude=0.0, cold_penalty_ms=150.0)
    instance = SimulatedInstance(model, 0, 0)
    version = np.zeros(3, np.int8)
    first, first_cold, _ = instance.run(Strategy.INDEPENDENT, (SPEC_A,), version, None)
    again, again_cold, _ = instance.run(Strategy.INDEPENDENT, (SPEC_A,), version, None)
    assert first_cold.tolist() == [True, False, False]
    assert not again_cold.any()
    assert first[0] - first[1] == 150 * 10**6
    assert first[1:].tolist() + again.tolist() == [first[1]] * 5  # warm, the penalty paid once


def test_clock_mode_defaults_follow_strategy():
    cfg = ExperimentConfig(repetitions=1, instances=1, seed=0, scale=20_000, regression_pct=5.0, model=NOISE_FREE)
    duet = run_strategy(cfg, Strategy.DUET, open_instances(cfg))[0]
    rmit = run_strategy(cfg, Strategy.RMIT, open_instances(cfg))[0]
    assert duet.clock_mode is ClockMode.CPU_TIME
    assert rmit.clock_mode is ClockMode.WALL_CLOCK


def test_drift_periodicity():
    model = VariabilityModel()
    for t in (0.0, 13.37, 250.0):
        later = drift_factor(model, 0.7, t + model.drift_period_s)
        assert drift_factor(model, 0.7, t) == pytest.approx(later, abs=1e-9)


def test_model_validation():
    with pytest.raises(ConfigError):
        VariabilityModel(instance_quality_cv=-0.1)
    with pytest.raises(ConfigError):
        VariabilityModel(base_cost_ns_per_unit=0.0)
    with pytest.raises(ConfigError):
        VariabilityModel(drift_amplitude=1.5)
    with pytest.raises(ConfigError):
        VariabilityModel(time_step_s=-0.5)


def test_independent_draws_are_unbiased_for_aa():
    # Symmetric-in-log noise: the median pairwise change over many same-time
    # A/A pairs with fresh draws per side must sit near zero.
    model = VariabilityModel()
    rng = np.random.default_rng(2024)
    spec_b0 = WorkloadSpec(WorkloadKind.CPU_MUTATION, 20_000, "B")
    durations = simulate(model, 1.0, (SPEC_A, spec_b0), 5.0, draw_noise(model, rng, 20_000))
    d_a, d_b = durations[0::2], durations[1::2]
    changes = (d_b - d_a) / d_a * 100.0
    assert abs(float(np.median(changes))) < 0.5


def test_quality_lottery_varies_across_instances():
    model = VariabilityModel()
    rng = np.random.default_rng(3)
    qualities = {round(sample_instance(model, rng)[0], 6) for _ in range(8)}
    assert len(qualities) > 1


def test_duration_scales_with_quality():
    model = VariabilityModel(temporal_sigma=0.0, instance_quality_cv=0.0, drift_amplitude=0.0, cold_penalty_ms=0.0)
    rng = np.random.default_rng(0)
    (d_slow,) = simulate(model, 2.0, (SPEC_A,), 0.0, draw_noise(model, rng, 1))
    (d_fast,) = simulate(model, 0.5, (SPEC_A,), 0.0, draw_noise(model, rng, 1))
    assert d_slow == 4 * d_fast


def test_lognormal_sigma_derivation():
    # cv -> sigma mapping: cv^2 = exp(sigma^2) - 1
    from duetbench.simenv import _lognormal_sigma_from_cv

    assert _lognormal_sigma_from_cv(0.0) == 0.0
    cv = 0.15
    sigma = _lognormal_sigma_from_cv(cv)
    assert math.sqrt(math.exp(sigma**2) - 1) == pytest.approx(cv, rel=1e-12)


def test_costs_at_an_integer_truncate_as_libm_gives_them():
    # Costs on an integer and a few ulps either side, with an exponent whose np.exp and math.exp may differ in
    # the last ulp: numpy's factor alone would truncate some of them to the integer below or above libm's.
    model = VariabilityModel(drift_amplitude=0.0, cold_penalty_ms=0.0)  # the drift factor is exactly 1
    exponents = np.random.default_rng(5).standard_normal(10_000) * model.temporal_sigma
    differs = np.exp(exponents) != [math.exp(e) for e in exponents]
    exponent = exponents[np.argmax(differs)]  # one that differs, if any does on this host
    base = SPEC_A.effective_scale * model.base_cost_ns_per_unit
    target = 2_000_003
    quality = target / (base * math.exp(exponent))
    while base * quality * 1.0 * math.exp(exponent) < target:  # the smallest quality that reaches the integer
        quality = math.nextafter(quality, math.inf)
    while base * math.nextafter(quality, 0.0) * 1.0 * math.exp(exponent) >= target:
        quality = math.nextafter(quality, 0.0)
    qualities = [quality]
    for _ in range(6):
        qualities = [math.nextafter(qualities[0], 0.0), *qualities, math.nextafter(qualities[-1], math.inf)]
    version, t, noise, cold = np.zeros(1, np.int8), np.zeros(1), np.array([[exponent]]), np.zeros(1, bool)
    got = [simulate_invocations(model, q, 0.0, (SPEC_A,), version, t, noise, cold)[0] for q in qualities]
    want = [one_at_a_time(model, q, 0.0, (SPEC_A,), version, t, noise, cold)[0] for q in qualities]
    assert got == want and {target - 1, target} == set(want)
    numpy_only = [int(base * q * 1.0 * np.exp(exponent)) for q in qualities]
    assert numpy_only != want or not differs.any()  # the guard had something to mend


@settings(max_examples=200, deadline=None)
@given(quality=st.floats(0.5, 2.0), drift_phase=st.floats(0.0, 2 * math.pi), amplitude=st.floats(0.0, 0.99),
       base_cost=st.floats(1e-3, 1e3), penalty_ms=st.floats(0.0, 200.0), paired=st.booleans(), data=st.data())
def test_simulated_durations_equal_libm_one_at_a_time(quality, drift_phase, amplitude, base_cost, penalty_ms, paired,
                                                      data):
    model = VariabilityModel(drift_amplitude=amplitude, base_cost_ns_per_unit=base_cost, cold_penalty_ms=penalty_ms,
                             temporal_sigma=data.draw(st.floats(0.0, 0.5), "sigma"),
                             duet_jitter_cv=data.draw(st.floats(0.0, 0.1), "jitter"))
    n = data.draw(st.integers(1, 64), "n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    noise = draw_pair_noise(model, rng, n) if paired else draw_noise(model, rng, 2 * n)
    version, cold = rng.integers(0, 2, 2 * n).astype(np.int8), rng.random(2 * n) < 0.2
    t = np.sort(rng.uniform(0.0, 1e4, 2 * n))
    got = simulate_invocations(model, quality, drift_phase, (SPEC_A, SPEC_B5), version, t, noise, cold)
    assert got.tolist() == one_at_a_time(model, quality, drift_phase, (SPEC_A, SPEC_B5), version, t, noise, cold).tolist()


def test_noise_exponents_keep_the_draw_order():
    model = VariabilityModel(duet_jitter_cv=0.01)
    pairs = draw_pair_noise(model, np.random.default_rng(8), 3)
    draws = np.random.default_rng(8).standard_normal((3, 3))
    jitter = math.sqrt(math.log1p(0.01**2))
    assert pairs.shape == (6, 2)
    assert pairs[0::2, 0].tolist() == pairs[1::2, 0].tolist() == (draws[:, 0] * model.temporal_sigma).tolist()
    assert pairs[0::2, 1].tolist() == (draws[:, 1] * jitter).tolist() and pairs[1::2, 1].tolist() == (draws[:, 2] * jitter).tolist()
    solo = draw_noise(model, np.random.default_rng(8), 4)
    assert solo.shape == (4, 1) and solo[:, 0].tolist() == (np.random.default_rng(8).standard_normal(4) * 0.05).tolist()
