"""Bit-identity of simulated gates: pinned raw.csv digests and a row-at-a-time reference.

The digests were computed with the row-at-a-time simulator that
`row_reference` keeps. A simulated gate must keep writing exactly these
bytes, and for any seed, size and model it must give the reference's
`raw.csv` and change arrays bit for bit.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import row_reference
from duetbench.harness import ExperimentConfig, emit_report, run_experiment
from duetbench.measurement import Backend, ClockMode, Strategy
from duetbench.simenv import VariabilityModel
from duetbench.workloads import WorkloadKind

SMALL = dict(backend=Backend.SIMULATED, resamples=1000, min_samples=1)

PINNED = [
    pytest.param(
        dict(seed=11, repetitions=301, instances=4),
        "16656ffbf5c615191517f5cae3979bfd7a48613a157b1edcaa6e1f10a48538ca",
        id="all-strategies-uneven-split",
    ),
    pytest.param(
        dict(seed=12, repetitions=120, instances=2, workload=WorkloadKind.MEM_SIEVE, clock=ClockMode.WALL_CLOCK),
        "be5b1728e828c480f92d491e23f3e78651d0dbc14a70faf24a19b57026ddc87b",
        id="mem-sieve-wall-clock",
    ),
    pytest.param(
        dict(seed=13, repetitions=90, instances=3, regression_pct=3.0,
             model=VariabilityModel(duet_jitter_cv=0.0, cold_penalty_ms=42.5, drift_amplitude=0.3)),
        "ea61ce7f70ef879fe3dcdaf21f3acbbdca591b4ee055c11275baa3f74341090f",
        id="fully-shared-duet-model",
    ),
    pytest.param(
        dict(seed=14, repetitions=60, instances=2, baseline_label="a,b", candidate_label='q"x'),
        "c376045ef0e315b506d1724ef11c26561a03cdac0e3f16ddda72d22d82b7a54b",
        id="labels-that-need-quoting",
    ),
]


def _raw_csv(cfg, tmp_path):
    report = run_experiment(cfg)
    return emit_report(report, tmp_path, ())["raw_csv"].read_bytes(), report


@pytest.mark.parametrize(("settings_", "digest"), PINNED)
def test_raw_csv_digest_is_pinned(tmp_path, settings_, digest):
    cfg = ExperimentConfig(**SMALL, **settings_)
    raw, _ = _raw_csv(cfg, tmp_path)
    assert hashlib.sha256(raw).hexdigest() == digest
    assert hashlib.sha256(row_reference.gate(cfg)[0]).hexdigest() == digest


_MODELS = st.builds(
    VariabilityModel,
    instance_quality_cv=st.floats(0.0, 0.5),
    temporal_sigma=st.floats(0.0, 0.3),
    cold_penalty_ms=st.floats(0.0, 500.0),
    base_cost_ns_per_unit=st.floats(0.01, 1000.0),
    drift_period_s=st.floats(0.5, 1000.0),
    drift_amplitude=st.floats(0.0, 0.9),
    duet_jitter_cv=st.floats(0.0, 0.05),
    time_step_s=st.floats(0.001, 10.0),
)


@st.composite
def _configs(draw):
    instances = draw(st.integers(1, 4))
    labels = draw(st.lists(st.text('ab,"x ', min_size=1, max_size=3), min_size=2, max_size=2, unique=True))
    return ExperimentConfig(
        **SMALL,
        seed=draw(st.integers(0, 2**32)),
        instances=instances,
        repetitions=draw(st.integers(instances + 1, 60)),
        workload=draw(st.sampled_from(list(WorkloadKind))),
        scale=draw(st.integers(2, 10**6)),
        regression_pct=draw(st.floats(0.0, 20.0)),
        baseline_label=labels[0],
        candidate_label=labels[1],
        clock=draw(st.sampled_from([None, *ClockMode])),
        pairing=draw(st.sampled_from(["index", "random"])),
        model=draw(_MODELS),
    )


@settings(max_examples=100, deadline=None)
@given(cfg=_configs())
def test_simulated_gate_matches_the_row_reference(tmp_path_factory, cfg):
    raw, report = _raw_csv(cfg, tmp_path_factory.mktemp("gate"))
    ref_raw, ref_samples = row_reference.gate(cfg)
    assert raw == ref_raw
    assert [r.strategy for r in report.results] == list(Strategy)
    for r in report.results:
        assert r.samples.tobytes() == ref_samples[r.strategy.value].tobytes()
