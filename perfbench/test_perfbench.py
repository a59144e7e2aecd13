"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload at tiny size and checks the output against
BENCHMARK.json, then shows that injected faults are counted as failed ops.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import duetbench.harness  # noqa: E402
from duetbench import Strategy, Verdict, WorkResult  # noqa: E402
from duetbench.executor import DuetExecutor  # noqa: E402

import calibrate  # noqa: E402
import catalog  # noqa: E402
import child  # noqa: E402
import gates  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT = ROOT / ".perfbench_out" / "smoke"


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)


def test_catalog_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(catalog.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == catalog.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_every_metric_present_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    if proc.returncode == 3 and catalog.WORKLOADS[workload].live:
        pytest.skip(proc.stdout.strip())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "ops_failed" in proc.stdout and "ops " in proc.stdout


def test_flipped_duet_verdict_counts_as_failed_op(monkeypatch):
    original = duetbench.harness.analyze_measurement_set
    flips = []

    def flip_first_duet(mset, **kwargs):
        result = original(mset, **kwargs)
        if result.strategy is Strategy.DUET and not flips:
            flips.append(result.verdict)
            wrong = Verdict.PASS if result.verdict is Verdict.REGRESSION else Verdict.REGRESSION
            result = dataclasses.replace(result, verdict=wrong)
        return result

    monkeypatch.setattr(duetbench.harness, "analyze_measurement_set", flip_first_duet)
    out = gates.run("sim-gate", seed=3, seconds=0, trace=False, size="tiny", out_root=OUT, kernel=calibrate.kernel)
    failed = [g for g in out["gates"] if g["failures"]]
    assert len(out["gates"]) >= 2 and len(failed) == 1
    assert "duet verdict" in failed[0]["failures"][0]


def test_corrupted_checksum_counts_as_failed_op(monkeypatch):
    if len(os.sched_getaffinity(0)) < 2 or os.environ.get("DUETBENCH_NO_PIN"):
        pytest.skip("live-cpu needs two pinnable cores")
    original = DuetExecutor.duet_invoke
    corrupted = []

    def corrupt_one(self, *args, **kwargs):
        m_a, m_b = original(self, *args, **kwargs)
        if not corrupted:
            corrupted.append(m_b)
            m_b = dataclasses.replace(m_b, result=WorkResult(m_b.result.checksum ^ 1, m_b.result.units_done))
        return m_a, m_b

    monkeypatch.setattr(DuetExecutor, "duet_invoke", corrupt_one)
    out = gates.run("live-cpu", seed=3, seconds=0, trace=True, size="tiny", out_root=OUT, kernel=calibrate.kernel)
    assert [g["checksum_mismatches"] for g in out["gates"]] == [1] + [0] * (len(out["gates"]) - 1)
    assert [bool(g["failures"]) for g in out["gates"]].count(True) == 1
    assert out["layers"]["workloads.checksum_mismatches"] == 1.0


def test_probe_reports_unpinnable_host_as_unavailable(monkeypatch, capsys):
    monkeypatch.setattr(duetbench.executor, "pinning_supported", lambda: False)
    monkeypatch.delenv("DUETBENCH_NO_PIN", raising=False)
    assert child.probe("live-cpu", "tiny") == 0
    info = json.loads(capsys.readouterr().out)
    assert info["unavailable"].startswith("AffinityUnsupportedError")
