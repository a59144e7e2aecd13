"""Pinned bytes of summary.csv and sweep.csv (`tests/test_columnar.py` pins raw.csv).

The digests were taken from one small seeded sweep; a simulated gate must
keep writing exactly these bytes.
"""

from __future__ import annotations

import hashlib

from duetbench.harness import ExperimentConfig, emit_report, run_experiment
from duetbench.measurement import Backend, Strategy


def test_summary_and_sweep_csv_digests_are_pinned(tmp_path):
    cfg = ExperimentConfig(backend=Backend.SIMULATED, seed=21, strategies=(Strategy.RMIT, Strategy.DUET), repetitions=201,
                           instances=1, resamples=1000, run_sweep=True, sweep_start=50, sweep_stop=201, sweep_step=7)
    written = emit_report(run_experiment(cfg), tmp_path, ("csv",))
    digests = {name: hashlib.sha256(written[name].read_bytes()).hexdigest() for name in ("summary_csv", "sweep_csv")}
    assert digests == {
        "summary_csv": "ceba334a52a34427e35f22b8c4eac74da1a3e1a3ea481b803eeca8f1addf49ba",
        "sweep_csv": "dd61b92baa8a5451dcd46c4f7bd11f2cbc717cb38ece321700d7c3823627461c",
    }
