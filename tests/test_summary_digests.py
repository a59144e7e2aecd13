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
        "summary_csv": "a8ea0bb98b86d2d1c4624125ffb2c4d105500eebabc737fcbb2792f68fa75a98",
        "sweep_csv": "b926e89d0958f85e2f7d1111368c9989567e586c1fc0aaa5004f995abb20c523",
    }
