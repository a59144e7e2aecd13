"""Child processes of the benchmark; `run.py` starts them with duetbench's sources on PYTHONPATH.

    child.py probe WORKLOAD SIZE
        A fresh interpreter imports duetbench (for live workloads it also
        spawns the pinned duet workers and runs one warm-up pair), prints one
        JSON line when ready to time, then cleans up. The parent times
        start -> ready line as one setup sample.

    child.py measure WORKLOAD SEED SECONDS TRACE SIZE OUT_DIR
        Runs the gate loop (gates.run) and prints its result as one JSON line.
        Measuring in a child keeps the setup probes out of its peak RSS; the
        calibration kernel runs in the parent, on request (see calibrate.py).
"""

from __future__ import annotations

import json
import sys
import time


def probe(workload: str, size: str) -> int:
    t0 = time.perf_counter()
    import duetbench
    import duetbench.cli  # noqa: F401  (the CLI module is part of what a gate job imports)

    import_s = time.perf_counter() - t0
    from catalog import WORKLOADS

    wl = WORKLOADS[workload]
    cfg = duetbench.ExperimentConfig.from_dict(wl.sized(size), regression_pct=wl.injections[0])
    info = {"import_s": import_s, "duetbench": duetbench.__file__}
    if not wl.live:
        print(json.dumps(info), flush=True)
        return 0
    from duetbench.errors import AffinityUnsupportedError, InsufficientCoresError

    executor = None
    try:
        executor = duetbench.DuetExecutor(duetbench.CorePlan(cfg.core_a, cfg.core_b), pinning=cfg.pinning)
        if not executor.pinning:
            info["unavailable"] = "pinning is disabled (DUETBENCH_NO_PIN), and live-cpu never runs unpinned"
        else:
            executor.duet_invoke(*cfg.specs())
            trace = executor.last_barrier
            info["affinity"] = [trace.affinity_a, trace.affinity_b]
            if info["affinity"] != [(cfg.core_a,), (cfg.core_b,)]:
                info["unavailable"] = f"workers ran on {info['affinity']}, not pinned to cores {cfg.core_a} and {cfg.core_b}"
    except (InsufficientCoresError, AffinityUnsupportedError) as exc:
        info["unavailable"] = f"{type(exc).__name__}: {exc}"
    finally:
        if executor is not None:
            executor.close()
    print(json.dumps(info), flush=True)
    return 0


def parent_kernel() -> float:
    """Have `run.py` run the calibration kernel, outside this process's peak RSS."""
    import calibrate

    print(calibrate.REQUEST, flush=True)
    return float(sys.stdin.readline())


def measure(workload: str, seed: str, seconds: str, trace: str, size: str, out_dir: str) -> int:
    from pathlib import Path

    import gates

    result = gates.run(workload, int(seed), float(seconds), trace == "1", size, Path(out_dir), kernel=parent_kernel)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"probe": probe, "measure": measure}[mode](*rest))
