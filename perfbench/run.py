"""duetbench benchmark: time to verdict, pair throughput, memory and CI width.

    python3 perfbench/run.py --workload sim-gate --seed 1 --seconds 20 --trace 0

Run from anywhere; it benchmarks the duetbench sources in `src/` next to
this directory. `--workload all` runs every workload in turn. Each workload
prints a readable report, then, as its last line, one JSON object with
`correct`, `attempted` (gates run), `failed` (gates with a failed check) and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`. Details go to `.perfbench_out/` in the checkout. See
perfbench/README.md for the workloads and the metrics.

Exit codes: 0 done (see `correct`), 2 sources missing or bad arguments,
3 workload unavailable on this host (live-cpu without two pinnable cores).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import calibrate
from catalog import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


class Unavailable(Exception):
    pass


def host_env(workload: str) -> dict[str, Any]:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "pinned": WORKLOADS[workload].live,
        "DUETBENCH_NO_PIN": os.environ.get("DUETBENCH_NO_PIN"),
        "thread_time_resolution_s": time.get_clock_info("thread_time").resolution,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
    }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def setup_probe(workload: str, size: str) -> tuple[float, dict[str, Any]]:
    """One fresh interpreter, start -> ready to time: (seconds, probe info)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "probe", workload, size],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}): {err.strip()}")
    info = json.loads(line)
    if Path(info["duetbench"]).resolve().parent != ROOT / "src" / "duetbench":
        raise RuntimeError(f"imported duetbench from {info['duetbench']}, not from {ROOT / 'src'}")
    if "unavailable" in info:
        raise Unavailable(info["unavailable"])
    return elapsed, info


def measure(workload: str, seed: int, seconds: int, trace: bool, size: str) -> dict[str, Any]:
    """Run the measuring child and run the calibration kernel whenever it asks.

    The kernel runs here, not in the child, so that its allocations stay out
    of the child's peak RSS. The child's stderr passes through to ours.
    """
    cmd = [sys.executable, str(HERE / "child.py"), "measure", workload, str(seed), str(seconds),
           "1" if trace else "0", size, str(OUT)]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    timer = threading.Timer(seconds + 150, proc.kill)
    timer.start()
    lines = []
    try:
        for line in proc.stdout:
            if line.strip() == calibrate.REQUEST:
                proc.stdin.write(f"{calibrate.kernel()!r}\n")
                proc.stdin.flush()
            else:
                lines.append(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"measuring child failed (exit {proc.returncode}); its stderr is above")
    return json.loads(lines[-1])


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, gates beyond it) for the gate_s.tail metric.

    The highest percentile with ten gates beyond it once that is p90 or
    higher (100 gates or more). Shorter runs would put that percentile near
    or below the median, so they report p90, interpolated between the two
    nearest gates.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n >= 100:
        return ordered[n - 11], 100.0 * (n - 10) / n, 10
    value = statistics.quantiles(ordered, n=10, method="inclusive")[-1] if n > 1 else ordered[0]
    return value, 90.0, sum(t > value for t in ordered)


def run_workload(name: str, seed: int, seconds: int, trace: bool, size: str) -> dict[str, Any]:
    env = host_env(name)
    kernel_s, samples = [calibrate.kernel()], []
    for _ in range(SETUP_PROBES):
        samples.append(setup_probe(name, size))
        kernel_s.append(calibrate.kernel())
    res = measure(name, seed, seconds, trace, size)
    env["numpy"] = res["numpy"]
    gates = res["gates"]
    timed = [g for g in gates if not g["traced"]]
    failed = sum(bool(g["failures"]) for g in gates)
    untraced = [g["seconds"] for g in timed]
    setup = [s for s, _ in samples]
    # Each time scaled by the calibration kernel runs right before and after it.
    setup_cal = [calibrate.scaled(s, *k) for s, k in zip(setup, zip(kernel_s, kernel_s[1:]))]
    gate_cal = [calibrate.scaled(g["seconds"], *g["kernel_s"]) for g in timed]
    value, pct, beyond = tail(gate_cal)
    wall = {
        "setup_s": statistics.median(setup),
        "gate_s.p50": statistics.median(untraced),
        "gate_s.tail": tail(untraced)[0],
        "pairs_per_s": sum(g["pairs"] for g in timed) / sum(untraced),
    }
    e2e = {
        "setup_s": statistics.median(setup_cal),
        "gate_s.p50": statistics.median(gate_cal),
        "gate_s.tail": value,
        "pairs_per_s": sum(g["pairs"] for g in timed) / sum(gate_cal),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    layers = {"cli.import_s": statistics.median(info["import_s"] for _, info in samples), **res.get("layers", {})}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "size": size, "env": env,
        "end_to_end": e2e, "wall": wall, "peak_rss_parts_mb": res["peak_rss_parts_mb"], "tail": {"percentile": pct, "gates_beyond": beyond, "gates": len(untraced)},
        "outcomes": res["outcomes"], "per_layer": layers if trace else None,
        "setup_samples_s": setup, "setup_kernel_s": kernel_s, "gates": gates,
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"== {name}  seed {seed}  trace {int(trace)}  gates {len(gates)}  ({WORKLOADS[name].why})")
    print("env " + json.dumps(env))
    for key, unit in END_TO_END.items():
        raw = f"  (wall {wall[key]:.6g})" if key in wall else ""
        print(f"{key:<36} {e2e[key]:>14.6g} {unit}{raw}")
    print(f"{'':<36} gate_s.tail is p{pct:.4g} of {len(untraced)} untraced gates, {beyond} beyond it")
    if not WORKLOADS[name].live:
        for strategy in ("independent", "rmit", "duet"):
            key = f"ci_width_pp.{strategy}"
            print(f"{key:<36} {res['outcomes'][key]:>14.6g} pp")
    if trace:
        for key, unit in PER_LAYER.items():
            print(f"{key:<36} {layers[key]:>14.6g} {unit}")
    print(f"{'ops':<36} {len(gates):>14}")
    print(f"{'ops_failed':<36} {failed:>14}")
    for g in gates:
        line = f"gate {g['index']:>3} {g['seconds']:8.3f}s injected {g['injected_pct']:>4}% verdict {g['verdict']} {g['verdicts']}"
        print(line + ("" if not g["failures"] else f"  FAILED: {g['failures']}"))
    metrics = layers if trace else e2e
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": len(gates),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the smoke test's sizes")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "duetbench" / "__init__.py").is_file():
        print(f"perfbench: no duetbench sources at {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        except Unavailable as exc:
            print(f"== {name} unavailable: {exc}")
            status = 3
            continue
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
