from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duetbench.cli
from duetbench.cli import (
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_INTERRUPTED,
    EXIT_PASS,
    EXIT_REGRESSION,
    _config_from_args,
    build_parser,
    main,
)
from duetbench.harness import ExperimentConfig
from duetbench.measurement import Strategy
from duetbench.simenv import VariabilityModel
from duetbench.workloads import WorkloadKind

FAST_FLAGS = [
    "--backend", "simulated", "--repetitions", "200", "--instances", "2",
    "--resamples", "1000", "--seed", "101",
]


def test_run_aa_exits_pass(tmp_path, capsys):
    code = main(["run", "--strategy", "duet", *FAST_FLAGS, "--out", str(tmp_path)])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert "overall verdict: pass" in out
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "raw.csv").exists()


def test_run_ab_exits_regression(tmp_path):
    code = main([
        "run", "--strategy", "duet", *FAST_FLAGS, "--regression-pct", "5.0",
        "--threshold-pct", "1.0", "--out", str(tmp_path),
    ])
    assert code == EXIT_REGRESSION


def test_run_straddling_threshold_exits_inconclusive(tmp_path):
    # threshold equal to the injected regression: the CI straddles it
    code = main([
        "run", "--strategy", "duet", *FAST_FLAGS, "--regression-pct", "5.0",
        "--threshold-pct", "5.0", "--out", str(tmp_path),
    ])
    assert code == EXIT_INCONCLUSIVE


def test_error_exits_two(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "missing.csv"), "--seed", "1"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    pytest.param(["run", "--repetitions", "x"], id="not-an-int"),
    pytest.param(["run", "--nope"], id="unknown-flag"),
    pytest.param(["run", "--format", "xml"], id="unknown-choice"),
    pytest.param(["analyze"], id="analyze-without-path"),
    pytest.param([], id="no-command"),
])
def test_malformed_command_line_exits_two_with_the_json_error(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)] if argv[:1] == ["run"] else argv) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert not out and json.loads(err)["error"] == "ConfigError"
    assert not (tmp_path / "raw.csv").exists()


def test_insufficient_samples_error_exit(tmp_path, capsys):
    code = main([
        "run", "--strategy", "duet", "--backend", "simulated", "--repetitions", "20",
        "--instances", "1", "--resamples", "1000", "--seed", "1", "--out", str(tmp_path),
    ])
    assert code == EXIT_ERROR
    assert json.loads(capsys.readouterr().err)["error"] == "InsufficientSamplesError"


def test_simulated_duration_beyond_int64_exits_two_and_writes_nothing(tmp_path, capsys):
    code = main(["run", "--strategy", "duet", *FAST_FLAGS, "--base-cost-ns", "1e20", "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    assert json.loads(capsys.readouterr().err) == {
        "error": "OverflowError", "message": "a simulated duration exceeds the int64 range of duration_ns"}
    assert not (tmp_path / "out").exists()


def test_compare_writes_table_and_exits_zero(tmp_path, capsys):
    code = main(["compare", *FAST_FLAGS, "--out", str(tmp_path)])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    for name in ("independent", "rmit", "duet"):
        assert name in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary["strategies"]) == {"independent", "rmit", "duet"}


def test_sweep_subcommand_emits_sweep_csv(tmp_path):
    code = main([
        "sweep", "--strategy", "duet", "--backend", "simulated", "--repetitions", "161",
        "--instances", "1", "--resamples", "1000", "--seed", "6",
        "--sweep-start", "50", "--sweep-stop", "160", "--sweep-step", "10",
        "--out", str(tmp_path),
    ])
    assert code == EXIT_PASS
    text = (tmp_path / "sweep.csv").read_text()
    assert text.startswith("strategy,n,width_pp")
    assert len(text.strip().splitlines()) == 13


def test_sweep_stops_at_the_pairs_left_after_cold_filtering(tmp_path, capsys):
    flags = ["sweep", "--strategy", "duet", "--repetitions", "300", "--instances", "4", "--resamples", "1000"]
    assert main([*flags, "--sweep-stop", "300", "--out", str(tmp_path / "a")]) == EXIT_PASS
    rows = (tmp_path / "a" / "sweep.csv").read_text().strip().splitlines()[1:]
    # four cold pairs leave 296: the sweep ends at the last step within them
    assert len(rows) == 50 and rows[-1].startswith("duet,295,")
    capsys.readouterr()
    assert main([*flags, "--sweep-start", "297", "--sweep-stop", "300", "--out", str(tmp_path / "b")]) == EXIT_ERROR
    assert json.loads(capsys.readouterr().err)["error"] == "SweepRangeError"


def test_compare_runs_every_strategy_whatever_the_config(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"strategies": ["duet"]}))
    assert main(["compare", "--config", str(config), *FAST_FLAGS, "--out", str(tmp_path / "r")]) == EXIT_PASS
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["config"]["strategies"] == ["independent", "rmit", "duet"]


def test_analyze_matches_run_verdict(tmp_path):
    out_a = tmp_path / "a"
    code = main([
        "run", "--strategy", "duet", *FAST_FLAGS, "--regression-pct", "5.0", "--out", str(out_a),
    ])
    assert code == EXIT_REGRESSION
    out_b = tmp_path / "b"
    code = main([
        "analyze", str(out_a / "raw.csv"), "--seed", "101", "--resamples", "1000",
        "--out", str(out_b),
    ])
    assert code == EXIT_REGRESSION
    summary_a = json.loads((out_a / "summary.json").read_text())
    summary_b = json.loads((out_b / "summary.json").read_text())
    assert summary_a["strategies"]["duet"]["ci"] == summary_b["strategies"]["duet"]["ci"]


def test_analyze_keeps_the_strategy_order_of_its_archive(tmp_path, capsys):
    # run's --strategy order, not the enum's, is raw.csv's; a re-analysis writes its files and table alike
    assert main(["run", "--strategy", "duet", "--strategy", "rmit", *FAST_FLAGS, "--out", str(tmp_path / "r1")]) \
        == EXIT_PASS
    ran = capsys.readouterr().out
    assert main(["analyze", str(tmp_path / "r1" / "raw.csv"), "--out", str(tmp_path / "r2")]) == EXIT_PASS
    again = capsys.readouterr().out
    for name in ("raw.csv", "summary.csv"):
        assert (tmp_path / "r2" / name).read_bytes() == (tmp_path / "r1" / name).read_bytes(), name
    table = again.splitlines()[:3]
    assert [line.split()[0] for line in table] == ["strategy", "duet", "rmit"] and table == ran.splitlines()[:3]


def test_analyze_refuses_unpaired_cold_row(tmp_path, capsys):
    assert main(["run", "--strategy", "duet", *FAST_FLAGS, "--out", str(tmp_path)]) == EXIT_PASS
    raw = tmp_path / "raw.csv"
    lines = raw.read_text().splitlines(keepends=True)
    assert any(line.startswith("duet,0,0,A,") and ",true," in line for line in lines)  # the pair is cold
    raw.write_text("".join(line for line in lines if not line.startswith("duet,0,0,B,")))
    capsys.readouterr()
    code = main(["analyze", str(raw), "--seed", "101", "--resamples", "1000", "--out", str(tmp_path / "again")])
    assert code == EXIT_ERROR
    assert json.loads(capsys.readouterr().err)["error"] == "PairingError"


@pytest.mark.parametrize("cells, expect", [
    pytest.param({6: "True"}, ("ValueError", "cold"), id="cold-True"),
    pytest.param({4: "0"}, None, id="zero-duration"),
    pytest.param({4: "1.5"}, None, id="fractional-duration"),
    pytest.param({4: "1_000"}, None, id="underscored-duration"),  # int() reads it; the C reader does not
    pytest.param({4: "\u0661\u0660\u0660"}, None, id="arabic-indic-duration"),  # likewise: 100 in Arabic-Indic digits
    pytest.param({2: "-5"}, None, id="negative-repetition"),
    pytest.param({7: "2"}, ("ValueError", "order_position"), id="order-position-2"),
    pytest.param({5: "sundial"}, ("ValueError", "clock_mode"), id="unknown-clock"),
    pytest.param({0: "solo"}, ("ValueError", "strategy"), id="unknown-strategy"),
    pytest.param({3: "C"}, ("PairingError", "version", "(0, 0)"), id="foreign-label"),
    pytest.param(None, None, id="short-row"),
    pytest.param({3: "A\x00"}, None, id="version-ends-in-nul"),  # numpy drops a trailing NUL: this read as label A
    pytest.param({6: "true\x00"}, None, id="cold-ends-in-nul"),
    pytest.param({3: "A\x00B"}, None, id="label-holds-nul"),  # numpy's cut of the cell leaves A\x00: this read as label A
])
def test_analyze_refuses_a_corrupted_cell(tmp_path, capsys, cells, expect):
    # one cell of the cold row (or the row cut short) is corrupted: exit 2 with the JSON error, never a verdict;
    # `expect` is the error a bad text cell raises and the words its message names
    assert main(["run", "--strategy", "duet", *FAST_FLAGS, "--out", str(tmp_path)]) == EXIT_PASS
    raw = tmp_path / "raw.csv"
    lines = raw.read_text(encoding="utf-8").splitlines(keepends=True)
    row = lines[1].rstrip("\n").split(",")
    assert row[:4] == ["duet", "0", "0", "A"] and row[6] == "true"
    for k, value in (cells or {}).items():
        row[k] = value
    lines[1] = ",".join(row if cells else row[:5]) + "\n"
    raw.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["analyze", str(raw), "--out", str(tmp_path / "again")]) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error", "message"}
    if expect:
        error, *words = expect
        assert err["error"] == error and all(word in err["message"] for word in words), err


def test_analyze_names_the_column_of_an_out_of_range_integer(tmp_path, capsys):
    assert main(["run", "--strategy", "duet", *FAST_FLAGS, "--out", str(tmp_path)]) == EXIT_PASS
    raw = tmp_path / "raw.csv"
    lines = raw.read_text().splitlines(keepends=True)
    row = lines[1].split(",")
    row[4] = "9" * 30
    lines[1] = ",".join(row)
    raw.write_text("".join(lines))
    capsys.readouterr()
    assert main(["analyze", str(raw)]) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "duration_ns" in err["message"] and "9" * 30 in err["message"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_analyze_refuses_a_summary_json_that_another_run_left(tmp_path):
    # `--format csv` writes no summary.json, so the first run's, with its 10 % threshold, stays beside the second
    # run's raw.csv; re-analysed under it, a 5 % regression passes
    out = tmp_path / "r"
    assert main(["run", "--seed", "1", "--threshold-pct", "10", "--out", str(out)]) == EXIT_PASS
    assert main(["run", "--seed", "2", "--regression-pct", "5", "--format", "csv", "--out", str(out)]) \
        == EXIT_REGRESSION
    assert main(["analyze", str(out / "raw.csv"), "--out", str(tmp_path / "again")]) in (EXIT_REGRESSION, EXIT_ERROR)


def _widths(path):
    return {name: s["ci"] for name, s in json.loads(path.read_text())["strategies"].items()}


def test_analyze_uses_the_archived_settings(tmp_path, capsys):
    run = tmp_path / "run"
    # duet decides the exit code and is inconclusive at +1 %; the random pairing makes the bounds depend on the seed
    gate = ["--regression-pct", "1.0", "--pairing", "random"]
    assert main(["run", "--seed", "7", "--resamples", "1000", "--repetitions", "300", *gate, "--out", str(run)]) \
        == EXIT_INCONCLUSIVE
    archived = _widths(run / "summary.json")
    # no flag given: seed 7, 1 000 resamples and the pairing come from summary.json, not run's defaults
    assert main(["analyze", str(run / "raw.csv"), "--out", str(tmp_path / "again")]) == EXIT_INCONCLUSIVE
    assert _widths(tmp_path / "again" / "summary.json") == archived
    # a re-analysis archives the same settings, so it re-analyses alike
    assert main(["analyze", str(tmp_path / "again" / "raw.csv"), "--out", str(tmp_path / "twice")]) == EXIT_INCONCLUSIVE
    assert _widths(tmp_path / "twice" / "summary.json") == archived
    capsys.readouterr()
    assert main(["analyze", str(run / "raw.csv"), "--resamples", "2000"]) == EXIT_ERROR
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "resamples" in err["message"]
    # without summary.json the flags, then run's defaults, set the analysis
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "raw.csv").write_bytes((run / "raw.csv").read_bytes())
    args = ["analyze", str(bare / "raw.csv"), "--seed", "7", "--resamples", "1000", "--pairing", "random",
            "--out", str(tmp_path / "flags")]
    assert main(args) == EXIT_INCONCLUSIVE
    assert _widths(tmp_path / "flags" / "summary.json") == archived


def test_analyze_regenerates_a_sweep_archive_and_keeps_its_whole_config(tmp_path):
    run = tmp_path / "run"
    assert main(["sweep", "--seed", "5", "--repetitions", "600", "--resamples", "1000", "--out", str(run)]) == EXIT_PASS
    archive = {name: (run / name).read_bytes() for name in ("raw.csv", "summary.csv", "sweep.csv")}
    summary = json.loads((run / "summary.json").read_text())
    reanalyzed = {**summary["config"], "reanalyzed_from": str(run / "raw.csv")}
    assert main(["analyze", str(run / "raw.csv"), "--out", str(tmp_path / "again")]) == EXIT_PASS
    for name in ("summary.csv", "sweep.csv"):
        assert (tmp_path / "again" / name).read_bytes() == archive[name], name
    assert json.loads((tmp_path / "again" / "summary.json").read_text())["config"] == reanalyzed
    # onto the archive's own directory, twice: the bounds and every key stay, and only the run's times change
    for _ in range(2):
        assert main(["analyze", str(run / "raw.csv"), "--out", str(run)]) == EXIT_PASS
        assert {name: (run / name).read_bytes() for name in archive} == archive
        again = json.loads((run / "summary.json").read_text())
        assert again["config"] == reanalyzed
        assert {**again, "config": None, "run": None} == {**summary, "config": None, "run": None}
        assert again["run"].keys() == summary["run"].keys()


def test_config_file_plus_flag_override(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "strategies": ["duet"], "backend": "simulated", "repetitions": 200,
        "instances": 2, "resamples": 1000, "seed": 101, "regression_pct": 5.0,
    }))
    code = main(["run", "--config", str(config), "--regression-pct", "0.0", "--out", str(tmp_path / "r")])
    assert code == EXIT_PASS


def _child_env() -> dict[str, str]:
    """The environment of a child interpreter that imports the package this suite imports, installed or not."""
    src = str(Path(duetbench.cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_entrypoint_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "duetbench", "run", "--strategy", "duet", *FAST_FLAGS, "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=_child_env(),
    )
    assert proc.returncode == EXIT_PASS, proc.stderr
    assert "overall verdict: pass" in proc.stdout


def test_simulated_gate_and_analyze_never_import_multiprocessing(tmp_path):
    # only a live gate spawns worker processes, so only a live gate needs the executor and multiprocessing; and no
    # gate needs numpy.ma, which np.median and np.unique import on their first call (≈6 ms of a one-shot run)
    script = "\n".join([
        "import sys",
        "from duetbench.cli import main",
        f"run = main(['run', *{FAST_FLAGS!r}, '--out', {str(tmp_path)!r}])",
        f"analyze = main(['analyze', {str(tmp_path / 'raw.csv')!r}])",
        "print(run, analyze, *(name in sys.modules for name in ('multiprocessing', 'numpy.ma', 'duetbench.executor')))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    run_code, analyze_code, imported, imported_ma, imported_executor = proc.stdout.splitlines()[-1].split()
    assert run_code == analyze_code != str(EXIT_ERROR)
    assert imported == "False"
    assert imported_ma == "False"
    assert imported_executor == "False"


@pytest.mark.parametrize(("pairing", "draws"), [("index", False), ("random", True)])
def test_analyze_imports_numpy_random_only_to_pair_at_random(tmp_path, pairing, draws):
    # an index-paired archive draws nothing, so its re-analysis never loads numpy.random (≈9 ms of a one-shot run)
    assert main(["run", *FAST_FLAGS, "--pairing", pairing, "--out", str(tmp_path)]) != EXIT_ERROR
    script = "\n".join([
        "import sys",
        "from duetbench.cli import main",
        f"analyze = main(['analyze', {str(tmp_path / 'raw.csv')!r}])",
        "print(analyze, 'numpy.random' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    analyze_code, imported = proc.stdout.splitlines()[-1].split()
    assert analyze_code != str(EXIT_ERROR)
    assert imported == str(draws)


@pytest.mark.parametrize(("config", "flags"), [
    pytest.param({"repetitions": "10"}, [], id="string-int"),
    pytest.param({"model": {"nope": 1}}, [], id="unknown-model-key"),
    pytest.param({"cores": 5}, [], id="cores-not-list"),
    pytest.param([1, 2], [], id="not-object"),
    pytest.param({"ci_level": "0.9"}, [], id="string-float"),
    pytest.param({"repetition": 10}, [], id="unknown-key"),
    pytest.param({"pinning": "no"}, [], id="string-bool"),
    pytest.param({"labels": ["A"]}, [], id="one-label"),
    pytest.param({"labels": ["A\u0000", "B"]}, [], id="label-ends-in-nul"),
    pytest.param({"labels": ["a\u0000,b", "B"]}, [], id="label-holds-nul"),
    pytest.param({"labels": ["a\ud800", "B"]}, [], id="label-not-utf8"),
    pytest.param({"cores": [0, 1, 2]}, [], id="three-cores"),
    pytest.param(None, ["--threshold-pct", "nan"], id="nan-flag"),
    pytest.param(None, ["--resamples", "999"], id="few-resamples"),
    pytest.param(None, ["--sweep", "--sweep-step", "0"], id="sweep-step-zero"),
    pytest.param(None, ["--sweep", "--sweep-start", "49"], id="sweep-start-below-min-samples"),
    pytest.param(None, ["--sweep", "--sweep-start", "200", "--sweep-stop", "100"], id="sweep-start-above-stop"),
    pytest.param(None, ["--cores", "1", "1"], id="equal-cores"),
    pytest.param({"cores": [-1, 1]}, [], id="negative-core"),
    pytest.param(None, ["--backend", "live", "--cores", "1", "1"], id="live-equal-cores"),
    pytest.param({"pairing": "nope", "repetitions": 100, "resamples": 1000}, [], id="pairing-unknown"),
    pytest.param(None, ["--seed", "-1"], id="negative-seed"),
    pytest.param(None, ["--regression-pct", "-1"], id="negative-regression"),
    pytest.param(None, ["--scale", "1"], id="scale-below-two"),
    pytest.param(None, ["--strategy", "duet", "--strategy", "duet", "--repetitions", "100", "--instances", "1",
                        "--resamples", "1000"], id="repeated-strategy-flag"),
    pytest.param({"strategies": ["rmit", "duet", "rmit"], "repetitions": 100, "resamples": 1000}, [],
                 id="repeated-strategy-file"),
    pytest.param(None, ["--strategy", "duet", "--repetitions", "1", "--instances", "1", "--min-samples", "0",
                        "--resamples", "1000"], id="min-samples-zero"),
    pytest.param(None, ["--strategy", "duet", "--repetitions", "1", "--instances", "1", "--min-samples", "-4",
                        "--resamples", "1000"], id="min-samples-negative"),
])
def test_malformed_config_exits_two_before_running(tmp_path, capsys, config, flags):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        flags = ["--config", str(tmp_path / "cfg.json"), *flags]
    code = main(["run", *flags, "--out", str(tmp_path / "out")])
    assert code == EXIT_ERROR
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not (tmp_path / "out" / "raw.csv").exists()


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


# The summary.json text of each malformed archive, made from the one its run wrote.
_SUMMARY_EDITS = {
    "pairing-unknown": lambda summary: json.dumps({**summary, "config": {**summary["config"], "pairing": "nope"}}),
    "summary-not-json": lambda summary: "{not json",
    "summary-a-list": lambda summary: json.dumps([summary]),
    "summary-without-config": lambda summary: json.dumps(_without(summary, "config")),
    "config-without-pairing": lambda summary: json.dumps({**summary, "config": _without(summary["config"], "pairing")}),
    "config-without-backend": lambda summary: json.dumps({**summary, "config": _without(summary["config"], "backend")}),
    "workload-without-scale": lambda summary: json.dumps(
        {**summary, "config": {**summary["config"], "workload": _without(summary["config"]["workload"], "scale")}}),
    # the analysis settings alone, as an older re-analysis archived them
    "config-of-analysis-settings": lambda summary: json.dumps({**summary, "config": {
        key: summary["config"][key]
        for key in ("seed", "labels", "ci_level", "resamples", "threshold_pct", "min_samples", "pairing")}}),
}


@pytest.mark.parametrize("archive", [*_SUMMARY_EDITS, "negative-seed", "raw-without-order-position"])
def test_analyze_refuses_malformed_settings(tmp_path, capsys, archive):
    assert main(["run", "--strategy", "duet", *FAST_FLAGS, "--out", str(tmp_path)]) == EXIT_PASS
    summary, raw = tmp_path / "summary.json", tmp_path / "raw.csv"
    flags, error = [], "ConfigError"
    if archive in _SUMMARY_EDITS:
        summary.write_text(_SUMMARY_EDITS[archive](json.loads(summary.read_text())))
    else:  # without a summary.json only the flags set the analysis
        summary.unlink()
        if archive == "negative-seed":
            flags = ["--seed", "-1"]
        else:
            header, rows = raw.read_text().split("\n", 1)
            raw.write_text(header.replace("order_position", "position") + "\n" + rows)
            error = "BenchmarkError"
    capsys.readouterr()
    assert main(["analyze", str(raw), *flags]) == EXIT_ERROR
    assert json.loads(capsys.readouterr().err)["error"] == error


@pytest.mark.parametrize(("exc", "expected"), [
    pytest.param(RuntimeError("boom"), EXIT_ERROR, id="crash"),
    pytest.param(KeyboardInterrupt(), EXIT_INTERRUPTED, id="interrupt"),
])
def test_unexpected_exception_never_exits_one(tmp_path, capsys, monkeypatch, exc, expected):
    def fail(cfg):
        raise exc

    monkeypatch.setattr(duetbench.cli, "run_experiment", fail)
    assert main(["run", "--out", str(tmp_path)]) == expected
    if expected == EXIT_ERROR:
        assert json.loads(capsys.readouterr().err) == {"error": "RuntimeError", "message": "boom"}


def test_flags_set_their_fields(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"repetitions": 300, "model": {"temporal_sigma": 0.02}}))
    args = build_parser().parse_args([
        "sweep", "--config", str(config), "--strategy", "duet", "--strategy", "rmit", "--no-pin",
        "--cores", "2", "3", "--quality-cv", "0.3", "--out", str(tmp_path / "r"), "--format", "json",
    ])
    cfg = _config_from_args(args)
    assert cfg.strategies == (Strategy.DUET, Strategy.RMIT)
    assert (cfg.repetitions, cfg.run_sweep, cfg.pinning, cfg.core_a, cfg.core_b) == (300, True, False, 2, 3)
    assert (cfg.model.temporal_sigma, cfg.model.instance_quality_cv) == (0.02, 0.3)
    assert (cfg.output_dir, cfg.formats) == (tmp_path / "r", ("json",))


EXPERIMENT_FLAGS = {
    "-h", "--help", "--config", "--backend", "--repetitions", "--instances", "--seed", "--workload", "--scale",
    "--regression-pct", "--baseline-label", "--candidate-label", "--ci-level", "--resamples", "--threshold-pct",
    "--min-samples", "--sweep", "--sweep-start", "--sweep-stop", "--sweep-step", "--clock", "--pairing", "--no-pin",
    "--cores", "--quality-cv", "--temporal-sigma", "--cold-penalty-ms", "--base-cost-ns", "--drift-period-s",
    "--drift-amplitude", "--duet-jitter-cv", "--time-step-s", "--out", "--format",
}


def test_flag_sets_match_and_name_config_fields():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {o for a in p._actions for o in a.option_strings} for name, p in sub.choices.items()}
    assert flags == {
        "run": EXPERIMENT_FLAGS | {"--strategy"},
        "compare": EXPERIMENT_FLAGS,
        "sweep": EXPERIMENT_FLAGS | {"--strategy"},
        "analyze": {"-h", "--help", "--seed", "--ci-level", "--resamples", "--threshold-pct", "--min-samples",
                    "--baseline-label", "--candidate-label", "--pairing", "--out", "--format"},
    }
    names = {f.name for f in fields(ExperimentConfig)} | {f"model.{f.name}" for f in fields(VariabilityModel)}
    dests = {a.dest for p in sub.choices.values() for a in p._actions if a.option_strings}
    assert dests - names == {"help", "config", "cores"}


@pytest.mark.parametrize("command", ["run", "compare", "sweep", "analyze"])
def test_help_names_every_option(capsys, command):
    # argparse checks nargs and metavar only when it formats help or usage
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    words = set(re.findall(r"--?[\w-]+", capsys.readouterr().out))
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {o for a in sub.choices[command]._actions for o in a.option_strings}
    assert options and options <= words


# Valid values of each key of the default config layout, small enough that a
# run takes well under a second; the backend stays simulated. The size keys
# are always drawn, so no example falls back to a default-size gate or sweep.
_VALID = {
    "strategies": st.lists(st.sampled_from([s.value for s in Strategy]), min_size=1, max_size=3, unique=True),
    "repetitions": st.integers(1, 150),
    "instances": st.integers(1, 4),
    "seed": st.integers(0, 2**32),
    "workload": st.fixed_dictionaries({}, optional={
        "kind": st.sampled_from([k.value for k in WorkloadKind]), "scale": st.integers(1, 10_000),
    }),
    "regression_pct": st.floats(-20, 20),
    "labels": st.lists(st.text("ABxy", min_size=1, max_size=3), min_size=2, max_size=2, unique=True),
    "ci_level": st.floats(0.5, 0.999),
    "resamples": st.integers(1000, 1100),
    "threshold_pct": st.floats(-5, 5),
    "min_samples": st.integers(1, 60),
    "sweep": st.fixed_dictionaries({}, optional={
        "enabled": st.booleans(), "start": st.integers(1, 150), "stop": st.integers(1, 150),
        "step": st.integers(1, 40),
    }),
    "clock": st.sampled_from([None, "cpu_time", "wall_clock"]),
    "pairing": st.sampled_from(["index", "random"]),
    "pinning": st.booleans(),
    "cores": st.lists(st.integers(0, 3), min_size=2, max_size=2),
    "model": st.fixed_dictionaries({}, optional={f.name: st.floats(0.001, 0.5) for f in fields(VariabilityModel)}),
}
# Any JSON value; integers stay small, so a size key given one still runs quickly.
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 200) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
_LAYOUT = ExperimentConfig().to_dict()
# Key paths an example may give any JSON value; None stands for an unknown key.
_PATHS = [None] + [(k,) for k in _VALID] + [(k, sub) for k, v in _LAYOUT.items() if isinstance(v, dict) for sub in v]


@st.composite
def _any_config(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(_ANY_JSON)
    sizes = {k: _VALID[k] for k in ("repetitions", "resamples")}
    rest = {k: v for k, v in _VALID.items() if k not in sizes}
    config = {"backend": "simulated", **draw(st.fixed_dictionaries(sizes, optional=rest))}
    for path in draw(st.lists(st.sampled_from(_PATHS), max_size=2, unique=True)):
        if path is None:
            config[draw(st.text(max_size=4).filter(lambda k: k not in _LAYOUT))] = draw(_ANY_JSON)
        elif len(path) == 1:
            config[path[0]] = draw(_ANY_JSON)
        elif isinstance(config.setdefault(path[0], {}), dict):
            config[path[0]][path[1]] = draw(_ANY_JSON)
    return config


_EXIT_OF_VERDICT = {"pass": EXIT_PASS, "regression": EXIT_REGRESSION, "inconclusive": EXIT_INCONCLUSIVE}


@settings(max_examples=60, deadline=None)
@given(config=_any_config())
def test_any_config_exits_with_a_gate_code(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")])
        if code == EXIT_ERROR:
            assert set(json.loads(stderr.getvalue())) == {"error", "message"}
        else:
            # 1 only for a regression verdict; 0 and 3 only for theirs
            summary = json.loads((Path(tmp) / "out" / "summary.json").read_text())
            assert code == _EXIT_OF_VERDICT[summary["overall_verdict"]]
