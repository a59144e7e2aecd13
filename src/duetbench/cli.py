"""Command line interface.

Subcommands: run, compare, sweep, analyze. Exit codes are the pipeline
contract: 0 = pass, 1 = regression detected, 2 = error, 3 = inconclusive,
130 = interrupted (compare and sweep are reporting commands and exit 0
unless an error occurs). Every flag sets the ExperimentConfig field its
`dest` names; `model.<field>` sets a field of the VariabilityModel.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .analysis import Verdict
from .errors import ConfigError
from .harness import (
    ALL_STRATEGIES,
    ExperimentConfig,
    Report,
    archived_settings,
    emit_report,
    reanalyze_raw,
    run_experiment,
)
from .measurement import Backend, ClockMode, Strategy
from .simenv import VariabilityModel
from .workloads import WorkloadKind

EXIT_PASS = 0
EXIT_REGRESSION = 1
EXIT_ERROR = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERRUPTED = 130

_VERDICT_EXIT = {Verdict.PASS: EXIT_PASS, Verdict.REGRESSION: EXIT_REGRESSION, Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE}

# A model flag is its field's name with dashes, except for these two.
_SHORT_MODEL_FLAGS = {"instance_quality_cv": "quality-cv", "base_cost_ns_per_unit": "base-cost-ns"}


def _add_experiment_flags(p: argparse.ArgumentParser, *, with_strategies: bool) -> None:
    p.add_argument("--config", type=Path, help="JSON config file; flags override its values")
    if with_strategies:
        p.add_argument("--strategy", dest="strategies", action="append", choices=[s.value for s in Strategy],
                       help="strategy to run (repeatable; default: all three)")
    p.add_argument("--backend", choices=[b.value for b in Backend])
    p.add_argument("--repetitions", type=int)
    p.add_argument("--instances", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workload", choices=[k.value for k in WorkloadKind])
    p.add_argument("--scale", type=int)
    p.add_argument("--regression-pct", type=float)
    p.add_argument("--baseline-label")
    p.add_argument("--candidate-label")
    p.add_argument("--ci-level", type=float)
    p.add_argument("--resamples", type=int)
    p.add_argument("--threshold-pct", type=float)
    p.add_argument("--min-samples", type=int)
    p.add_argument("--sweep", dest="run_sweep", action="store_true", default=None,
                   help="also compute the sample-size sweep")
    p.add_argument("--sweep-start", type=int)
    p.add_argument("--sweep-stop", type=int)
    p.add_argument("--sweep-step", type=int)
    p.add_argument("--clock", choices=[c.value for c in ClockMode], help="force one clock for every strategy")
    p.add_argument("--pairing", choices=["index", "random"])
    p.add_argument("--no-pin", dest="pinning", action="store_false", default=None,
                   help="run live workers without core pinning")
    p.add_argument("--cores", type=int, nargs=2, metavar=("CORE_A", "CORE_B"))
    for f in fields(VariabilityModel):
        flag = _SHORT_MODEL_FLAGS.get(f.name, f.name.replace("_", "-"))
        p.add_argument(f"--{flag}", dest=f"model.{f.name}", type=float)
    p.add_argument("--out", dest="output_dir", type=Path, help="output directory (default: results)")
    p.add_argument("--format", dest="formats", action="append", choices=["json", "csv"],
                   help="summary format (repeatable)")


def _given(args: argparse.Namespace) -> dict:
    """The config fields set on the command line, by field name."""
    not_fields = ("command", "fn", "config", "raw_csv")
    given = {k: v for k, v in vars(args).items() if v is not None and k not in not_fields}
    if "cores" in given:
        given["core_a"], given["core_b"] = given.pop("cores")
    return given


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    given = _given(args)
    model = {k.removeprefix("model."): given.pop(k) for k in list(given) if k.startswith("model.")}
    cfg = ExperimentConfig.from_file(args.config, **given) if args.config else ExperimentConfig(**given)
    return replace(cfg, model=replace(cfg.model, **model)) if model else cfg


def _print_table(report: Report) -> None:
    print(f"{'strategy':<14} {'width_pp':>12} {'median_change_pct':>20} {'verdict':>14}")
    for result in report.results:
        print(f"{result.strategy.value:<14} {result.ci.width_pp:>12.4f} {result.median_change_pct:>20.4f} {result.verdict.value:>14}")


def _emit_and_summarize(report: Report, cfg: ExperimentConfig) -> None:
    written = emit_report(report, cfg.output_dir, cfg.formats)
    _print_table(report)
    for name, path in sorted(written.items()):
        print(f"wrote {name}: {path}")


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    report = run_experiment(cfg)
    _emit_and_summarize(report, cfg)
    print(f"overall verdict: {report.overall_verdict.value}")
    return _VERDICT_EXIT[report.overall_verdict]


def _cmd_report(args: argparse.Namespace) -> int:
    """compare and sweep: their subparser defaults set the strategies or the sweep."""
    cfg = _config_from_args(args)
    _emit_and_summarize(run_experiment(cfg), cfg)
    return EXIT_PASS


def _cmd_analyze(args: argparse.Namespace) -> int:
    given = _given(args)
    archived = archived_settings(args.raw_csv)
    clash = sorted(k for k in given.keys() & archived.keys() if given[k] != archived[k])
    if clash:
        raise ConfigError("flags contradict the archive's summary.json: " + ", ".join(
            f"{k} {given[k]!r} (archived {archived[k]!r})" for k in clash))
    settings = {**archived, **given}
    cfg = ExperimentConfig(**settings)  # `run`'s defaults only for what no summary.json holds
    report = reanalyze_raw(args.raw_csv, **{**settings, "seed": cfg.seed})
    if args.output_dir is not None:
        emit_report(report, cfg.output_dir, cfg.formats)
    _print_table(report)
    print(f"overall verdict: {report.overall_verdict.value}")
    return _VERDICT_EXIT[report.overall_verdict]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="duetbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured strategies and gate on the verdict")
    _add_experiment_flags(p_run, with_strategies=True)
    p_run.set_defaults(fn=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run all three strategies and tabulate CI widths")
    _add_experiment_flags(p_cmp, with_strategies=False)
    p_cmp.set_defaults(fn=_cmd_report, strategies=ALL_STRATEGIES)

    p_sweep = sub.add_parser("sweep", help="run with the sample-size sweep enabled")
    _add_experiment_flags(p_sweep, with_strategies=True)
    p_sweep.set_defaults(fn=_cmd_report, run_sweep=True)

    p_an = sub.add_parser("analyze", help="recompute CIs and verdicts from an archived raw.csv")
    p_an.add_argument("raw_csv", type=Path)
    p_an.add_argument("--seed", type=int)
    p_an.add_argument("--ci-level", type=float)
    p_an.add_argument("--resamples", type=int)
    p_an.add_argument("--threshold-pct", type=float)
    p_an.add_argument("--min-samples", type=int)
    p_an.add_argument("--baseline-label")
    p_an.add_argument("--candidate-label")
    p_an.add_argument("--pairing", choices=["index", "random"])
    p_an.add_argument("--out", dest="output_dir", type=Path)
    p_an.add_argument("--format", dest="formats", action="append", choices=["json", "csv"])
    p_an.set_defaults(fn=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED
    except Exception as exc:  # the exit code is the contract: never 1 for a crash
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_ERROR


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
