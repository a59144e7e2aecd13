"""Command line interface.

Subcommands: run, compare, sweep, analyze. Exit codes are the pipeline
contract: 0 = pass, 1 = regression detected, 2 = error, 3 = inconclusive,
130 = interrupted (compare and sweep are reporting commands and exit 0
unless an error occurs). Every flag but `--config` sets the ExperimentConfig
field its `dest` names; `cores` sets `core_a` and `core_b`, `model.<field>` a model field.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import NoReturn

from .analysis import Verdict
from .config import ExperimentConfig, add_flags, flag_values
from .errors import ConfigError
from .harness import Report, emit_report, reanalyze_raw, run_experiment
from .measurement import STRATEGIES

EXIT_PASS = 0
EXIT_REGRESSION = 1
EXIT_ERROR = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERRUPTED = 130

_VERDICT_EXIT = {Verdict.PASS: EXIT_PASS, Verdict.REGRESSION: EXIT_REGRESSION, Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE}


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    given = flag_values(args)
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
    report = reanalyze_raw(args.raw_csv, **flag_values(args))
    if args.output_dir is not None:
        emit_report(report, args.output_dir, report.cfg.formats)
    _print_table(report)
    print(f"overall verdict: {report.overall_verdict.value}")
    return _VERDICT_EXIT[report.overall_verdict]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:  # a malformed command line exits 2 with the JSON error
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="duetbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured strategies and gate on the verdict")
    add_flags(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run all three strategies and tabulate CI widths")
    add_flags(p_cmp, skip=("strategies",))
    p_cmp.set_defaults(fn=_cmd_report, strategies=STRATEGIES)

    p_sweep = sub.add_parser("sweep", help="run with the sample-size sweep enabled")
    add_flags(p_sweep)
    p_sweep.set_defaults(fn=_cmd_report, run_sweep=True)

    p_an = sub.add_parser("analyze", help="recompute CIs and verdicts from an archived raw.csv")
    p_an.add_argument("raw_csv", type=Path)
    add_flags(p_an, analyze=True)
    p_an.set_defaults(fn=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
