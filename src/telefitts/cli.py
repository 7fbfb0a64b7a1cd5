"""Command-line front end.

Exit codes are a stable scripting contract: 0 success, 2 input/config
error, 3 I/O error, 4 incomplete-data error. All randomness enters through
the explicit seed; reruns with identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys

from .comparison import (
    MODEL_ORDER,
    compare_models,
    group_summaries,
    parse_records,
    render_records,
    render_table,
    table1_cells,
)
from .models import AmplitudeMode
from .regression import FitResult
from .throughput import render_throughput_records, throughput_by_group
from .trials import (
    IncompleteGridError,
    LogFormatError,
    TrialTable,
    group_by_condition,
    read_trial_log,
    validate_log,
    write_trial_log,
)
from .sim.study import generate_study, load_study_config

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_INCOMPLETE = 4


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telefitts",
        description="Simulate, fit, and compare teleportation pointing models.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="generate a trial log from a study config")
    sim.add_argument("--input", required=True, help="study config file (YAML)")
    sim.add_argument("--output", required=True, help="trial-log CSV to write")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")

    val = sub.add_parser("validate", help="check a trial log against the data invariants")
    val.add_argument("--input", required=True)

    fit = sub.add_parser("fit", help="fit the four models on the overall condition means")
    fit.add_argument("--input", required=True)
    fit.add_argument("--output", default=None)
    _add_analysis_flags(fit, amplitude_default="euclidean")

    cmp_ = sub.add_parser("compare", help="8-group model comparison report")
    cmp_.add_argument("--input", required=True)
    cmp_.add_argument("--output", default=None)
    cmp_.add_argument("--format", choices=["table", "records"], default="table")
    _add_analysis_flags(cmp_, amplitude_default="both")

    tp = sub.add_parser("throughput", help="per technique/posture throughput summary")
    tp.add_argument("--input", required=True)
    tp.add_argument("--output", default=None)
    tp.add_argument("--allow-partial-grid", action="store_true")
    tp.add_argument(
        "--amplitude-mode", choices=["euclidean", "depth"], default="euclidean"
    )

    rep = sub.add_parser("report", help="render a records file as the aligned table")
    rep.add_argument("--input", required=True)
    rep.add_argument("--output", default=None)
    return parser


def _add_analysis_flags(p: argparse.ArgumentParser, amplitude_default: str) -> None:
    p.add_argument(
        "--amplitude-mode",
        choices=["euclidean", "depth", "both"],
        default=amplitude_default,
    )
    p.add_argument(
        "--aggregation",
        choices=["means-of-means", "pooled"],
        default="means-of-means",
    )


def _amplitude_modes(flag: str) -> list[AmplitudeMode]:
    if flag == "both":
        return [AmplitudeMode.EUCLIDEAN, AmplitudeMode.DEPTH_ONLY]
    return [AmplitudeMode(flag)]


def _read_log_or_fail(path: str) -> TrialTable:
    trials = read_trial_log(path)
    violations = validate_log(trials)
    if violations:
        v = violations[0]
        raise LogFormatError(f"{v.message} ({v.field})", trials.line_number(v.trial_index))
    return trials


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_study_config(args.input, seed_override=args.seed)
    trials = generate_study(config)
    write_trial_log(trials, args.output)
    print(
        f"wrote {len(trials)} trials ({config.participants} participants, "
        f"seed {config.seed}, preset {config.preset}) to {args.output}"
    )
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    trials = read_trial_log(args.input)
    violations = validate_log(trials)
    for v in violations:
        print(f"line {trials.line_number(v.trial_index)}: {v.field}: {v.message}")
    print(f"{len(violations)} violations in {len(trials)} trials")
    return EXIT_OK if not violations else EXIT_INPUT


def _fit_lines(fits: dict, mode: AmplitudeMode) -> list[str]:
    lines = [f"amplitude mode: {mode.value}"]
    for kind in MODEL_ORDER:
        fit: FitResult = fits[kind]
        coef = ", ".join(f"{c:.6f}" for c in fit.coefficients)
        lines.append(
            f"  {kind.value:<9} coef=({coef})  r2={fit.r2:.4f}  adj={fit.adj_r2:.4f}  "
            f"aic={fit.aic:.3f}  bic={fit.bic:.3f}"
        )
    return lines


def _cmd_fit(args: argparse.Namespace) -> int:
    trials = _read_log_or_fail(args.input)
    cells = group_summaries(group_by_condition(trials), "All",
                            pooled=args.aggregation == "pooled")
    lines: list[str] = []
    for mode in _amplitude_modes(args.amplitude_mode):
        lines.extend(_fit_lines(compare_models(cells, mode).fits, mode))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    cells = table1_cells(_read_log_or_fail(args.input), pooled=args.aggregation == "pooled")
    reports = [
        compare_models(group, mode, group_label=label)
        for mode in _amplitude_modes(args.amplitude_mode)
        for label, group in cells.items()
    ]
    text = render_records(reports) if args.format == "records" else render_table(reports)
    _emit(text, args.output)
    return EXIT_OK


def _cmd_throughput(args: argparse.Namespace) -> int:
    trials = _read_log_or_fail(args.input)
    summaries = throughput_by_group(
        trials,
        AmplitudeMode(args.amplitude_mode),
        allow_partial_grid=args.allow_partial_grid,
    )
    _emit(render_throughput_records(summaries), args.output)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        reports = parse_records(fh.read())
    _emit(render_table(reports), args.output)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "fit": _cmd_fit,
    "compare": _cmd_compare,
    "throughput": _cmd_throughput,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except ValueError as exc:  # ConfigError and LogFormatError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE if isinstance(exc, IncompleteGridError) else EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
