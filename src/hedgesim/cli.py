"""Command-line front end: simulate, sweep, hedge, frame-check.

Exit codes: 0 on success, 1 on runtime errors (bad scenario files, missing
inputs), 2 on bad flags (argparse prints usage).

Only ``game`` and ``hedging`` load up front, for the flags' range checks.
Each command imports the rest of what it runs, so ``sweep`` and ``hedge``
never load the world models, the semantics or the scenario runner.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain

from .game import (
    DEFAULT_TAU,
    GAME_RANGES,
    GRID_RANGES,
    GameConfig,
    _sweep_runs,
    check_parameter,
    grid,
    parse_number,
)
from .hedging import DEFAULT_TOLERANCE, HEDGING_RANGES, run_hedging


def _checked(ranges: dict, name: str, kind: type = float):
    """An argparse type: convert and check the flag's text as a scenario file's
    value, so a bad value exits 2 with the parser's and the API's message."""

    def convert(text: str):
        try:
            return check_parameter(ranges, name, parse_number(name, text, kind))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _emit(pieces, out: str | None) -> None:
    """Write the text ``pieces`` to the file ``out``, or to stdout. When a
    reader closes stdout early, stdout is pointed at the null device before
    the error goes on, so that the exit's flush of what is still buffered
    cannot fail again."""
    if out:
        with open(out, "w", encoding="utf-8") as file:
            file.writelines(pieces)
        return
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise


def _add_output_flags(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        default=default_format,
        help=f"report format (default: {default_format})",
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .scenario_io import load_scenario, run_scenario
    from .writers import render_dialogue_jsonl, render_report_csv, render_report_json

    report = run_scenario(load_scenario(args.scenario))
    text = render_report_json(report) if args.format == "json" else render_report_csv(report)
    _emit([text], args.out)
    if args.trace:
        _emit([render_dialogue_jsonl(report)], args.trace)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Build, write and drop the rows one delta at a time."""
    from .writers import _sweep_chunks

    runs = _sweep_runs(grid(args.delta_steps), grid(args.gamma_steps), args.tau)
    _emit(_sweep_chunks(chain.from_iterable(runs), args.format == "json"), args.out)
    return 0


def _cmd_hedge(args: argparse.Namespace) -> int:
    from .writers import render_hedging_csv, render_hedging_json

    config = GameConfig(delta=args.delta, gamma=args.gamma)
    trace = run_hedging(config, max_steps=args.steps, tolerance=args.tolerance)
    text = render_hedging_json(trace) if args.format == "json" else render_hedging_csv(trace)
    _emit([text], args.out)
    return 0


def _cmd_frame_check(args: argparse.Namespace) -> int:
    from .scenario_io import load_scenario
    from .semantics import check_frame
    from .worlds import pool_states
    from .writers import render_frame_csv, render_frame_json

    scenario = load_scenario(args.scenario)
    frame = check_frame(pool_states(scenario.series))
    _emit([frame.summary(), "\n"], None)
    if args.out:
        text = render_frame_json(frame) if args.format == "json" else render_frame_csv(frame)
        _emit([text], args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hedgesim",
        description="Signalling-game simulator for coordination under vagueness.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="run a scenario file end to end")
    simulate.add_argument("scenario", help="path to a scenario file")
    _add_output_flags(simulate, default_format="json")
    simulate.add_argument(
        "--trace", metavar="PATH", help="also write the dialogue trace as JSON lines"
    )
    simulate.set_defaults(handler=_cmd_simulate)

    sweep = commands.add_parser("sweep", help="classify equilibria over a parameter grid")
    grid_size = _checked(GRID_RANGES, "grid size", int)
    sweep.add_argument("--delta-steps", type=grid_size, required=True, metavar="K")
    sweep.add_argument("--gamma-steps", type=grid_size, required=True, metavar="K")
    sweep.add_argument("--tau", type=_checked(GAME_RANGES, "tau"), default=DEFAULT_TAU, metavar="T")
    _add_output_flags(sweep, default_format="csv")
    sweep.set_defaults(handler=_cmd_sweep)

    hedge = commands.add_parser("hedge", help="trace the hedging recurrence and utilities")
    hedge.add_argument("--delta", type=_checked(GAME_RANGES, "delta"), required=True, metavar="D")
    hedge.add_argument("--gamma", type=_checked(GAME_RANGES, "gamma"), required=True, metavar="G")
    steps = _checked(HEDGING_RANGES, "steps", int)
    hedge.add_argument("--steps", type=steps, required=True, metavar="N")
    hedge.add_argument(
        "--tolerance",
        type=_checked(HEDGING_RANGES, "tolerance"),
        default=DEFAULT_TOLERANCE,
        metavar="TOL",
    )
    _add_output_flags(hedge, default_format="csv")
    hedge.set_defaults(handler=_cmd_hedge)

    frame = commands.add_parser("frame-check", help="report a scenario model's frame properties")
    frame.add_argument("scenario", help="path to a scenario file")
    _add_output_flags(frame, default_format="json")
    frame.set_defaults(handler=_cmd_frame_check)

    return parser


def _describe(exc: BaseException) -> str:
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
