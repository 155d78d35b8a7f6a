"""Command-line front end: simulate, sweep, hedge, frame-check.

Exit codes: 0 on success, 1 on runtime errors (bad scenario files, missing
inputs), 2 on bad flags (argparse prints usage). A check across values that
each pass their flag's range, as of ``--delta`` against ``--tau``, exits 1.

Only ``params`` and ``hedging``, with the ``writers`` it writes through, load
up front for the flags' range checks, and only the named command's parser is
built. Each command imports what it runs: ``sweep`` adds ``game``, and
``simulate`` and ``frame-check`` every module.
"""

from __future__ import annotations

import argparse
import io
import sys

from .hedging import DEFAULT_TOLERANCE, HEDGING_RANGES, _hedge_text
from .params import DEFAULT_TAU, GAME_RANGES, GRID_RANGES, check_parameter, parse_number


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
    """Write the text ``pieces`` to the file ``out``, or to stdout's file
    through a buffered stream of its own, even when stdout is unbuffered.
    Stdout is flushed first and holds none of the text, so a reader that
    closes early fails only that stream, which the ``with`` block closes."""
    if out is not None:
        stream = open(out, "w", encoding="utf-8")
    else:
        sys.stdout.flush()  # text written before goes first
        try:
            stream = open(sys.stdout.fileno(), "w", encoding=sys.stdout.encoding,
                          errors=sys.stdout.errors, newline="", closefd=False)
        except (AttributeError, io.UnsupportedOperation):  # a StringIO, say
            sys.stdout.writelines(pieces)
            return
    with stream:
        stream.writelines(pieces)


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
    from .scenario_io import render_dialogue_jsonl, render_report_csv, render_report_json

    report = run_scenario(load_scenario(args.scenario))
    text = render_report_json(report) if args.format == "json" else render_report_csv(report)
    _emit([text], args.out)
    if args.trace is not None:
        _emit([render_dialogue_jsonl(report)], args.trace)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .game import _sweep_text

    _emit(_sweep_text(args.delta_steps, args.gamma_steps, args.tau, args.format == "json"),
          args.out)
    return 0


def _cmd_hedge(args: argparse.Namespace) -> int:
    _emit(_hedge_text(args.delta, args.gamma, args.steps, args.tolerance, args.format == "json"),
          args.out)
    return 0


def _cmd_frame_check(args: argparse.Namespace) -> int:
    from .scenario_io import load_scenario, render_frame_csv, render_frame_json
    from .semantics import check_frame
    from .worlds import pool_states

    scenario = load_scenario(args.scenario)
    frame = check_frame(pool_states(scenario.series))
    _emit([frame.summary(), "\n"], None)
    if args.out is not None:
        text = render_frame_json(frame) if args.format == "json" else render_frame_csv(frame)
        _emit([text], args.out)
    return 0


def _add_simulate(commands) -> None:
    simulate = commands.add_parser("simulate", help="run a scenario file end to end")
    simulate.add_argument("scenario", help="path to a scenario file")
    _add_output_flags(simulate, default_format="json")
    simulate.add_argument(
        "--trace", metavar="PATH", help="also write the dialogue trace as JSON lines"
    )
    simulate.set_defaults(handler=_cmd_simulate)


def _add_sweep(commands) -> None:
    sweep = commands.add_parser("sweep", help="classify equilibria over a parameter grid")
    grid_size = _checked(GRID_RANGES, "grid size", int)
    sweep.add_argument("--delta-steps", type=grid_size, required=True, metavar="K")
    sweep.add_argument("--gamma-steps", type=grid_size, required=True, metavar="K")
    sweep.add_argument("--tau", type=_checked(GAME_RANGES, "tau"), default=DEFAULT_TAU, metavar="T")
    _add_output_flags(sweep, default_format="csv")
    sweep.set_defaults(handler=_cmd_sweep)


def _add_hedge(commands) -> None:
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


def _add_frame_check(commands) -> None:
    frame = commands.add_parser("frame-check", help="report a scenario model's frame properties")
    frame.add_argument("scenario", help="path to a scenario file")
    _add_output_flags(frame, default_format="json")
    frame.set_defaults(handler=_cmd_frame_check)


_COMMANDS = {"simulate": _add_simulate, "sweep": _add_sweep, "hedge": _add_hedge,
             "frame-check": _add_frame_check}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it names one,
    whose usage line still lists all four."""
    parser = argparse.ArgumentParser(
        prog="hedgesim",
        description="Signalling-game simulator for coordination under vagueness.",
    )
    alone = command in _COMMANDS
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="{%s}" % ",".join(_COMMANDS) if alone else None)
    for name, add in _COMMANDS.items():
        if name == command or not alone:
            add(commands)
    return parser


def _describe(exc: BaseException) -> str:
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
