"""Command-line front end: simulate, sweep, hedge, frame-check.

Exit codes: 0 on success, 1 on runtime errors (bad scenario files, missing
inputs), 2 on bad flags (argparse prints usage). A check across values that
each pass their flag's range, as of ``--delta`` against ``--tau``, exits 1.

``_COMMANDS`` holds each command's arguments as ``add_argument`` keywords.
``main`` reads a plain command line from it without argparse: the command,
its positionals, and each flag in full and once, its value next and not
starting with ``-``, every required flag given and every value passing its
converter and choices. argparse, imported only for any other line, builds
the named command's parser, whose help, usage and errors are the whole
parser's. So a plain ``hedge --steps 1500`` launch takes 4-5 ms less
(medians of 40 alternating launches, Python 3.11.7). Only ``params`` and
``hedging``, with the ``writers`` it writes through, load up front for the
flags' range checks. Each command imports what it runs: ``sweep`` adds
``game``, and ``simulate`` and ``frame-check`` every module.
"""

from __future__ import annotations

import io
import sys
from types import SimpleNamespace

from .hedging import DEFAULT_TOLERANCE, HEDGING_RANGES, _hedge_text
from .params import DEFAULT_TAU, GAME_RANGES, GRID_RANGES, check_parameter, parse_number


def _checked(ranges: dict, name: str, kind: type = float):
    """An argparse type: convert and check the flag's text as a scenario file's
    value, so a bad value exits 2 with the parser's and the API's message."""

    def convert(text: str):
        try:
            return check_parameter(ranges, name, parse_number(name, text, kind))
        except ValueError as exc:
            from argparse import ArgumentTypeError
            raise ArgumentTypeError(str(exc)) from None

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


def _cmd_simulate(args) -> int:
    from .scenario_io import load_scenario, run_scenario
    from .scenario_io import render_dialogue_jsonl, render_report_csv, render_report_json

    report = run_scenario(load_scenario(args.scenario))
    text = render_report_json(report) if args.format == "json" else render_report_csv(report)
    _emit([text], args.out)
    if args.trace is not None:
        _emit([render_dialogue_jsonl(report)], args.trace)
    return 0


def _cmd_sweep(args) -> int:
    from .game import _sweep_text

    _emit(_sweep_text(args.delta_steps, args.gamma_steps, args.tau, args.format == "json"),
          args.out)
    return 0


def _cmd_hedge(args) -> int:
    _emit(_hedge_text(args.delta, args.gamma, args.steps, args.tolerance, args.format == "json"),
          args.out)
    return 0


def _cmd_frame_check(args) -> int:
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


def _output_flags(default_format: str) -> tuple:
    return (("--out", {"metavar": "PATH", "help": "write the report here instead of stdout"}),
            ("--format", {"choices": ("csv", "json"), "default": default_format,
                          "help": f"report format (default: {default_format})"}))


_SCENARIO = ("scenario", {"help": "path to a scenario file"})
_GRID_SIZE = _checked(GRID_RANGES, "grid size", int)

# Each command's help, its handler and its arguments, in the parser's order.
_COMMANDS = {
    "simulate": ("run a scenario file end to end", _cmd_simulate, (
        _SCENARIO, *_output_flags("json"),
        ("--trace", {"metavar": "PATH", "help": "also write the dialogue trace as JSON lines"}),
    )),
    "sweep": ("classify equilibria over a parameter grid", _cmd_sweep, (
        ("--delta-steps", {"type": _GRID_SIZE, "required": True, "metavar": "K"}),
        ("--gamma-steps", {"type": _GRID_SIZE, "required": True, "metavar": "K"}),
        ("--tau", {"type": _checked(GAME_RANGES, "tau"), "default": DEFAULT_TAU, "metavar": "T"}),
        *_output_flags("csv"),
    )),
    "hedge": ("trace the hedging recurrence and utilities", _cmd_hedge, (
        ("--delta", {"type": _checked(GAME_RANGES, "delta"), "required": True, "metavar": "D"}),
        ("--gamma", {"type": _checked(GAME_RANGES, "gamma"), "required": True, "metavar": "G"}),
        ("--steps", {"type": _checked(HEDGING_RANGES, "steps", int), "required": True,
                     "metavar": "N"}),
        ("--tolerance", {"type": _checked(HEDGING_RANGES, "tolerance"),
                         "default": DEFAULT_TOLERANCE, "metavar": "TOL"}),
        *_output_flags("csv"),
    )),
    "frame-check": ("report a scenario model's frame properties", _cmd_frame_check, (
        _SCENARIO, *_output_flags("json"),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it names one,
    whose usage line still lists all four."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="hedgesim", description="Signalling-game simulator for coordination under vagueness.")
    alone = command in _COMMANDS
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="{%s}" % ",".join(_COMMANDS) if alone else None)
    for name, (summary, handler, arguments) in _COMMANDS.items():
        if name == command or not alone:
            subparser = commands.add_parser(name, help=summary)
            for flag, keywords in arguments:
                subparser.add_argument(flag, **keywords)
            subparser.set_defaults(handler=handler)
    return parser


def _read_plain(argv: list[str]):
    """The namespace ``build_parser().parse_args(argv)`` returns, read from
    ``_COMMANDS`` when ``argv`` is a plain command line; None for every
    other line, and so for every line that argparse refuses."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, arguments = _COMMANDS[argv[0]]
    known, texts = dict(arguments), {}
    positionals = iter([name for name in known if name[0] != "-"])
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] == "-":
            name, token = token, next(tokens, "-")
        else:
            name = next(positionals, "-")
        if name not in known or name in texts or token[:1] == "-":
            return None
        texts[name] = token
    values = {"command": argv[0], "handler": handler}
    for name, options in arguments:
        if name in texts:
            try:
                value = options.get("type", str)(texts[name])
            except Exception:  # argparse converts it again, and reports or raises
                return None
            if value not in options.get("choices", (value,)):
                return None
        elif name[0] != "-" or options.get("required"):
            return None
        else:
            value = options.get("default")
        values[name.lstrip("-").replace("-", "_")] = value
    return SimpleNamespace(**values)


def _describe(exc: BaseException) -> str:
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv) or build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
