import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hedgesim import cli, game
from hedgesim.cli import build_parser, main
from hedgesim.game import GameConfig, grid, threshold_sweep
from hedgesim.hedging import run_hedging
from hedgesim.params import parse_number
from hedgesim.scenario_io import ScenarioParseError, parse_scenario
from hedgesim.worlds import SoritesSeries

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"
CANONICAL = DATA_DIR / "canonical.scn"


def child_env(unbuffered: bool = False) -> dict:
    """The environment of a CLI child that finds the package, its stdout
    buffered unless ``unbuffered``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "hedgesim", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
    )


# --- direct invocation ------------------------------------------------------


def test_simulate_json(tmp_path):
    out = tmp_path / "report.json"
    assert main(["simulate", str(CANONICAL), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["signal"] == "might phi"
    assert payload["dialogue"][0]["live"] == ["w1", "w2", "w3"]
    assert payload["dialogue"][1]["live"] == ["w1", "w2"]
    assert payload["posterior"]["w2"] == 0.99


def test_simulate_csv_and_trace(tmp_path):
    out = tmp_path / "report.csv"
    trace = tmp_path / "dialogue.jsonl"
    code = main(
        ["simulate", str(CANONICAL), "--format", "csv", "--out", str(out), "--trace", str(trace)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "time,signal,live,posterior"
    assert lines[2].startswith("1,might phi,w1;w2,")
    trace_records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [record["time"] for record in trace_records] == [0, 1]


def test_simulate_to_stdout(capsys):
    assert main(["simulate", str(CANONICAL)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equilibrium"]["region"] == "AA"


def test_hedge_csv(tmp_path):
    out = tmp_path / "hedge.csv"
    code = main(
        ["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "50",
         "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 52  # header + steps 0..50
    assert lines[0] == "n,p_speaker_a,p_listener_a,eu_a,eu_b"
    row3 = lines[4].split(",")
    assert row3[0] == "3"
    assert row3[3] == "0.617142857143"


def test_hedge_json(tmp_path):
    out = tmp_path / "hedge.json"
    assert main(
        ["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "10",
         "--format", "json", "--out", str(out)]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["max_steps"] == 10
    assert len(payload["steps"]) == 11
    assert payload["summary"]["eu_never_below_step0"] is True


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--delta-steps", "9", "--gamma-steps", "9", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 82  # header + 81 grid cells
    assert lines[0].startswith("delta,gamma,")
    half = [line for line in lines[1:] if line.startswith("0.5,")]
    assert len(half) == 9 and all(line.endswith(",none") for line in half)


def test_sweep_json_and_tau(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(
        ["sweep", "--delta-steps", "4", "--gamma-steps", "4", "--tau", "0.3",
         "--format", "json", "--out", str(out)]
    ) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 16
    # lower tipping threshold: delta=0.6, gamma=0.2 clears 0.3 but not 0.5
    probe = [r for r in rows if r["delta"] == 0.6 and r["gamma"] == 0.2]
    assert probe and probe[0]["region"] == "AA"


def test_frame_check_csv(tmp_path, capsys):
    out = tmp_path / "frame.csv"
    assert main(["frame-check", str(CANONICAL), "--format", "csv", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == (
        "reflexive,symmetric,transitive,witness\ntrue,true,false,(w1,w2,w3)\n"
    )


def test_hedge_default_stdout(capsys):
    assert main(["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,p_speaker_a,p_listener_a,eu_a,eu_b"  # csv is the default here
    assert len(lines) == 6


def test_frame_check_prints_summary(capsys, tmp_path):
    out = tmp_path / "frame.json"
    assert main(["frame-check", str(CANONICAL), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == "reflexive symmetric non-transitive, witness (w1,w2,w3)"
    payload = json.loads(out.read_text())
    assert payload["transitive"] is False


class TextOnlyStdout:
    """A stdout that takes text and has no file: no ``fileno`` and no ``buffer``."""

    def __init__(self):
        self.texts = []

    def write(self, text):
        self.texts.append(text)
        return len(text)

    def writelines(self, texts):
        self.texts.extend(texts)

    def flush(self):
        pass

    def getvalue(self):
        return "".join(self.texts)


def test_hedge_to_a_text_only_stdout():
    """A stdout with no file takes the text: a ``StringIO``, whose ``fileno``
    raises, and an object with no ``fileno`` at all."""
    for out in (io.StringIO(), TextOnlyStdout()):
        with contextlib.redirect_stdout(out):
            assert main(["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "50"]) == 0
        assert out.getvalue() == (GOLDEN_DIR / "hedge_50.csv").read_text()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_frame_check_without_out_prints_only_its_summary(capsys, fmt):
    assert main(["frame-check", str(CANONICAL), "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.out == "reflexive symmetric non-transitive, witness (w1,w2,w3)\n"
    assert captured.err == ""


# --- exit codes -------------------------------------------------------------


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["hedge", "--delta", "1.5", "--gamma", "0.2", "--steps", "50"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["hedge", "--delta", "0.5", "--gamma", "0.2", "--steps", "3"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["hedge", "--delta", "0.5", "--gamma", "0.2", "--steps", "100001"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["hedge", "--delta", "0.5", "--gamma", "0.2", "--steps", "50", "--tolerance", "nan"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", str(CANONICAL), "--format", "xml"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--delta-steps", "1001", "--gamma-steps", "9"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--delta-steps", "9"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


# Command lines that argparse answers itself, with help or a usage error.
PARSER_EXITS = [
    ["-h"],
    [],
    ["no-such-command"],
    ["hedge", "-h"],
    ["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "5", "--bogus"],
    ["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "3"],
    ["sweep", "--delta-steps", "9"],
    ["sweep", "--delta-steps", "3", "--gamma-steps", "3", "extra"],
    ["simulate", "-h"],
    ["simulate"],
    ["frame-check", "a.scn", "b.scn"],
    # Lines the table's reader leaves to argparse, which refuses them.
    ["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "5", "--"],
    ["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "5", "--out", "-x"],
    ["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "5", ""],
    ["", "hedge"],
    ["hedge", "--delta", "nan", "--gamma", "0.2", "--steps", "5"],
    ["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "100001"],
    ["hedge", "--delta", "0.7", "--gamma", "0.2"],
    ["sweep", "--delta-steps", "3", "--gamma-steps", "3", "--tau", "1"],
    ["sweep", "--delta-steps", "3", "--gamma-steps", "3", "--format", "xml"],
    ["frame-check", "a.scn", "-h"],
    ["simulate", "a.scn", "--trace"],
]


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
def test_the_named_command_alone_is_built_and_reads_as_the_whole_parser(argv, capsys):
    """``main`` builds the parser of the command its first argument names and
    no other; its help, usage and errors are the whole parser's, byte for byte."""
    def answer(parse):
        with pytest.raises(SystemExit) as excinfo:
            parse(argv)
        return excinfo.value.code, *capsys.readouterr()

    assert answer(main) == answer(build_parser().parse_args)
    built = build_parser(argv[0] if argv else None)._subparsers._group_actions[0].choices
    whole = list(build_parser()._subparsers._group_actions[0].choices)
    assert list(built) == ([argv[0]] if argv and argv[0] in whole else whole)


# Command lines that argparse reads and the table's reader leaves to it.
ARGPARSE_READS = [
    ["hedge", "--del", "0.7", "--gam", "0.2", "--steps", "5"],
    ["hedge", "--delta=0.7", "--gamma=0.2", "--steps=5", "--format=json"],
    ["hedge", "--delta", "0.6", "--gamma", "0.2", "--steps", "5", "--delta", "0.7"],
    ["hedge", "--delta", "0.7", "--gamma", "-0.0", "--steps", "5"],
    ["sweep", "--delta-steps=3", "--gamma-steps", "3", "--tau=0.3"],
    ["simulate", "--", str(CANONICAL)],
    ["frame-check", str(CANONICAL), "--form", "csv", "--format", "json"],
]


@pytest.mark.parametrize("argv", ARGPARSE_READS, ids=" ".join)
def test_lines_only_argparse_reads_run_as_the_whole_parser_reads_them(argv, capsys):
    def whole(argv):
        args = build_parser().parse_args(argv)
        return args.handler(args)

    assert cli._read_plain(argv) is None
    assert (main(argv), *capsys.readouterr()) == (whole(argv), *capsys.readouterr())


# Each command's arguments, with texts that each passes.
PLAIN = {
    "simulate": {"scenario": ["a.scn", ""], "--out": ["out", ""], "--format": ["csv", "json"],
                 "--trace": ["trace"]},
    "sweep": {"--delta-steps": ["1", "9"], "--gamma-steps": ["1000", " 3"],
              "--tau": ["0.3", "5e-324"], "--out": ["out"], "--format": ["csv", "json"]},
    "hedge": {"--delta": ["0.7", "1e-320"], "--gamma": ["0.2", "0", "0.0"],
              "--steps": ["4", "100000", "+50"], "--tolerance": ["1e-06", "1"], "--out": ["out"],
              "--format": ["csv", "json"]},
    "frame-check": {"scenario": ["a.scn"], "--out": ["out"], "--format": ["json"]},
}
REQUIRED = {"scenario", "--delta-steps", "--gamma-steps", "--delta", "--gamma", "--steps"}
# Texts that some argument does not pass, or that argparse reads otherwise.
ODD = ["nan", "inf", "1.5", "-0.0", "-1", "0", "100001", "1001", "abc", "xml", "", "-x", "--",
       "-h", "--out", "hedge"]
odd_texts = st.sampled_from(ODD) | st.floats().map(repr) | st.text(max_size=4)


@st.composite
def command_lines(draw):
    """A command line, and whether it is plain: its command, then each of its
    arguments with a text that passes it, each flag once, in full and with
    its value next, and each required one given. A line with changes is not
    plain: a flag given twice, an argument left out, another text, a flag
    abbreviated or joined to its value with ``=``, a token put in, or a token
    in the command's place."""
    command = draw(st.sampled_from(sorted(PLAIN)))
    pieces = []
    for name, texts in PLAIN[command].items():
        if name in REQUIRED or draw(st.booleans()):
            text = draw(st.sampled_from(texts))
            pieces.append([name, text] if name[0] == "-" else [text])
    changes = draw(st.lists(st.sampled_from(
        ("twice", "left out", "text", "abbreviated", "joined", "token", "command")), max_size=2))
    tokens = []
    for change in changes:
        piece = draw(st.sampled_from(pieces)) if pieces else None
        if change == "twice" and piece:
            pieces.append([*piece[:-1], draw(odd_texts | st.just(piece[-1]))])
        elif change == "left out" and piece:
            pieces.remove(piece)
        elif change == "text" and piece:
            piece[-1] = draw(odd_texts)
        elif change in ("abbreviated", "joined") and piece and len(piece) == 2:
            if change == "joined":
                piece[:] = ["=".join(piece)]
            else:
                piece[0] = piece[0][:draw(st.integers(3, max(3, len(piece[0]) - 1)))]
        elif change in ("token", "command"):
            tokens.append((change, draw(st.sampled_from(ODD + ["extra", "--out"]))))
    argv = [command, *(token for piece in draw(st.permutations(pieces)) for token in piece)]
    for change, token in tokens:
        if change == "command":  # before the command, or in its place
            argv[:draw(st.integers(0, 1))] = [token]
        else:
            at = draw(st.integers(1, len(argv)))
            argv[at:at] = [token]
    return argv, not changes


@settings(deadline=None, max_examples=500)
@given(command_lines())
@example((["hedge", "--gamma", "-0.0", "--delta", "0.7", "--steps", "5"], False))
@example((["simulate", "--out", "", "", "--format", "csv"], True))
def test_the_reader_returns_what_argparse_returns_or_leaves_the_line_to_it(line):
    """The table's reader returns argparse's namespace, every dest and
    default with the command and its handler, or None. It reads every plain
    line, and none that argparse refuses."""
    argv, plain = line
    read = cli._read_plain(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            parsed = build_parser().parse_args(argv)
    except SystemExit:
        assert read is None
    else:
        assert read is None or vars(read) == vars(parsed)
    assert read is not None or not plain


def test_runtime_errors_exit_1(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "missing.scn")]) == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.scn"
    bad.write_text(
        "[series]\ncanonical = true\n[game]\ndelta = 0.5\ngamma = 1.0\n"
        "[run]\nspeaker = S\nworld = w2\n"
    )
    assert main(["simulate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "gamma" in err and err.count("\n") == 1


# Each path flag given an empty path, with the command's other arguments.
EMPTY_PATHS = {
    "simulate-out": ["simulate", str(CANONICAL), "--out", ""],
    "simulate-trace": ["simulate", str(CANONICAL), "--out", os.devnull, "--trace", ""],
    "sweep-out": ["sweep", "--delta-steps", "3", "--gamma-steps", "3", "--out", ""],
    "hedge-out": ["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "5", "--out", ""],
    "frame-check-out": ["frame-check", str(CANONICAL), "--out", ""],
}


@pytest.mark.parametrize("argv", EMPTY_PATHS.values(), ids=list(EMPTY_PATHS))
def test_an_empty_path_fails_like_any_bad_path(argv, capsys):
    """An empty ``--out`` or ``--trace`` names no file: the command exits 1
    with one line, and writes no report to stdout in its place (``frame-check``
    prints its summary line first, as it does before any bad path)."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "''" in captured.err
    assert captured.out.count("\n") == (argv[0] == "frame-check")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_simulate_rejects_a_delta_too_small_for_tau(tmp_path, capsys, fmt):
    """1 - tau/delta overflows for delta = 1e-320: ``simulate`` and ``hedge``
    exit 1 in both formats with ``GameConfig``'s one line, which ``simulate``
    prefixes with delta's line, not a JSON error or a CSV. The flag passes
    its own range, so ``hedge`` fails at the check across values, not with
    argparse's 2."""
    scenario = tmp_path / "tiny_delta.scn"
    scenario.write_text(CANONICAL.read_text().replace("delta = 0.7", "delta = 1e-320"))
    message = "delta must be large enough that tau/delta is finite (tau is 0.5), got 1e-320\n"
    for argv, prefix in (
        (["simulate", str(scenario)], "line 10: "),
        (["hedge", "--delta", "1e-320", "--gamma", "0.2", "--steps", "4"], ""),
    ):
        assert main([*argv, "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {prefix}{message}"


def test_subprocess_exit_codes():
    assert run_cli("hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "5").returncode == 0
    assert run_cli("hedge", "--delta", "2", "--gamma", "0.2", "--steps", "5").returncode == 2
    assert run_cli("simulate", "definitely-not-a-file.scn").returncode == 1


# --- parameter ranges -------------------------------------------------------

SCENARIO_LINES = [
    "[series]", "n = 5", "flip.S = 4", "flip.L = 2",
    "[game]", "delta = 0.7", "gamma = 0.2", "tau = 0.5", "epsilon = 0.01",
    "[run]", "speaker = S", "world = w2", "steps = 50", "tolerance = 1e-6",
]
HEDGE = ["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "50"]
CONFIG = GameConfig(delta=0.7, gamma=0.2)


@pytest.mark.parametrize(
    "key,text,api,argv,message",
    [
        ("n", "2", lambda: SoritesSeries(n=2, flips={"S": 2}), None,
         "n must be an integer in [3, 100000], got 2"),
        ("flip.S", "9", lambda: SoritesSeries(n=5, flips={"S": 9, "L": 2}), None,
         "flip.S must be in [2, 5], got 9"),
        ("delta", "1.5", lambda: GameConfig(delta=1.5, gamma=0.2),
         [*HEDGE, "--delta", "1.5"], "delta must be strictly between 0 and 1, got 1.5"),
        ("gamma", "1.0", lambda: GameConfig(delta=0.7, gamma=1.0),
         [*HEDGE, "--gamma", "1.0"], "gamma must be at least 0 and strictly below 1, got 1.0"),
        ("tau", "0", lambda: GameConfig(delta=0.7, gamma=0.2, tau=0.0),
         ["sweep", "--delta-steps", "3", "--gamma-steps", "3", "--tau", "0"],
         "tau must be strictly between 0 and 1, got 0.0"),
        ("epsilon", "0.5", lambda: GameConfig(delta=0.7, gamma=0.2, epsilon=0.5), None,
         "epsilon must be in [0, 0.5), got 0.5"),
        ("steps", "3", lambda: run_hedging(CONFIG, max_steps=3),
         [*HEDGE, "--steps", "3"], "steps must be an integer in [4, 100000], got 3"),
        ("steps", "100001", lambda: run_hedging(CONFIG, max_steps=100_001),
         [*HEDGE, "--steps", "100001"], "steps must be an integer in [4, 100000], got 100001"),
        ("tolerance", "nan", lambda: run_hedging(CONFIG, tolerance=float("nan")),
         [*HEDGE, "--tolerance", "nan"], "tolerance must be positive and finite, got nan"),
        ("grid size", None, lambda: grid(0),
         ["sweep", "--delta-steps", "0", "--gamma-steps", "3"],
         "grid size must be an integer in [1, 1000], got 0"),
        ("grid size", None, lambda: grid(1001),
         ["sweep", "--delta-steps", "3", "--gamma-steps", "1001"],
         "grid size must be an integer in [1, 1000], got 1001"),
        ("n", "100001", lambda: SoritesSeries(n=100_001, flips={"S": 2}), None,
         "n must be an integer in [3, 100000], got 100001"),
        ("grid size", None, lambda: grid(2.5), None,
         "grid size must be an integer in [1, 1000], got 2.5"),
        ("grid size", None, lambda: grid(3.0), None,
         "grid size must be an integer in [1, 1000], got 3.0"),
        ("steps", None, lambda: run_hedging(CONFIG, max_steps=10.0), None,
         "steps must be an integer in [4, 100000], got 10.0"),
        ("n", None, lambda: SoritesSeries(n=5.0, flips={"S": 2}), None,
         "n must be an integer in [3, 100000], got 5.0"),
        ("flip.S", None, lambda: SoritesSeries(n=5, flips={"S": 4.0}), None,
         "flip.S must be an integer, got 4.0"),
        # A bool is an int subclass, but not a count.
        ("grid size", None, lambda: grid(True), None,
         "grid size must be an integer in [1, 1000], got True"),
        ("steps", None, lambda: run_hedging(CONFIG, max_steps=True), None,
         "steps must be an integer in [4, 100000], got True"),
        # Nor is a bool a number in any float range.
        ("gamma", None, lambda: GameConfig(delta=0.7, gamma=False), None,
         "gamma must be at least 0 and strictly below 1, got False"),
        ("epsilon", None, lambda: GameConfig(delta=0.7, gamma=0.2, epsilon=False), None,
         "epsilon must be in [0, 0.5), got False"),
        ("tolerance", None, lambda: run_hedging(CONFIG, tolerance=True), None,
         "tolerance must be positive and finite, got True"),
        ("gamma", None, lambda: threshold_sweep([0.5], [False]), None,
         "gamma must be at least 0 and strictly below 1, got False"),
        # Text that is not a number of the flag's kind: the flags and the
        # scenario file convert it in one step and give one message.
        ("steps", "10.0", lambda: parse_number("steps", "10.0", int),
         [*HEDGE, "--steps", "10.0"], "steps must be an integer, got '10.0'"),
        ("steps", "abc", lambda: parse_number("steps", "abc", int),
         [*HEDGE, "--steps", "abc"], "steps must be an integer, got 'abc'"),
        ("grid size", None, lambda: parse_number("grid size", "10.0", int),
         ["sweep", "--delta-steps", "10.0", "--gamma-steps", "3"],
         "grid size must be an integer, got '10.0'"),
        ("grid size", None, lambda: parse_number("grid size", "abc", int),
         ["sweep", "--delta-steps", "3", "--gamma-steps", "abc"],
         "grid size must be an integer, got 'abc'"),
        ("delta", "10.0", lambda: GameConfig(delta=10.0, gamma=0.2),
         [*HEDGE, "--delta", "10.0"], "delta must be strictly between 0 and 1, got 10.0"),
        ("delta", "abc", lambda: parse_number("delta", "abc"),
         [*HEDGE, "--delta", "abc"], "delta must be a number, got 'abc'"),
    ],
)
def test_range_message_is_shared(capsys, key, text, api, argv, message):
    with pytest.raises(ValueError) as excinfo:
        api()
    assert str(excinfo.value) == message
    if text is not None:
        lines = [f"{key} = {text}" if line.startswith(f"{key} =") else line
                 for line in SCENARIO_LINES]
        with pytest.raises(ScenarioParseError) as excinfo:
            parse_scenario("\n".join(lines) + "\n")
        lineno = lines.index(f"{key} = {text}") + 1
        assert (excinfo.value.line, str(excinfo.value)) == (lineno, f"line {lineno}: {message}")
    if argv is not None:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(f": {message}\n")


# --- golden files -----------------------------------------------------------


def test_simulate_golden_byte_stable(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    for target in (first, second):
        result = run_cli("simulate", str(CANONICAL), "--out", str(target))
        assert result.returncode == 0, result.stderr
    assert first.read_bytes() == second.read_bytes()
    golden = (GOLDEN_DIR / "canonical_simulate.json").read_bytes()
    assert first.read_bytes() == golden


def test_commands_read_a_scenario_saved_with_a_byte_order_mark(tmp_path, capsys):
    scenario = tmp_path / "canonical.scn"
    scenario.write_bytes(b"\xef\xbb\xbf" + CANONICAL.read_bytes())
    for command, golden in (("simulate", "canonical_simulate.json"), ("frame-check", "canonical_frame.json")):
        out = tmp_path / golden
        assert main([command, str(scenario), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()
    assert capsys.readouterr().err == ""


def test_simulate_golden_csv_and_trace(tmp_path):
    out = tmp_path / "report.csv"
    trace = tmp_path / "dialogue.jsonl"
    result = run_cli(
        "simulate", str(CANONICAL), "--format", "csv",
        "--out", str(out), "--trace", str(trace),
    )
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (GOLDEN_DIR / "canonical_simulate.csv").read_bytes()
    assert trace.read_bytes() == (GOLDEN_DIR / "canonical_dialogue.jsonl").read_bytes()


# Recorded from the per-format renderers before sweep rows, hedging steps and
# frame reports shared one generic CSV and JSON writer.
@pytest.mark.parametrize(
    "argv,golden",
    [
        (["sweep", "--delta-steps", "9", "--gamma-steps", "9"], "sweep_9x9.csv"),
        (["sweep", "--delta-steps", "9", "--gamma-steps", "9", "--format", "json"], "sweep_9x9.json"),
        (["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "50"], "hedge_50.csv"),
        (["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "50", "--format", "json"],
         "hedge_50.json"),
        (["frame-check", str(CANONICAL), "--format", "csv"], "canonical_frame.csv"),
        (["frame-check", str(CANONICAL), "--format", "json"], "canonical_frame.json"),
    ],
)
def test_render_golden(tmp_path, capsys, argv, golden):
    out = tmp_path / golden
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


@pytest.mark.parametrize(
    "fmt,digest",
    [
        ("csv", "b07e75cf248581c3d873381e820a4712f33f6d78d3119eef657e3efc6b092eb0"),
        ("json", "2021b14865ebb88fed417640cdb79d116dd3b811009dbb88375469681b7b0998"),
    ],
)
def test_sweep_99_digest(tmp_path, fmt, digest):
    out = tmp_path / f"sweep.{fmt}"
    argv = ["sweep", "--delta-steps", "99", "--gamma-steps", "99", "--format", fmt]
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Recorded from the per-row GameConfig sweep and the json.dumps renderer
# before sweep rows came from the closed-form helpers and the direct writer.
@pytest.mark.parametrize(
    "steps,tau,fmt,digest",
    [
        (400, "0.7", "csv", "521b040782a9dd919e044ad83f11fcc2cc0525364f6002caad85ea0e79a7f9a0"),
        (200, "0.3", "json", "e7dc9aa25f436971823a1e884d3614ab3d68687ad602225e1572927bd8b5ad18"),
    ],
)
def test_sweep_400_200_digest(tmp_path, steps, tau, fmt, digest):
    out = tmp_path / f"sweep.{fmt}"
    argv = ["sweep", "--delta-steps", str(steps), "--gamma-steps", str(steps), "--tau", tau]
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_streams_without_rows(monkeypatch, fmt):
    """The command's path hands each delta's columns straight to the writer:
    with no ``SweepRow`` to build, it still writes the golden text."""
    monkeypatch.delattr(game, "SweepRow")
    text = "".join(game._sweep_text(9, 9, 0.5, fmt == "json"))
    assert text == (GOLDEN_DIR / f"sweep_9x9.{fmt}").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_sweep_renders_without_rows(monkeypatch, fmt):
    """A sweep holds its delta columns, and ``render_sweep_*`` hand them to
    the writer: with no ``SweepRow`` to build, both still write the golden
    text."""
    monkeypatch.delattr(game, "SweepRow")
    render = game.render_sweep_json if fmt == "json" else game.render_sweep_csv
    text = render(threshold_sweep(grid(9), grid(9)))
    assert text == (GOLDEN_DIR / f"sweep_9x9.{fmt}").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_square_sweep_equals_the_rendered_rows(tmp_path, fmt):
    """A 7 x 13 sweep: the command streams each delta's columns to the writer,
    and ``render_sweep_*`` hand it ``threshold_sweep``'s columns, or the list
    of its rows cut where the delta changes and turned back into columns.
    All write the same text."""
    out = tmp_path / f"sweep.{fmt}"
    argv = ["sweep", "--delta-steps", "7", "--gamma-steps", "13", "--format", fmt]
    assert main([*argv, "--out", str(out)]) == 0
    render = game.render_sweep_json if fmt == "json" else game.render_sweep_csv
    rows = threshold_sweep(grid(7), grid(13))
    assert len(rows) == 7 * 13
    assert out.read_text(encoding="utf-8") == render(rows) == render(list(rows))


def traced_peak(call) -> int:
    """The ``tracemalloc`` peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cli_to_null(*argv) -> None:
    assert main([*argv, "--out", os.devnull]) == 0


def sweep_peak(steps: int, fmt: str) -> int:
    """The ``tracemalloc`` peak, in bytes, of a steps x steps ``sweep``
    written to the null device."""
    argv = ["sweep", "--delta-steps", str(steps), "--gamma-steps", str(steps), "--format", fmt]
    return traced_peak(lambda: cli_to_null(*argv))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_holds_one_delta_row_at_a_time(fmt):
    """A 400 x 400 sweep peaks within 512 KB of a 100 x 100 one: the command
    holds one delta's rows and text, not the grid's (about 85 MB and 100 MB
    more at 400 x 400 when it held them all)."""
    sweep_peak(1, fmt)  # loads the writers, and json's encoder, before the measures
    small, large = sweep_peak(100, fmt), sweep_peak(400, fmt)
    assert large - small < 512 * 1024, (small, large)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_hedge_holds_its_trace_and_one_step_of_text(fmt):
    """``hedge --steps 100000`` peaks within 1 MB of ``run_hedging``'s trace
    alone (about 13 MB): the command writes its text a piece at a time.
    Holding the whole text read about 30 MB (CSV) and 48 MB (JSON)."""
    argv = ["hedge", "--delta", "0.7", "--gamma", "0.2", "--format", fmt, "--steps"]
    cli_to_null(*argv, "4")  # loads the writers, and json's encoder, before the measures
    trace = traced_peak(lambda: run_hedging(GameConfig(0.7, 0.2), max_steps=100_000))
    command = traced_peak(lambda: cli_to_null(*argv, "100000"))
    assert command - trace < 1024 * 1024, (trace, command)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_hedge_memory_does_not_grow_past_the_fixed_point(fmt):
    """``hedge --steps 100000`` peaks within 2 MB of ``hedge --steps 50``: it
    builds no step past the fixed point, and writes the repeated tail a block
    of rows at a time (about 0.3 MB more in CSV and 0.7 MB in JSON). Building
    every step read about 13 MB more."""
    argv = ["hedge", "--delta", "0.7", "--gamma", "0.2", "--format", fmt, "--steps"]
    cli_to_null(*argv, "4")  # loads the writers, and json's encoder, before the measures
    short = traced_peak(lambda: cli_to_null(*argv, "50"))
    long = traced_peak(lambda: cli_to_null(*argv, "100000"))
    assert long - short < 2 * 1024 * 1024, (short, long)


BROKEN_PIPE = ["error: [Errno 32] Broken pipe"]


def read_then_close(argv, unbuffered: bool) -> bytes:
    """The first 100 bytes a CLI child writes, read before the pipe is
    closed on it: the child exits 1 with one line on stderr, no traceback
    and no error from the exit's flush of stdout."""
    with subprocess.Popen(
        [sys.executable, "-m", "hedgesim", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(unbuffered),
    ) as child:
        start = child.stdout.read(100)
        child.stdout.close()
        stderr = child.stderr.read().decode()
        assert child.wait(timeout=60) == 1
    assert stderr.splitlines() == BROKEN_PIPE
    return start


UNBUFFERED = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


@UNBUFFERED
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_to_a_reader_that_closes_early(fmt, unbuffered):
    """The reader takes the first 100 bytes of a 400 x 400 sweep and closes
    the pipe."""
    argv = ["sweep", "--delta-steps", "400", "--gamma-steps", "400", "--format", fmt]
    start = read_then_close(argv, unbuffered)
    assert start.startswith(b"delta,gamma," if fmt == "csv" else b'[\n  {\n    "delta": ')


@UNBUFFERED
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_hedge_to_a_reader_that_closes_early(fmt, unbuffered):
    """``hedge`` writes its text one step at a time through a buffered
    stream of stdout's file, buffered or not: a write to a closing reader
    that takes only part of a buffer must still write the rest, and fail."""
    argv = ["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "100000", "--format", fmt]
    start = read_then_close(argv, unbuffered)
    assert start.startswith(b"n,p_speaker_a," if fmt == "csv" else b'{\n  "delta": 0.7,')


@UNBUFFERED
def test_simulate_to_a_reader_that_closes_early(tmp_path, unbuffered):
    """The JSON report of an n = 100000 march, 1.49 MB in one piece."""
    scenario = tmp_path / "march.scn"
    scenario.write_text(
        "[series]\nn = 100000\nflip.S = 80000\nflip.L = 40000\n\n"
        "[game]\ndelta = 0.7\ngamma = 0.2\n\n[run]\nspeaker = S\nworld = w2\n"
    )
    start = read_then_close(["simulate", str(scenario)], unbuffered)
    assert start.startswith(b'{\n  "scenario": {\n')


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--delta-steps", "3", "--gamma-steps", "3"],
        ["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "5"],
        ["simulate", str(CANONICAL)],
        ["frame-check", str(CANONICAL)],
    ],
    ids=lambda argv: argv[0],
)
def test_command_to_a_pipe_whose_reader_is_gone(argv):
    """A short text waits in the stdout buffer, so the pipe's closed end shows
    only when the buffer is flushed: that flush is the command's own, with
    one line on stderr and exit 1, not the exit's, which would add an
    ``Exception ignored`` report and exit 120."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "hedgesim", *argv],
            stdout=write, stderr=subprocess.PIPE, env=child_env(), timeout=60,
        )
    finally:
        os.close(write)
    assert done.returncode == 1
    assert done.stderr.decode().splitlines() == BROKEN_PIPE


# Recorded from the quadratic hedging recurrence before the steps came from
# one forward pass; with the hedge_50 golden these pin N in {5, 50, 2000}.
@pytest.mark.parametrize(
    "steps,fmt,digest",
    [
        (5, "csv", "12171cd9fd24ade7794af1a0c14e8c52b8c76197e29c708e2815a2619d4580ba"),
        (5, "json", "69424ba98472bd30cb65e13e8e811b518c3ecf489e94d7851f240dc79f9dda77"),
        (2000, "csv", "0e090ff6849eaa5f7b8c19070e8ba3dac5bdf3171b5e02df70142f516717650d"),
        (2000, "json", "dcee2e1e68b19f0c506c17f8ce232993e649dd246347a39d077e656425f8f4f3"),
    ],
)
def test_hedge_digest(tmp_path, steps, fmt, digest):
    out = tmp_path / f"hedge.{fmt}"
    argv = [*HEDGE[:-1], str(steps), "--format", fmt]
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt,digest",
    [
        ("csv", "d339bd1a83d78059e9d1ae741d619bf3d90a03f7e11e27f66bcdb5f47954f9e4"),
        ("json", "6ebf5ceb0499c5d361a65a2ce3fa50d71bc8a652fda2657f0020a2d4bf141e8a"),
    ],
)
def test_simulate_steps60_digest(tmp_path, fmt, digest):
    out = tmp_path / f"report.{fmt}"
    argv = ["simulate", str(DATA_DIR / "steps60.scn"), "--format", fmt]
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
