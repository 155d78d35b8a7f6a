import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from hedgesim import assertion, scenario_io, semantics, worlds
from hedgesim.assertion import SignalLikelihoods
from hedgesim.game import GameConfig, SweepRow, grid, threshold_sweep
from hedgesim.hedging import run_hedging
from hedgesim.scenario_io import (
    ReportAuditError,
    Scenario,
    ScenarioParseError,
    audit_report,
    load_scenario,
    parse_scenario,
    render_dialogue_jsonl,
    render_frame_csv,
    render_frame_json,
    render_hedging_csv,
    render_report_csv,
    render_report_json,
    render_sweep_csv,
    render_sweep_json,
    run_scenario,
)
from hedgesim.semantics import Formula, check_frame
from hedgesim.worlds import SoritesSeries, WorldModel, pool_states
from hedgesim.writers import fmt_float

CANONICAL_TEXT = """\
[series]
n = 5
flip.S = 4
flip.L = 2

[game]
delta = 0.7
gamma = 0.2

[run]
speaker = S
world = w2
"""


def canonical_scenario():
    return parse_scenario(CANONICAL_TEXT)


# --- parsing ----------------------------------------------------------------


def test_parse_canonical_text():
    scenario = canonical_scenario()
    assert scenario.series == SoritesSeries(n=5, flips={"S": 4, "L": 2})
    assert scenario.canonical is False
    assert scenario.config == GameConfig(delta=0.7, gamma=0.2)
    assert (scenario.config.tau, scenario.config.epsilon) == (0.5, 0.01)
    assert (scenario.speaker, scenario.world) == ("S", "w2")
    assert (scenario.steps, scenario.tolerance) == (50, 1e-6)


def test_parse_canonical_flag():
    rest = "[game]\ndelta = 0.7\ngamma = 0.2\n[run]\nspeaker = S\nworld = w2\n"
    for value in ("true", "YES", "1"):
        scenario = parse_scenario(f"[series]\ncanonical = {value}\n" + rest)
        assert scenario.canonical is True
        assert scenario.series == SoritesSeries(n=5, flips={"S": 4, "L": 2})
    # A false flag falls through to the explicit march, which needs its keys.
    for value in ("no", "0"):
        scenario = parse_scenario(f"[series]\ncanonical = {value}\nn = 4\nflip.S = 3\n" + rest)
        assert scenario.canonical is False
        assert scenario.series == SoritesSeries(n=4, flips={"S": 3})
        with pytest.raises(ScenarioParseError, match="^missing required key 'n' in \\[series\\]$"):
            parse_scenario(f"[series]\ncanonical = {value}\n" + rest)


def test_parse_comments_and_blank_lines(canonical_scenario_path):
    scenario = load_scenario(canonical_scenario_path)
    assert scenario.series.flips == {"S": 4, "L": 2}


def test_load_reads_a_file_saved_with_a_byte_order_mark(tmp_path, canonical_scenario_path):
    bom = tmp_path / "canonical.scn"
    bom.write_bytes(b"\xef\xbb\xbf" + canonical_scenario_path.read_bytes())
    assert load_scenario(bom) == load_scenario(canonical_scenario_path)


def test_parse_overrides():
    scenario = parse_scenario(
        "[series]\nn = 7\nflip.alice = 5\nflip.bob = 3\n"
        "[game]\ndelta = 0.6\ngamma = 0.1\ntau = 0.4\nepsilon = 0\n"
        "[run]\nspeaker = bob\nworld = w1\nsteps = 12\ntolerance = 1e-3\n"
    )
    assert scenario.series.flips == {"alice": 5, "bob": 3}
    assert scenario.config.tau == 0.4
    assert scenario.config.epsilon == 0.0
    assert scenario.steps == 12
    assert scenario.tolerance == 1e-3


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("[series]\ncanonical = true\n[game]\ngamma = 0.2\n[run]\nspeaker = S\nworld = w2\n",
         "missing required key 'delta'", None),
        ("[series]\ncanonical = true\n[game]\ndelta = 0.5\n[run]\nspeaker = S\nworld = w2\n",
         "missing required key 'gamma'", None),
        ("[series]\ncanonical = true\n[game]\ndelta = 0.5\ngamma = 1.0\n[run]\nspeaker = S\nworld = w2\n",
         "gamma must be at least 0 and strictly below 1", 5),
        ("[series]\ncanonical = true\n[game]\ndelta = 1.5\ngamma = 0\n[run]\nspeaker = S\nworld = w2\n",
         "delta must be strictly between 0 and 1", 4),
        ("[serie]\nn = 5\n", "unknown section [serie]", 1),
        ("[series]\nwobble = 5\n", "unknown key 'wobble'", 2),
        ("[series]\nn = 5\nn = 6\n", "duplicate key 'n'", 3),
        ("n = 5\n", "key before any [section] header", 1),
        ("[series]\njust some words\n", "expected `key = value`", 2),
        ("[series]\nn =\n", "missing value", 2),
        ("[series]\nn = five\n", "n must be an integer", 2),
        ("[series]\nn = 100001\nflip.S = 2\n", "n must be an integer in [3, 100000], got 100001", 2),
        ("[series]\nn = 5\nflip.S = 9\nflip.L = 2\n[game]\ndelta = .5\ngamma = .1\n[run]\nspeaker = S\nworld = w2\n",
         "flip.S must be in [2, 5]", 3),
        ("[series]\nn = 5\n[game]\ndelta = .5\ngamma = .1\n[run]\nspeaker = S\nworld = w2\n",
         "at least one flip.<agent>", None),
        ("[series]\ncanonical = true\nn = 5\n[game]\ndelta = .5\ngamma = .1\n[run]\nspeaker = S\nworld = w2\n",
         "canonical series takes no other", 3),
        ("[series]\ncanonical = true\n[game]\ndelta = .5\ngamma = .1\n[run]\nworld = w2\n",
         "missing required key 'speaker'", None),
        ("[series]\ncanonical = true\n[game]\ndelta = .5\ngamma = .1\n[run]\nspeaker = X\nworld = w2\n",
         "speaker 'X' is not an agent", 7),
        ("[series]\ncanonical = true\n[game]\ndelta = .5\ngamma = .1\n[run]\nspeaker = S\nworld = w9\n",
         "world 'w9' not in the pooled model", 8),
        ("[series]\ncanonical = true\n[game]\ndelta = .5\ngamma = .1\n[run]\nspeaker = S\nworld = w2\nsteps = 2\n",
         "steps must be an integer in [4, 100000], got 2", 9),
        ("[series]\ncanonical = true\n[game]\ndelta = .5\ngamma = .1\n[run]\nspeaker = S\nworld = w2\nsteps = 100001\n",
         "steps must be an integer in [4, 100000], got 100001", 9),
        ("[series]\ncanonical = true\n[game]\ndelta = .5\ngamma = .1\n[run]\nspeaker = S\nworld = w2\ntolerance = nan\n",
         "tolerance must be positive and finite, got nan", 9),
        ("[series]\ncanonical = true\n[game]\ndelta = .5\ngamma = .1\n[run]\nspeaker = S\nworld = w2\ntolerance = inf\n",
         "tolerance must be positive and finite, got inf", 9),
        ("[series\nn = 5\n", "unterminated section header", 1),
        ("[series]\ncanonical = maybe\n", "canonical must be true or false, got 'maybe'", 2),
        ("[series]\n= 5\n", "empty key", 2),
    ],
)
def test_parse_errors(text, fragment, line):
    with pytest.raises(ScenarioParseError) as excinfo:
        parse_scenario(text)
    assert fragment in str(excinfo.value)
    assert excinfo.value.line == line
    if line is not None:
        assert f"line {line}:" in str(excinfo.value)


GAME_AND_RUN = "[game]\ndelta = .5\ngamma = .1\n[run]\nspeaker = S\nworld = w2\n"


@pytest.mark.parametrize(
    "text,message",
    [
        # A bad value comes before a later malformed or duplicate line ...
        ("[series]\nn = five\n[bogus]\n", "line 2: n must be an integer, got 'five'"),
        ("[series]\nflip.S = 4.0\nflip.S = 3\n", "line 2: flip.S must be an integer, got '4.0'"),
        # ... and before every check that spans keys.
        ("[series]\ncanonical = true\nn = 1\n" + GAME_AND_RUN,
         "line 3: n must be an integer in [3, 100000], got 1"),
        ("[series]\ncanonical = true\n[game]\ngamma = 2\n[run]\nspeaker = S\nworld = w2\n",
         "line 4: gamma must be at least 0 and strictly below 1, got 2.0"),
        ("[series]\nn = 5\nflip.S = 9\nflip.L = 2\n[game]\ndelta = 2\ngamma = .1\n",
         "line 6: delta must be strictly between 0 and 1, got 2.0"),
        ("[series]\ncanonical = true\n[game]\ndelta = .5\ngamma = .1\n[run]\nsteps = 1\n",
         "line 7: steps must be an integer in [4, 100000], got 1"),
    ],
    ids=["unknown-section", "duplicate", "canonical-extras", "missing-delta", "flip-range",
         "missing-speaker"],
)
def test_of_several_faults_the_first_faulty_line_is_reported(text, message):
    # Each value is read when its line is, so a file's first unknown,
    # duplicate, malformed or bad line is the fault reported; the checks
    # that span keys (canonical extras, flips against n, required keys,
    # speaker and world) run only on a file whose every line reads.
    with pytest.raises(ScenarioParseError) as excinfo:
        parse_scenario(text)
    assert str(excinfo.value) == message


# Separators that ``str.splitlines`` breaks at but ``open`` does not.
OTHER_SEPARATORS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("separator", OTHER_SEPARATORS, ids=ascii)
def test_a_comment_runs_to_the_end_of_the_file_line(separator):
    text = CANONICAL_TEXT.replace("gamma = 0.2\n", f"gamma = 0.2  # note{separator}tau = 0.6\n")
    assert parse_scenario(text).config.tau == 0.5


@pytest.mark.parametrize("separator", OTHER_SEPARATORS, ids=ascii)
def test_a_separator_mid_file_keeps_the_line_numbers(separator):
    text = CANONICAL_TEXT.replace("[game]\n", f"[game]{separator}\n") + "steps = 2\n"
    with pytest.raises(ScenarioParseError) as excinfo:
        parse_scenario(text)
    assert str(excinfo.value) == "line 13: steps must be an integer in [4, 100000], got 2"


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=ascii)
def test_crlf_and_cr_texts_parse(newline):
    assert parse_scenario(CANONICAL_TEXT.replace("\n", newline)) == canonical_scenario()


def test_one_table_reads_every_key():
    readers = scenario_io._READERS
    assert list(readers) == ["series", "game", "run"]
    assert list(readers["series"]) == ["n", "canonical", "flip.<agent>"]
    for section in ("game", "run"):
        assert tuple(readers[section]) == scenario_io._SCENARIO_KEYS[section]
    assert not {"_number", "_bool_value", "_tokenize", "_FIXED_KEYS"} & set(dir(scenario_io))


# --- running ----------------------------------------------------------------


def test_run_canonical():
    report = run_scenario(canonical_scenario())
    assert report.signal is Formula.MIGHT_PHI
    assert [list(step.live) for step in report.dialogue] == [["w1", "w2", "w3"], ["w1", "w2"]]
    assert report.posterior == {"w1": pytest.approx(0.01), "w2": pytest.approx(0.99)}
    assert report.region.region == "AA"
    assert 0.55 <= report.hedging.summary.even_tail <= 0.65
    assert report.public_belief is False
    assert report.public_belief_worlds == frozenset()


def test_run_definite_far_world():
    scenario = parse_scenario(
        "[series]\ncanonical = true\n[game]\ndelta = 0.7\ngamma = 0.2\n"
        "[run]\nspeaker = S\nworld = w3\n"
    )
    report = run_scenario(scenario)
    assert report.signal is Formula.NOT_PHI
    assert report.dialogue[-1].live == ("w3",)
    assert report.posterior == {"w3": 1.0}
    assert report.public_belief is True
    assert report.public_belief_worlds == frozenset({"w3"})


def test_run_listener_speaks_bare_atom():
    scenario = parse_scenario(
        "[series]\ncanonical = true\n[game]\ndelta = 0.7\ngamma = 0.2\n"
        "[run]\nspeaker = L\nworld = w1\n"
    )
    report = run_scenario(scenario)
    assert report.signal is Formula.PHI
    assert report.dialogue[-1].live == ("w1",)
    assert report.public_belief is True


def test_run_mirror_hedge_from_other_side():
    # the agent who flipped early hedges negatively at the contested world
    scenario = parse_scenario(
        "[series]\ncanonical = true\n[game]\ndelta = 0.7\ngamma = 0.2\n"
        "[run]\nspeaker = L\nworld = w2\n"
    )
    report = run_scenario(scenario)
    assert report.signal is Formula.MIGHT_NOT_PHI
    assert report.dialogue[-1].live == ("w2", "w3")
    assert report.posterior["w2"] == pytest.approx(0.99, abs=1e-12)
    assert report.public_belief is False


def test_run_rejects_non_two_player_series():
    scenario = Scenario(
        series=SoritesSeries(6, {"a": 2, "b": 4, "c": 5}),
        canonical=False,
        config=GameConfig(delta=0.5, gamma=0.1),
        speaker="a",
        world="w2",
    )
    with pytest.raises(ValueError):
        run_scenario(scenario)


def test_a_run_pools_its_series_once(monkeypatch):
    """The parser checks ``world`` against the pools alone; only the run
    builds the pooled model."""
    calls = []

    def counted(series):
        calls.append(series)
        return pool_states(series)

    monkeypatch.setattr(scenario_io, "pool_states", counted)
    run_scenario(parse_scenario(CANONICAL_TEXT))
    assert len(calls) == 1


def counting(counts, label, function):
    """``function``, counting its calls in ``counts[label]``."""

    def counted(*args, **kwargs):
        counts[label] += 1
        return function(*args, **kwargs)

    return counted


# extension, accessible and WorldModel.cell calls per run: the deterministic
# operation counts that gate the semantic and assertion layers. A run reads
# sentences and beliefs as sets, so it reaches no world and reads one cell,
# the speaker's. Each stage asks ``extension`` for the sentences it needs:
# the speaker for the signal and every stronger sentence, update and the
# audit for the signal, and the listener's likelihoods for phi, not phi and
# the signal. An atom's extension is the model's own valuation set, and a
# might-sentence's is the union of the cells that meet its atom.
RUN_OP_COUNTS = {
    "canonical": (8, 0, 1),
    "speaker_l": (9, 0, 1),
    "equal_flips": (6, 0, 1),
    "two_world": (8, 0, 1),
}


@pytest.mark.parametrize("name", sorted(RUN_OP_COUNTS))
def test_a_run_makes_the_pinned_semantic_calls(name, monkeypatch):
    scenario = load_scenario(Path(__file__).parent / "data" / f"{name}.scn")
    counts = Counter()
    read = []

    def extension(model, formula):
        read.append((formula, semantics.extension(model, formula)))
        return read[-1][1]

    monkeypatch.setattr(worlds, "accessible", counting(counts, "accessible", worlds.accessible))
    monkeypatch.setattr(WorldModel, "cell", counting(counts, "cell", WorldModel.cell))
    for module in (assertion, scenario_io):
        monkeypatch.setattr(module, "extension", counting(counts, "extension", extension))
    model = run_scenario(scenario).model
    assert tuple(counts[label] for label in ("extension", "accessible", "cell")) == (
        RUN_OP_COUNTS[name]
    )
    # Every atom read is one of the model's own valuation sets, none built anew.
    own = model.valuation.values()
    atoms = [worlds for formula, worlds in read if not formula.is_modal]
    assert atoms and all(any(worlds is mine for mine in own) for worlds in atoms)


@pytest.mark.parametrize("name", sorted(RUN_OP_COUNTS))
def test_a_run_calls_each_public_stage_once(name, monkeypatch):
    """The runner calls the stages under the names ``scenario_io`` holds,
    the names a tracer swaps, so each stage's time shows in a trace."""
    counts = Counter()
    for stage in ("speaker_signal", "update", "listener_posterior", "audit_report"):
        monkeypatch.setattr(scenario_io, stage, counting(counts, stage, getattr(scenario_io, stage)))
    likelihoods = counting(counts, "for_common_ground", SignalLikelihoods.for_common_ground)
    monkeypatch.setattr(SignalLikelihoods, "for_common_ground", staticmethod(likelihoods))
    run_scenario(load_scenario(Path(__file__).parent / "data" / f"{name}.scn"))
    assert counts == dict.fromkeys(
        ("speaker_signal", "update", "for_common_ground", "listener_posterior", "audit_report"), 1
    )


# Python calls that one scenario op makes in ``src/hedgesim``: parse, run,
# the three report renders and the frame check. A generator's resumption is
# a call; list, dict and set comprehensions are left out, because Python
# inlines them from 3.12 on. The op made 349 calls on 3.11 when each key
# line resumed a generator three times, each report quoted a world once per
# block and the frame and pool read the model world by world. It made 201
# while each common-belief pass re-checked its arguments and walked the cells
# through generators, and a common ground looked up each live world's index,
# and 165 while the hedging summary built step 0 and ``pool_states`` built
# its model through ``WorldModel(...)``. It makes 163 on 3.10, 3.11 and 3.12
# and 162 on 3.13; 3.14 was not run.
OP_CALL_BOUND = 163
# Dict comprehensions ``worlds`` runs per op on 3.10 and 3.11, where each is
# a call: 12 while ``WorldModel(...)`` copied again the containers
# ``pool_states`` had just built, 8 since the pooled model is checked on them.
WORLDS_DICTCOMP_BOUND = 8
_INLINED = frozenset(("<listcomp>", "<dictcomp>", "<setcomp>"))


def op_calls(text: str) -> Counter:
    """The op's calls in the package by (file name, function name)."""
    package = str(Path(scenario_io.__file__).parent)
    calls = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package):
            calls[Path(code.co_filename).name, code.co_name] += 1

    sys.setprofile(profile)
    try:
        report = run_scenario(parse_scenario(text))
        render_report_json(report), render_report_csv(report), render_dialogue_jsonl(report)
        check_frame(report.model)
    finally:
        sys.setprofile(None)
    return calls


def test_a_scenario_op_makes_at_most_the_bounded_python_calls():
    text = (Path(__file__).parent / "data" / "canonical.scn").read_text(encoding="utf-8")
    op_calls(text)  # the first op imports the JSON quoter
    calls = op_calls(text)
    assert calls == op_calls(text)
    assert sum(n for (_, name), n in calls.items() if name not in _INLINED) <= OP_CALL_BOUND
    assert calls["worlds.py", "<dictcomp>"] <= WORLDS_DICTCOMP_BOUND


def test_audit_rejects_tampered_report():
    report = run_scenario(canonical_scenario())
    tampered = report._replace(posterior={"w3": 1.0})
    with pytest.raises(ReportAuditError):
        audit_report(tampered)


# --- rendering --------------------------------------------------------------


def test_report_json_contents():
    report = run_scenario(canonical_scenario())
    payload = json.loads(render_report_json(report))
    assert payload["signal"] == "might phi"
    assert payload["model"]["partitions"]["S"] == [["w1", "w2"], ["w3"]]
    assert payload["model"]["valuation"]["phi"] == ["w1"]
    assert payload["dialogue"][0]["signal"] is None
    assert payload["dialogue"][1]["live"] == ["w1", "w2"]
    assert payload["posterior"] == {"w1": 0.01, "w2": 0.99}
    assert payload["equilibrium"]["region"] == "AA"
    assert payload["equilibrium"]["eu_a"] == 0.56
    assert payload["equilibrium"]["listener_q_given_speaker_q"] == pytest.approx(0.56 / 0.76, abs=1e-11)
    assert payload["hedging"]["eu_never_below_step0"] is True
    # the hedge's positive atom never becomes public at the contested world
    assert payload["public_belief"] == {"proposition": ["w1"], "worlds": [], "holds": False}


def test_report_csv_shape():
    report = run_scenario(canonical_scenario())
    text = render_report_csv(report)
    lines = text.splitlines()
    assert lines[0] == "time,signal,live,posterior"
    assert lines[1] == "0,,w1;w2;w3,0.333333333333;0.333333333333;0.333333333333"
    assert lines[2] == "1,might phi,w1;w2,0.01;0.99"


def test_dialogue_jsonl():
    report = run_scenario(canonical_scenario())
    lines = render_dialogue_jsonl(report).splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    assert records[0]["time"] == 0
    assert records[0]["signal"] is None
    assert records[1]["signal"] == "might phi"
    assert records[1]["posterior"]["w2"] == 0.99


def test_determinism_byte_identical():
    first = run_scenario(canonical_scenario())
    second = run_scenario(canonical_scenario())
    assert render_report_json(first) == render_report_json(second)
    assert render_report_csv(first) == render_report_csv(second)
    assert render_dialogue_jsonl(first) == render_dialogue_jsonl(second)


def test_sweep_csv_schema():
    rows = threshold_sweep(grid(3), grid(3))
    text = render_sweep_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "delta,gamma,p_w1,p_w2,p_w3,eu_a,eu_b,region"
    assert len(lines) == 10
    assert lines[1].startswith("0.25,0.25,")
    assert lines[1].endswith(",BB")  # p_w3 = 0.75 * 0.75 > 0.5
    middle = [line for line in lines[1:] if line.startswith("0.5,")]
    assert middle and all(line.endswith(",none") for line in middle)


SWEEP_FLOAT_FIELDS = ["delta", "gamma", "p_w1", "p_w2", "p_w3", "eu_a", "eu_b"]


def test_sweep_float_fields_are_every_field_but_the_region():
    assert SweepRow._fields == (*SWEEP_FLOAT_FIELDS, "region")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", SWEEP_FLOAT_FIELDS)
def test_json_rejects_non_finite_numbers(field, value):
    row = SweepRow(delta=0.5, gamma=0.1, p_w1=0.45, p_w2=0.1, p_w3=0.45, eu_a=0.45, eu_b=0.45,
                   region="none")
    good = threshold_sweep(grid(2), grid(2))
    with pytest.raises(ValueError):
        render_sweep_json([*good, row._replace(**{field: value})])


def test_hedging_csv_schema():
    trace = run_hedging(GameConfig(delta=0.7, gamma=0.2), max_steps=5)
    text = render_hedging_csv(trace)
    lines = text.splitlines()
    assert lines[0] == "n,p_speaker_a,p_listener_a,eu_a,eu_b"
    assert lines[1] == "0,1,0,0.56,0.24"
    assert lines[4] == "3,0.666666666667,0.428571428571,0.617142857143,0.278095238095"


def test_frame_renderers(canonical_model):
    frame = check_frame(canonical_model)
    csv_text = render_frame_csv(frame)
    assert csv_text == (
        "reflexive,symmetric,transitive,witness\ntrue,true,false,(w1,w2,w3)\n"
    )
    payload = json.loads(render_frame_json(frame))
    assert payload["witness"] == ["w1", "w2", "w3"]
    assert payload["summary"] == "reflexive symmetric non-transitive, witness (w1,w2,w3)"


def test_fmt_float_policy():
    assert fmt_float(0.5599999999999999) == "0.56"
    assert fmt_float(1.0) == "1"
    assert fmt_float(1 / 3) == "0.333333333333"
    assert fmt_float(1e-6) == "1e-06"
