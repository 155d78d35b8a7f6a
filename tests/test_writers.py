"""The JSON writers against ``json.dumps``, the record writers on any
floats, the report writers on random runs, JSON float text, and digests of
reports from non-canonical scenarios."""

import collections
import hashlib
import itertools
import json
import math
import operator
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import sort_worlds

from hedgesim import cli, game, hedging, scenario_io, writers
from hedgesim.assertion import UnexpectedSignalError
from hedgesim.game import (
    GameConfig,
    SweepRow,
    grid,
    render_sweep_csv,
    render_sweep_json,
    threshold_sweep,
)
from hedgesim.hedging import HedgingStep, render_hedging_csv, render_hedging_json, run_hedging
from hedgesim.scenario_io import (
    Scenario,
    load_scenario,
    render_dialogue_jsonl,
    render_frame_csv,
    render_frame_json,
    render_report_csv,
    render_report_json,
    run_scenario,
)
from hedgesim.semantics import FrameReport, check_frame
from hedgesim.worlds import SoritesSeries, pool_states, world_pools
from hedgesim.writers import _jnum_text

DATA_DIR = Path(__file__).parent / "data"

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
# Every delta GameConfig admits with any tau: from the smallest normal float,
# so that tau/delta is finite, to just below 1.
deltas = st.floats(min_value=2.2250738585072014e-308, max_value=1.0, exclude_max=True)
gammas = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
taus = st.one_of(st.sampled_from((0.3, 0.5, 0.7)), deltas)


def repr_text(value: float) -> str:
    return repr(float(format(value, ".12g")))


@given(st.one_of(finite_floats, st.integers(-(10**15), 10**15).map(float)))
def test_jnum_text_is_the_repr_of_the_rounded_float(value):
    assert _jnum_text(value) == repr_text(value)


@pytest.mark.parametrize(
    "value",
    [-0.0, 0.0, 1.0, -3.0, 12345.0, 1e11, 1e12, 1e15, 1e16, 1e-4, 1e-5, 0.5599999999999999,
     1 / 3, 99999999999.9, 999999999999.5, 5e-324, 1.7976931348623157e308],
)
def test_jnum_text_cases(value):
    assert _jnum_text(value) == repr_text(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_jnum_text_rejects_non_finite(value):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        _jnum_text(value)


def rounded(value):
    """``value`` with each float rounded to 12 significant digits."""
    if isinstance(value, float):
        return float(format(value, ".12g"))
    if isinstance(value, dict):
        return {key: rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [rounded(item) for item in value]
    return value


def dumps(value) -> str:
    return json.dumps(rounded(value), indent=2, allow_nan=False) + "\n"


class Label(str):
    """A str subclass, which JSON writes as its text."""


class Count(int):
    """An int subclass, which JSON writes as its digits."""


class Share(float):
    """A float subclass, which JSON writes as its number."""


texts = st.text() | st.text().map(Label)


@settings(deadline=None)
@given(st.tuples(st.booleans(), st.booleans(), st.booleans()),
       st.none() | st.tuples(texts, texts, texts))
@example((True, False, True), ("w\u00e9", Label("k\u00fc"), "v\n"))
@example((False, True, False), (Label('a "quoted" \\ label'), "", "\u65e5"))
def test_frame_json_equals_json_dumps_on_any_labels(flags, witness):
    frame = FrameReport(*flags, witness)
    payload = {**frame._asdict(), "summary": frame.summary()}
    assert render_frame_json(frame) == json.dumps(payload, indent=2) + "\n"


def hedging_payload(trace) -> dict:
    return {
        **trace.config._asdict(),
        "max_steps": trace.max_steps,
        "tolerance": trace.tolerance,
        "hesitation": 0.5,  # the fixed seed f(1)
        "steps": [step._asdict() for step in trace.steps],
        "summary": trace.summary._asdict(),
    }


@settings(deadline=None, max_examples=60)
@given(deltas, gammas, st.integers(4, 300))
def test_hedging_json_equals_json_dumps(delta, gamma, steps):
    trace = run_hedging(GameConfig(delta=delta, gamma=gamma), max_steps=steps)
    assert render_hedging_json(trace) == dumps(hedging_payload(trace))


@settings(deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), taus)
def test_sweep_json_equals_json_dumps(delta_steps, gamma_steps, tau):
    rows = threshold_sweep(grid(delta_steps), grid(gamma_steps), tau=tau)
    records = [row._asdict() for row in rows]
    assert render_sweep_json(rows) == dumps(records)


def test_empty_sweep_json_equals_json_dumps():
    assert render_sweep_json([]) == json.dumps([], indent=2) + "\n"


@settings(deadline=None, max_examples=200)
@given(st.lists(deltas, max_size=6), st.lists(st.sampled_from((0.0, -0.0)) | gammas, max_size=6),
       taus)
@example([], [0.5], 0.5)
@example([0.3, 0.7], [], 0.5)
@example([0.3, 0.7], [0.0, -0.0, 0.5, 0.0], 0.5)
@example([0.25, float("0.25")], [0.5], 0.5)  # equal deltas, two objects: two runs
@example([0.25] * 2, [0.5], 0.5)  # one delta object twice: one hand-built run, two sweep runs
@example([0.25] * 2, [], 0.5)
def test_sweep_chunks_join_to_the_text_one_chunk_per_delta(delta_grid, gamma_grid, tau):
    """The pieces of ``threshold_sweep``'s own runs, of the ``sweep``
    command's path (each delta's columns made as they are written) and of the
    list of the sweep's rows, cut by ``_delta_runs``, join to the oracles'
    text and to ``render_sweep_*``. The writer gives one piece per non-empty
    run it is given, then the closing: a sweep and the streamed path one per
    grid entry, however the entries repeat, and a hand-built list one per run
    of rows that hold the same delta object. An empty sweep is one piece."""
    rows = threshold_sweep(delta_grid, gamma_grid, tau=tau)
    listed = list(rows)
    runs = sum(1 for i, delta in enumerate(delta_grid) if i == 0 or delta is not delta_grid[i - 1])
    oracles = {  # by ``json``; with no row the CSV is its header alone
        False: csv_text(rows) if rows else ",".join(SweepRow._fields) + "\n",
        True: dumps([row._asdict() for row in rows]),
    }
    for render, oracle in ((render_sweep_csv, oracles[False]), (render_sweep_json, oracles[True])):
        assert render(rows) == render(listed) == oracle
    for json_text, oracle in oracles.items():
        paths = (  # each path's runs, with the pieces it gives before the closing
            (game._delta_runs(rows), len(delta_grid)),
            (game._sweep_runs(delta_grid, gamma_grid, tau), len(delta_grid)),
            (game._delta_runs(listed), runs),
        )
        for path, entries in paths:
            chunks = list(game._sweep_chunks(path, json_text))
            assert "".join(chunks) == oracle
            assert len(chunks) == (entries + 1 if rows else 1)


# Floats that reach both branches of the JSON record writer: any finite
# float, whole numbers, signed zeros, numbers of 13 to 16 digits,
# subnormals and numbers near 1e-5, where the 12-digit text turns to an
# exponent.
signs = st.sampled_from((1.0, -1.0))
record_floats = st.one_of(
    finite_floats,
    st.integers(-(10**15), 10**15).map(float),
    st.sampled_from((0.0, -0.0)),
    st.builds(operator.mul, signs, st.floats(1e12, 1e16, exclude_max=True)),
    st.builds(operator.mul, signs, st.floats(0.0, 2.2250738585072014e-308, exclude_max=True)),
    st.builds(operator.mul, signs, st.floats(1e-6, 1e-4)),
)


# The float fields of each row record, in field order.
FLOAT_FIELDS = {
    SweepRow: ["delta", "gamma", "p_w1", "p_w2", "p_w3", "eu_a", "eu_b"],
    HedgingStep: ["p_speaker_a", "p_listener_a", "eu_a", "eu_b"],
}


def test_float_fields_are_every_field_but_the_region_or_step_index():
    assert SweepRow._fields == (*FLOAT_FIELDS[SweepRow], "region")
    assert HedgingStep._fields == ("n", *FLOAT_FIELDS[HedgingStep])


def record_lists(record_type, **others):
    """Records of ``record_type`` with every float field from ``record_floats``."""
    floats = {name: record_floats for name in FLOAT_FIELDS[record_type]}
    return st.lists(st.builds(record_type, **floats, **others), min_size=1, max_size=8)


def csv_text(records) -> str:
    """A header and one row per record, each float as ``format(v, ".12g")``."""
    lines = [",".join(records[0]._fields)]
    lines += [
        ",".join(
            format(float(value), ".12g") if isinstance(value, float) else str(value)
            for value in tuple(record)
        )
        for record in records
    ]
    return "\n".join(lines) + "\n"


HEDGING = run_hedging(GameConfig(delta=0.7, gamma=0.2), max_steps=4)


@settings(deadline=None)
@given(record_lists(SweepRow, region=st.text()))
def test_sweep_writers_on_any_floats(rows):
    assert render_sweep_csv(rows) == csv_text(rows)
    objects = [row._asdict() for row in rows]
    assert render_sweep_json(rows) == dumps(objects)


# Floats where a text memo can go wrong: signed zeros are equal keys with
# different texts, and whole numbers, exponents and non-finite values leave
# the plain ``%.12g`` path in JSON.
MEMO_TRAPS = (0.0, -0.0, 1.0, -3.0, 12345.0, 7e-6, -2.5e-7, 1e12, 3.5e15, math.nan, math.inf,
              -math.inf)


# Values a float column can hold: any float, the memo traps, ints and bools.
column_values = st.one_of(record_floats, st.sampled_from(MEMO_TRAPS),
                          st.integers(-(10**15), 10**15), st.booleans())


@settings(deadline=None, max_examples=300)
@given(st.lists(column_values, min_size=1, max_size=12).map(tuple))
@example((1.0, 0.5, 7e-6, 0.25))  # one exponent sends the whole column value by value
@example((0.5, True, -0.0, 3))
@example((0.5, math.nan, math.inf))
def test_float_texts_are_each_values_text(values):
    """A column's texts, from one ``%.12g`` pass, are ``fmt_float`` of each
    value; in JSON they are ``_jnum_text`` of each value, and a non-finite
    value raises the error ``_jnum_text`` raises for the first of them."""
    slots = ",".join(["%.12g"] * len(values))
    assert writers._float_texts(slots, values, False) == list(map(writers.fmt_float, values))
    if all(map(math.isfinite, values)):
        assert writers._float_texts(slots, values, json=True) == list(map(_jnum_text, values))
        return
    with pytest.raises(ValueError) as want:
        list(map(_jnum_text, values))
    with pytest.raises(ValueError) as got:
        writers._float_texts(slots, values, json=True)
    assert str(got.value) == str(want.value)


@st.composite
def shared_float_rows(draw):
    """Sweep rows whose floats come from one small pool of objects, so the
    same object recurs across fields and rows, and ``p_w2``, ``eu_a`` and
    ``eu_b`` are often the gamma, ``p_w1`` and ``p_w3`` objects, as in a
    ``threshold_sweep`` row."""
    pool = st.sampled_from(draw(st.lists(record_floats, max_size=3)) + list(MEMO_TRAPS))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        delta, gamma, p_w1, p_w3 = draw(pool), draw(pool), draw(pool), draw(pool)
        p_w2, eu_a, eu_b = (draw(st.one_of(st.just(same), pool)) for same in (gamma, p_w1, p_w3))
        region = draw(st.sampled_from(("AA", "BB", "none")) | st.text(max_size=3))
        rows.append(SweepRow(delta, gamma, p_w1, p_w2, p_w3, eu_a, eu_b, region))
    return rows


@settings(deadline=None, max_examples=300)
@given(shared_float_rows())
# Equal values of another text: a -0.0 where the gamma, p_w1 or p_w3 column
# holds 0.0, and a next delta whose gammas are the last ones but for a zero.
@example([SweepRow(0.5, 0.0, 0.0, -0.0, 1.0, -0.0, 1.0, "AA"),
          SweepRow(0.25, -0.0, 1.0, -0.0, 0.0, 1.0, -0.0, "BB")])
def test_sweep_writers_on_shared_floats(rows):
    assert render_sweep_csv(rows) == csv_text(rows)
    if all(map(math.isfinite, itertools.chain.from_iterable(row[:7] for row in rows))):
        objects = [row._asdict() for row in rows]
        assert render_sweep_json(rows) == dumps(objects)
    else:
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            render_sweep_json(rows)


@settings(deadline=None)
@given(record_lists(HedgingStep, n=st.integers(0, 10**5)))
def test_hedging_writers_on_any_floats(steps):
    trace = HEDGING._replace(steps=tuple(steps))
    assert render_hedging_csv(trace) == csv_text(steps)
    assert render_hedging_json(trace) == dumps(hedging_payload(trace))


@st.composite
def shared_float_steps(draw):
    """Hedging steps in runs that hold the same value objects, as the steps
    past the fixed point do. The objects come from one small pool, and each
    run keeps some of the last run's objects and often swaps a zero for the
    other zero, so that neighbouring runs can differ only in an equal
    object of another text."""
    pool = st.sampled_from(draw(st.lists(record_floats, max_size=3)) + list(MEMO_TRAPS))
    values = [draw(pool) for _ in FLOAT_FIELDS[HedgingStep]]
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        values = [draw(st.just(v) | st.sampled_from((0.0, -0.0)) | pool) for v in values]
        for _ in range(draw(st.integers(1, 4))):
            steps.append(HedgingStep(draw(st.integers(0, 10**5)), *values))
    return steps


@settings(deadline=None, max_examples=300)
@given(shared_float_steps())
# Steps that are equal but for the text of a zero, which a step may not take
# from the one before it: -0.0 == 0.0, but the two print apart.
@example([HedgingStep(n, 0.5, zero, 0.5, 0.5) for n, zero in enumerate((0.0, 0.0, -0.0, -0.0, 0.0))])
@example([HedgingStep(n, *values) for n, values in enumerate(
    [(1.0, -0.0, 0.5, -0.0)] * 2 + [(1.0, 0.0, 0.5, 0.0)] * 2 + [(1.0, -0.0, 0.5, 0.0)])])
def test_hedging_writers_on_shared_floats(steps):
    trace = HEDGING._replace(steps=tuple(steps))
    assert render_hedging_csv(trace) == csv_text(steps)
    if all(map(math.isfinite, itertools.chain.from_iterable(step[1:] for step in steps))):
        assert render_hedging_json(trace) == dumps(hedging_payload(trace))
    else:
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            render_hedging_json(trace)


@settings(deadline=None, max_examples=200)
@given(shared_float_steps())
@example([])
def test_hedging_pieces_join_to_the_text_one_piece_per_step(steps):
    """The pieces join to the oracles' text: a head, one piece per step that
    holds that step's text alone, then the closing with the tail. With no
    step the CSV is its header line alone and the JSON's steps are ``[]``."""
    trace = HEDGING._replace(steps=tuple(steps))
    pieces = list(hedging._hedging_pieces(*trace, json=False))
    assert "".join(pieces) == (csv_text(steps) if steps else ",".join(HedgingStep._fields) + "\n")
    assert [piece.count("\n") for piece in pieces] == [0, *[1] * len(steps), 1]
    if not all(map(math.isfinite, itertools.chain.from_iterable(step[1:] for step in steps))):
        return
    pieces = list(hedging._hedging_pieces(*trace, json=True))
    text = "".join(pieces)
    assert text == dumps(hedging_payload(trace))
    assert ('"steps": [],' in text) == (not steps)
    assert [piece.count('"n": ') for piece in pieces] == [0, *[1] * len(steps), 0]


def streamed_hedge(config, max_steps, tolerance, fmt, folder) -> str:
    """The text ``hedge`` writes for ``config``'s delta and gamma."""
    out = Path(folder) / fmt
    argv = ["hedge", "--delta", repr(config.delta), "--gamma", repr(config.gamma),
            "--steps", str(max_steps), "--tolerance", repr(tolerance)]
    assert cli.main([*argv, "--format", fmt, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


@settings(deadline=None, max_examples=15)
@given(
    delta=deltas,
    gamma=st.sampled_from((0.0, -0.0)) | gammas,
    max_steps=st.integers(4, 100_000),
    tolerance=st.sampled_from((1e-12, 1e-6, 1.0)),
)
@example(delta=0.7, gamma=0.2, max_steps=4, tolerance=1e-6)
@example(delta=0.7, gamma=0.2, max_steps=50, tolerance=1e-6)
@example(delta=0.7, gamma=0.2, max_steps=51, tolerance=1e-6)
@example(delta=0.7, gamma=-0.0, max_steps=52, tolerance=1e-6)
@example(delta=0.7, gamma=0.0, max_steps=53, tolerance=1e-6)
@example(delta=0.3, gamma=0.9, max_steps=54, tolerance=1e-12)
@example(delta=0.7, gamma=0.2, max_steps=100_000, tolerance=1e-6)
def test_hedge_streams_the_render_of_run_hedging(delta, gamma, max_steps, tolerance):
    """``hedge`` writes ``render_hedging_*`` of ``run_hedging``'s trace, which
    formats the steps read from distinct pairs and writes the rest from the
    last one's text. That text is the one a trace holding the tuple of the
    same steps gets, with every step formatted."""
    config = GameConfig(delta=delta, gamma=gamma)
    trace = run_hedging(config, max_steps, tolerance)
    held = trace._replace(steps=tuple(trace.steps))
    assert len(held.steps) == max_steps + 1
    with tempfile.TemporaryDirectory() as folder:
        for fmt, render in (("csv", render_hedging_csv), ("json", render_hedging_json)):
            text = render(held)
            assert streamed_hedge(config, max_steps, tolerance, fmt, folder) == text
            assert render(trace) == text


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", FLOAT_FIELDS[HedgingStep])
def test_hedging_json_rejects_non_finite_numbers(field, value):
    bad = HEDGING.steps[-1]._replace(**{field: value})
    trace = HEDGING._replace(steps=(*HEDGING.steps, bad))
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        render_hedging_json(trace)


RECORDS = {
    "sweep": threshold_sweep(grid(2), grid(2))[0],
    "hedge": HEDGING.steps[1],
    "frame": check_frame(pool_states(SoritesSeries(5, {"S": 4, "L": 2}))),
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_records_are_immutable(kind):
    record = RECORDS[kind]
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_record_fields_are_the_csv_headers():
    assert SweepRow._fields == tuple(render_sweep_csv([]).rstrip("\n").split(","))
    assert HedgingStep._fields == tuple(render_hedging_csv(HEDGING).split("\n", 1)[0].split(","))
    header = render_frame_csv(RECORDS["frame"]).split("\n", 1)[0]
    assert FrameReport._fields == tuple(header.split(","))


@pytest.mark.parametrize("witness", [None, ("w1", "w\u00e9", "w3")])
@pytest.mark.parametrize("flags", list(itertools.product((False, True), repeat=3)))
def test_frame_writers_on_every_flag_combination(flags, witness):
    frame = FrameReport(*flags, witness)
    payload = {**frame._asdict(), "summary": frame.summary()}
    assert render_frame_json(frame) == json.dumps(payload, indent=2) + "\n"
    cells = ["true" if flag else "false" for flag in flags]
    cells.append("" if witness is None else "(" + ",".join(witness) + ")")
    header = "reflexive,symmetric,transitive,witness"
    assert render_frame_csv(frame) == header + "\n" + ",".join(cells) + "\n"


def test_sweep_holds_at_most_100_kb_per_1000_rows():
    """What a 100 x 100 sweep keeps alive, its delta columns and their new
    floats, per 1000 rows (KB of 1024 bytes): about 75; a named-tuple row
    held for each would read about 165."""
    deltas, gammas = grid(100), grid(100)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = threshold_sweep(deltas, gammas)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / len(rows) * 1000 / 1024 <= 100


def test_hedging_json_render_peaks_under_40_mb():
    """At 100000 steps the render peaks while the step pieces and their join
    are both alive, at about 37 MB (of 1024 x 1024 bytes); one more copy of
    the 15.7 MB text at that point would read about 52 MB."""
    trace = run_hedging(GameConfig(delta=0.7, gamma=0.2), max_steps=100_000)
    tracemalloc.start()
    try:
        render_hedging_json(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 1024 * 1024, peak


@pytest.fixture
def float_text_calls(monkeypatch):
    """Counts the calls of the per-float writers ``fmt_float`` and
    ``_jnum_text`` and of the per-column ``_float_texts``, in each module that
    looks them up: the layout's own, the sweep's and the hedging's."""
    calls = collections.Counter()
    for name in ("fmt_float", "_jnum_text", "_float_texts"):
        original = getattr(writers, name)

        def counted(*args, original=original, name=name, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for module in (writers, game, hedging):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


def test_record_writers_format_floats_per_record(float_text_calls):
    """1001 hedging steps in both formats take a few calls of the per-float
    writers, for the hedging header and the whole-number first steps, not
    one per field. 2500 sweep rows, rendered or streamed, take one per-float
    call per delta, of ``fmt_float`` in CSV and of ``_jnum_text`` in JSON,
    one column pass for the gammas and one per delta for ``p_w1`` and
    ``p_w3`` together: no JSON column falls back to value by value, and
    ``p_w2``, ``eu_a`` and ``eu_b`` take the texts of the gamma, ``p_w1`` and
    ``p_w3`` columns they equal."""
    trace = run_hedging(GameConfig(delta=0.7, gamma=0.2), max_steps=1000)
    assert render_hedging_csv(trace) and render_hedging_json(trace)
    assert float_text_calls["fmt_float"] + float_text_calls["_jnum_text"] <= 50, float_text_calls
    rows = threshold_sweep(grid(50), grid(50))
    for json_text, name in ((False, "fmt_float"), (True, "_jnum_text")):
        render = render_sweep_json if json_text else render_sweep_csv
        for text in (lambda: render(rows), lambda: "".join(game._sweep_text(50, 50, 0.5, json_text))):
            float_text_calls.clear()
            assert text()
            assert float_text_calls == {name: 50, "_float_texts": 1 + 50}


@pytest.mark.parametrize("json_text", [False, True])
def test_sweep_texts_agree_where_a_json_column_falls_back(json_text, float_text_calls):
    """At 150 x 101 the smallest ``p_w1`` is 6.5e-5, below 1e-4, so a JSON
    column there is written value by value. The command's text, the render of
    the sweep and the render of the list of its rows are one text."""
    sweep = threshold_sweep(grid(150), grid(101))
    assert min(row.p_w1 for row in sweep) < 1e-4
    render = render_sweep_json if json_text else render_sweep_csv
    float_text_calls.clear()
    streamed = "".join(game._sweep_text(150, 101, 0.5, json_text))
    per_float = float_text_calls["fmt_float"] + float_text_calls["_jnum_text"]
    assert per_float > 150 if json_text else per_float == 150
    assert render(sweep) == render(list(sweep)) == streamed


def test_hedging_work_does_not_grow_past_the_fixed_point(monkeypatch, tmp_path):
    """The steps ``hedge`` builds and the step texts it formats are as many at
    100000 steps as at 1000: the recurrence ran once, at import; the summary
    is a row of a constant table, and the trace builds the 53 steps read
    from distinct pairs for the text; each later step repeats the last one's values, and is
    written from that step's text. ``render_hedging_*`` format a 10000-step
    ``run_hedging`` trace from its 53 computed steps' texts."""
    counts = collections.Counter()
    propensities = hedging._propensities

    def counted_propensities():
        for pair in propensities():
            counts["recurrence"] += 1
            yield pair

    monkeypatch.setattr(hedging, "_propensities", counted_propensities)
    step = hedging._Steps._item

    def counted_step(self, n):
        counts["step"] += 1
        return step(self, n)

    monkeypatch.setattr(hedging._Steps, "_item", counted_step)
    for name in ("_step_csv", "_step_json"):
        def counted(values, original=getattr(hedging, name), name=name):
            counts[name] += 1
            return original(values)

        monkeypatch.setattr(hedging, name, counted)
    seen = []
    for max_steps in (1000, 100_000):
        counts.clear()
        texts = {}
        for fmt in ("csv", "json"):
            out = tmp_path / fmt
            argv = ["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", str(max_steps)]
            assert cli.main([*argv, "--format", fmt, "--out", str(out)]) == 0
            texts[fmt] = out.read_text(encoding="utf-8")
        assert texts["csv"].count("\n") == max_steps + 2
        assert texts["json"].count('"n": ') == max_steps + 1
        seen.append(dict(counts))
    assert seen[0] == seen[1] == {"step": 2 * 53, "_step_csv": 53, "_step_json": 53}
    trace = run_hedging(GameConfig(0.7, 0.2), 10_000)
    for render, name in ((render_hedging_csv, "_step_csv"), (render_hedging_json, "_step_json")):
        counts.clear()
        assert render(trace).count("\n") > 10_000
        assert counts == {"step": 53, name: 53}, counts


def test_float_fields_given_ints_are_written_as_floats():
    def scenario(gamma, tolerance):
        config = GameConfig(delta=0.7, gamma=gamma, epsilon=gamma)
        series = SoritesSeries(5, {"S": 4, "L": 2})
        return Scenario(
            series=series, canonical=False, config=config, speaker="S", world="w2",
            tolerance=tolerance,
        )

    assert render_report_json(run_scenario(scenario(0, 1))) == render_report_json(
        run_scenario(scenario(0.0, 1.0))
    )
    ints = run_hedging(GameConfig(delta=0.7, gamma=0, epsilon=0), max_steps=4, tolerance=1)
    floats = run_hedging(GameConfig(delta=0.7, gamma=0.0, epsilon=0.0), max_steps=4, tolerance=1.0)
    assert '"gamma": 0.0' in render_hedging_json(ints)
    assert render_hedging_json(ints) == render_hedging_json(floats)

    int_rows = [SweepRow(1, 0, 1, 0, 0, 1, 0, "AA")]
    float_rows = [SweepRow(1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, "AA")]
    assert '"delta": 1.0' in render_sweep_json(int_rows)
    assert render_sweep_json(int_rows) == render_sweep_json(float_rows)
    assert render_sweep_csv(int_rows) == render_sweep_csv(float_rows)

    int_steps = HEDGING._replace(steps=(HedgingStep(0, 1, 0, 1, 0),))
    float_steps = HEDGING._replace(steps=(HedgingStep(0, 1.0, 0.0, 1.0, 0.0),))
    assert '"p_speaker_a": 1.0' in render_hedging_json(int_steps)
    assert render_hedging_json(int_steps) == render_hedging_json(float_steps)
    assert render_hedging_csv(int_steps) == render_hedging_csv(float_steps)

    def report(eu_a, pair_sum_gap):
        report = run_scenario(load_scenario(DATA_DIR / "canonical.scn"))
        summary = report.hedging.summary._replace(pair_sum_gap=pair_sum_gap)
        return report._replace(
            region=report.region._replace(eu_a=eu_a),
            hedging=report.hedging._replace(summary=summary),
        )

    text = render_report_json(report(1, 0))
    assert '"eu_a": 1.0' in text and '"pair_sum_gap": 0.0' in text
    assert text == render_report_json(report(1.0, 0.0))


def test_final_eus_given_ints_are_written_as_floats():
    report = run_scenario(load_scenario(DATA_DIR / "canonical.scn"))
    steps = (*report.hedging.steps[:-1], HedgingStep(report.hedging.max_steps, 1, 0, 1, 0))
    text = render_report_json(report._replace(hedging=report.hedging._replace(steps=steps)))
    assert '"final_eu_a": 1.0' in text and '"final_eu_b": 0.0' in text


def as_floats(record) -> dict:
    """The fields of a game config, region report or hedging summary, each
    plain ``int`` as a float: those records hold no int field."""
    return {name: float(v) if type(v) is int else v for name, v in record._asdict().items()}


def dialogue_record(step) -> dict:
    return {
        "time": step.time,
        "signal": None if step.signal is None else step.signal.text,
        "live": step.live,
        "posterior": dict(step.posterior),
    }


def in_world_order(model, worlds) -> list:
    return [world for world in model.worlds if world in worlds]


def model_record(model) -> dict:
    """The model block, read off the model's fields."""
    record = {
        "agents": model.agents,
        "worlds": model.worlds,
        "partitions": {
            agent: [in_world_order(model, cell) for cell in cells]
            for agent, cells in model.partitions.items()
        },
        "valuation": {key: in_world_order(model, worlds) for key, worlds in model.valuation.items()},
    }
    if model.judgments is not None:
        record["judgments"] = {agent: dict(worlds) for agent, worlds in model.judgments.items()}
    if model.members is not None:
        record["members"] = dict(model.members)
    return record


def report_payload(report) -> dict:
    """The run report as one dict, in the order the report JSON lists it."""
    scenario, model, hedging = report.scenario, report.model, report.hedging
    return {
        "scenario": {
            "canonical": scenario.canonical,
            "n": scenario.series.n,
            "flips": dict(scenario.series.flips),
            **as_floats(scenario.config),
            "speaker": scenario.speaker,
            "world": scenario.world,
            "steps": scenario.steps,
            "tolerance": float(scenario.tolerance),
        },
        "model": model_record(model),
        "signal": report.signal.text,
        "dialogue": [dialogue_record(step) for step in report.dialogue],
        "posterior": dict(report.posterior),
        "equilibrium": as_floats(report.region),
        "hedging": {
            "max_steps": hedging.max_steps,
            "tolerance": float(hedging.tolerance),
            **as_floats(hedging.summary),
            "final_eu_a": float(hedging.steps[-1].eu_a),
            "final_eu_b": float(hedging.steps[-1].eu_b),
        },
        "public_belief": {
            "proposition": sort_worlds(model, report.public_belief_proposition),
            "worlds": sort_worlds(model, report.public_belief_worlds),
            "holds": report.public_belief,
        },
    }


# Agent labels, non-ASCII ones among them, and parameters that are whole
# numbers, given as floats or as ints; labels, counts and tolerances are
# sometimes of a subclass of their type.
agent_labels = st.sampled_from(
    ("S", "L", "\u00dc", "caf\u00e9", "\u65e5\u672c", "\U0001f600", 'a "b"')
)
agent_labels |= agent_labels.map(Label)
whole_zero = st.sampled_from((0, 0.0))
tolerances = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=1e-300, max_value=1e300).map(Share),
    st.integers(1, 10**15),
    st.integers(1, 10**15).map(float),
)


@st.composite
def run_reports(draw):
    """Reports of runs over two-agent pooled marches, some with the model
    stripped of its pooling provenance, as a hand-built model has none."""
    counts = st.sampled_from((int, Count))
    n = draw(counts)(draw(st.integers(3, 12)))
    agents = draw(st.lists(agent_labels, min_size=2, max_size=2, unique=True))
    flips = {agent: draw(counts)(draw(st.integers(2, n))) for agent in agents}
    series = SoritesSeries(n, flips)
    config = GameConfig(
        delta=draw(st.one_of(st.sampled_from((0.25, 0.5, 0.7)), deltas)),
        gamma=draw(whole_zero | gammas),
        epsilon=draw(whole_zero | st.floats(0.0, 0.5, exclude_max=True)),
    )
    scenario = Scenario(
        series=series,
        canonical=draw(st.booleans()),
        config=config,
        speaker=draw(st.sampled_from(agents)),
        world=draw(st.sampled_from(tuple(world_pools(series)))),
        steps=draw(st.integers(4, 60)),
        tolerance=draw(tolerances),
    )
    try:
        report = run_scenario(scenario)
    except UnexpectedSignalError:  # epsilon 0 can leave the signal no chance
        assume(False)
    if draw(st.booleans()):
        report = report._replace(model=report.model._replace(judgments=None, members=None))
    return report


@settings(deadline=None, max_examples=200)
@given(run_reports())
def test_report_writers_equal_json_dumps(report):
    assert render_report_json(report) == dumps(report_payload(report))
    assert render_dialogue_jsonl(report) == "".join(
        json.dumps(rounded(dialogue_record(step))) + "\n" for step in report.dialogue
    )


def test_report_writers_sort_no_worlds(monkeypatch):
    """The report JSON and JSON lines list each world subset by filtering
    the model's worlds, never through ``sorted``."""
    calls = collections.Counter()

    def counted(*args, **kwargs):
        calls["sorted"] += 1
        return sorted(*args, **kwargs)

    monkeypatch.setattr(scenario_io, "sorted", counted, raising=False)
    for path in sorted(DATA_DIR.glob("*.scn")):
        report = run_scenario(load_scenario(path))
        assert render_report_json(report) and render_dialogue_jsonl(report)
    assert not calls, calls


def render_all(path: Path) -> dict[str, str]:
    scenario = load_scenario(path)
    report = run_scenario(scenario)
    return {
        "report_json": render_report_json(report),
        "report_csv": render_report_csv(report),
        "dialogue_jsonl": render_dialogue_jsonl(report),
        "frame_json": render_frame_json(check_frame(pool_states(scenario.series))),
    }


# Recorded from the json.dumps(indent=2) report and frame writers, before
# one JSON writer laid out every output. Every golden file comes from the
# canonical march; these pin reports whose models, signals and labels differ.
NON_CANONICAL_DIGESTS = {
    "two_world": {
        "report_json": "5e6eac4744b94e0089a606359bd81b0c0b3a381bae16f832dcf284110c47ebda",
        "report_csv": "c92d7c83ab682d942584402a9f7ae18d8d4524acdd033bc0149a422bdf27e3ef",
        "dialogue_jsonl": "6b298cccb8785b008a9dfc468bf5df42d76bf172766977c50f2d4facbe79b191",
        "frame_json": "784deb25388ae108c5387c71452d5f6a95b7389e0cef69c1ff216e8f8aea464c",
    },
    "speaker_l": {
        "report_json": "bee0254221d3c491e46f79422ae71d4b611d295536bde93eeb183ecadc881756",
        "report_csv": "bba0e362f6952c51ca10fe8a6cd3a7d23ad7bb410a233855cd740982a97e9724",
        "dialogue_jsonl": "e7d59419c198cd975298d48f51142da9258cd0d826ec969c94a3c6702a50ed92",
        "frame_json": "1e03608808eaf68eac533321f7c16501a9014fbf7ce4e0a9877ba92b4253853b",
    },
    "gamma0": {
        "report_json": "8ca260d4859b91006e95ebaf073dab9ae430cbba588857a82d69a19e35c00fb4",
        "report_csv": "d339bd1a83d78059e9d1ae741d619bf3d90a03f7e11e27f66bcdb5f47954f9e4",
        "dialogue_jsonl": "4b30a470dd3fe7cfb102a5fd217505d1529b68b819706a3ef6cb4257030072fe",
        "frame_json": "1e03608808eaf68eac533321f7c16501a9014fbf7ce4e0a9877ba92b4253853b",
    },
    "equal_flips": {
        "report_json": "113a28b73c5ae861b52e6d4b48addcf39c2dd21d3d32d0cc209ab18ab9d562f8",
        "report_csv": "6ad16cd5965d45a49484844b05a676efc2761bc0b42d703b82f2e17a8529bb16",
        "dialogue_jsonl": "8430dee312e37d060fb0949fc4cbe3d6aa23b670011a8b065585255e0916e4d2",
        "frame_json": "784deb25388ae108c5387c71452d5f6a95b7389e0cef69c1ff216e8f8aea464c",
    },
    "non_ascii": {
        "report_json": "b1e39e470336dea5b4db1a0c59d623d05bcde5a74b8fd17f50ef3bc212efa1fd",
        "report_csv": "d339bd1a83d78059e9d1ae741d619bf3d90a03f7e11e27f66bcdb5f47954f9e4",
        "dialogue_jsonl": "4b30a470dd3fe7cfb102a5fd217505d1529b68b819706a3ef6cb4257030072fe",
        "frame_json": "1e03608808eaf68eac533321f7c16501a9014fbf7ce4e0a9877ba92b4253853b",
    },
}


@pytest.mark.parametrize("name", sorted(NON_CANONICAL_DIGESTS))
def test_non_canonical_report_digests(name):
    texts = render_all(DATA_DIR / f"{name}.scn")
    digests = {key: hashlib.sha256(text.encode()).hexdigest() for key, text in texts.items()}
    assert digests == NON_CANONICAL_DIGESTS[name]


# The writers the benchmark reads through ``scenario_io``.
BENCHMARK_WRITERS = {
    "render_dialogue_jsonl", "render_hedging_csv", "render_hedging_json", "render_report_csv",
    "render_report_json", "render_sweep_csv", "render_sweep_json",
}


# Of those, the ones ``scenario_io`` defines; the rest live beside the code
# that computes what they write.
REPORT_WRITERS = {"render_dialogue_jsonl", "render_report_csv", "render_report_json"}
HOMES = {"render_sweep_csv": game, "render_sweep_json": game,
         "render_hedging_csv": hedging, "render_hedging_json": hedging}


def test_scenario_io_re_exports_the_writers():
    assert set(HOMES) == BENCHMARK_WRITERS - REPORT_WRITERS
    for name, home in HOMES.items():
        assert getattr(scenario_io, name) is getattr(home, name)
        assert getattr(home, name).__module__ == home.__name__
    for name in REPORT_WRITERS:
        assert getattr(scenario_io, name).__module__ == scenario_io.__name__
    # ``writers`` keeps only the shared number text and layout.
    assert not [name for name in vars(writers) if name.startswith("render_")]
