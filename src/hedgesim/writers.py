"""Deterministic CSV, JSON and JSON-lines text for every report hedgesim writes.

CSV uses ``.`` decimals, no grouping and 12 significant digits; JSON carries
the same rounded numbers, so both formats stay byte-stable. One writer,
``_json_text``, lays out every JSON document and JSON line from the
payload's raw values, rounding each float as it writes it.

Each schema is written out here. A sweep row, a hedging step and a frame
report are named tuples: their ``_fields`` are the CSV header and JSON keys,
and the record itself is the value tuple of its CSV row template. In JSON,
one ``%.12g`` template writes the floats of a sweep row or hedging step, and
that text is used as it is when each number has a ``.`` and no exponent:
such text is already the float's JSON text. A record with any other float (a
whole number, one below 1e-5 or from 1e12 up, or a non-finite one) is
written float by float through ``_jnum_text``, which rejects non-finite
values. The report blocks pass each float field through ``float()``, so a
float field given an int is still written as a float.

The writers read record fields and need only the record types of ``game``
and ``hedging``, so the ``sweep`` and ``hedge`` commands load neither the
world models nor the scenario runner. ``scenario_io`` re-exports the
report, dialogue, sweep and hedge ``render_*`` functions, which the
benchmark reads there; import everything else from this module.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from .game import GAME_RANGES, SweepRow
from .hedging import HESITATION, HedgingStep

if TYPE_CHECKING:
    from .game import GameConfig
    from .hedging import HedgingSummary, HedgingTrace
    from .scenario_io import DialogueStep, RunReport, Scenario
    from .semantics import FrameReport
    from .worlds import WorldModel

# The [game] keys are the GameConfig fields and the [run] keys the Scenario
# fields of the same name, in the order files and reports list them.
_SCENARIO_KEYS = {
    "game": tuple(GAME_RANGES),
    "run": ("speaker", "world", "steps", "tolerance"),
}

# The CSV row of each record, field by field; the hedging step's row is also
# its JSON float text.
_SWEEP_ROW = "%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%s"
_STEP_ROW = "%d,%.12g,%.12g,%.12g,%.12g"
_FRAME_ROW = "%s,%s,%s,%s"
# The sweep row's seven floats; ``%.0s`` writes nothing for its region.
_SWEEP_FLOATS = "%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g%.0s"


def fmt_float(value: float) -> str:
    return "%.12g" % value


def _jnum_text(value: float) -> str:
    """``repr`` of the float rounded to 12 significant digits; reject
    non-finite values, which JSON cannot carry.

    Without an exponent the 12-digit text is already that ``repr`` (at most
    12 significant digits name a single float), short of the ``.0`` a whole
    number gets. Exponents, ``nan`` and ``inf`` take the parse-back path.
    """
    text = fmt_float(value)
    if "e" not in text and "n" not in text:
        return text if "." in text else text + ".0"
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(f"Out of range float values are not JSON compliant: {number!r}")
    return repr(number)


def _bool_text(value: bool) -> str:
    return str(value).lower()


def _sweep_json(row: SweepRow) -> tuple:
    """The JSON text of a sweep row's values: its floats from one ``%.12g``
    pass when that text is their ``_jnum_text``, that is when it has no
    exponent and a ``.`` in every number (``nan`` and ``inf`` have none),
    else float by float."""
    numbers = _SWEEP_FLOATS % row
    if "e" in numbers or numbers.count(".") != 7:
        return (*map(_jnum_text, row[:7]), encode_basestring_ascii(row.region))
    return (*numbers.split(","), encode_basestring_ascii(row.region))


def _step_json(step: HedgingStep) -> tuple:
    """The JSON text of a hedging step's values, as for a sweep row."""
    numbers = _STEP_ROW % step
    if "e" in numbers or numbers.count(".") != 4:
        return (str(step.n), *map(_jnum_text, step[1:]))
    return tuple(numbers.split(","))


_RECORD_JSON = {SweepRow: _sweep_json, HedgingStep: _step_json}


def _layout(depth: int | None) -> tuple:
    """(inner depth, opening, separator, closing) around the items of a
    non-empty list or object at nesting ``depth``; ``None`` is one line."""
    if depth is None:
        return None, "", ", ", ""
    indent = "\n" + "  " * (depth + 1)
    return depth + 1, indent, "," + indent, "\n" + "  " * depth


def _json_text(value, depth: int | None = 0) -> str:
    """``value`` as the standard JSON encoder writes it with ``indent=2`` at
    nesting ``depth``, or with no indent when ``depth`` is None, each float
    as ``_jnum_text``. Dicts have text keys; tuples are lists.

    A list of sweep rows or hedging steps is a list of objects of their
    fields, written through one ``%``-template built per list; it is
    recognised before a tuple is taken for a list. The brackets ride on
    the first and last items, so the join is the only full copy of the text.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        return _jnum_text(value)
    if isinstance(value, int):
        return _bool_text(value) if isinstance(value, bool) else int.__repr__(value)
    if value is None:
        return "null"
    brackets = "{}" if isinstance(value, dict) else "[]"
    if not value:
        return brackets
    inner, opening, separator, closing = _layout(depth)
    if brackets == "{}":
        items = [
            f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
            for key, item in value.items()
        ]
    elif type(value[0]) in _RECORD_JSON:
        record_json = _RECORD_JSON[type(value[0])]
        _, record_opening, record_separator, record_closing = _layout(inner)
        members = [f"{encode_basestring_ascii(name)}: %s" for name in value[0]._fields]
        template = "{" + record_opening + record_separator.join(members) + record_closing + "}"
        items = [template % record_json(record) for record in value]
    else:
        items = [_json_text(item, inner) for item in value]
    items[0] = brackets[0] + opening + items[0]
    items[-1] += closing + brackets[1]
    return separator.join(items)


def _render_csv(names: tuple[str, ...], row: str, records) -> str:
    """A header of the field names, then ``row % record`` per record."""
    return "\n".join([",".join(names), *[row % record for record in records]]) + "\n"


def _as_floats(fields: dict, *names: str) -> dict:
    """``fields`` with each of ``names`` as a float: a float field given an
    int is still written as a float."""
    return {**fields, **{name: float(fields[name]) for name in names}}


def _game_payload(config: GameConfig) -> dict:
    return {name: float(getattr(config, name)) for name in _SCENARIO_KEYS["game"]}


def _summary_payload(summary: HedgingSummary) -> dict:
    return _as_floats(vars(summary), "even_tail", "odd_tail", "pair_sum_gap")


def scenario_payload(scenario: Scenario) -> dict:
    return {
        "canonical": scenario.canonical,
        "n": scenario.series.n,
        "flips": dict(scenario.series.flips),
        **_game_payload(scenario.config),
        **_as_floats({name: getattr(scenario, name) for name in _SCENARIO_KEYS["run"]}, "tolerance"),
    }


def model_payload(model: WorldModel) -> dict:
    payload = {
        "agents": model.agents,
        "worlds": model.worlds,
        "partitions": {
            agent: [model.sort_worlds(cell) for cell in cells]
            for agent, cells in model.partitions.items()
        },
        "valuation": {key: model.sort_worlds(worlds) for key, worlds in model.valuation.items()},
    }
    if model.judgments is not None:
        payload["judgments"] = {
            agent: dict(per_world) for agent, per_world in model.judgments.items()
        }
    if model.members is not None:
        payload["members"] = dict(model.members)
    return payload


def _dialogue_record(step: DialogueStep) -> dict:
    return {
        "time": step.time,
        "signal": None if step.signal is None else step.signal.text,
        "live": step.live,
        "posterior": dict(step.posterior),
    }


def report_payload(report: RunReport) -> dict:
    return {
        "scenario": scenario_payload(report.scenario),
        "model": model_payload(report.model),
        "signal": report.signal.text,
        "dialogue": [_dialogue_record(step) for step in report.dialogue],
        "posterior": dict(report.posterior),
        "equilibrium": _as_floats(
            vars(report.region),
            "eu_a", "eu_b", "gamma_bound_a", "gamma_bound_b", "listener_q_given_speaker_q",
        ),
        "hedging": {
            "max_steps": report.hedging.max_steps,
            "tolerance": float(report.hedging.tolerance),
            **_summary_payload(report.hedging.summary),
            "final_eu_a": float(report.hedging.steps[-1].eu_a),
            "final_eu_b": float(report.hedging.steps[-1].eu_b),
        },
        "public_belief": {
            "proposition": report.model.sort_worlds(report.public_belief_proposition),
            "worlds": report.model.sort_worlds(report.public_belief_worlds),
            "holds": report.public_belief,
        },
    }


def render_report_json(report: RunReport) -> str:
    return _json_text(report_payload(report)) + "\n"


def render_report_csv(report: RunReport) -> str:
    """The dialogue trace as CSV: one row per conversation step."""
    lines = ["time,signal,live,posterior"]
    for step in report.dialogue:
        posterior = ";".join(fmt_float(step.posterior[w]) for w in step.live)
        signal = "" if step.signal is None else step.signal.text
        lines.append(f"{step.time},{signal},{';'.join(step.live)},{posterior}")
    return "\n".join(lines) + "\n"


def render_dialogue_jsonl(report: RunReport) -> str:
    """The dialogue trace as JSON lines: one record per step."""
    return "".join(_json_text(_dialogue_record(step), None) + "\n" for step in report.dialogue)


def render_sweep_csv(rows: list[SweepRow]) -> str:
    return _render_csv(SweepRow._fields, _SWEEP_ROW, rows)


def render_sweep_json(rows: list[SweepRow]) -> str:
    return _json_text(rows) + "\n"


def render_hedging_csv(trace: HedgingTrace) -> str:
    return _render_csv(HedgingStep._fields, _STEP_ROW, trace.steps)


def render_hedging_json(trace: HedgingTrace) -> str:
    """The game, the run settings, the steps and the summary."""
    payload = {
        **_game_payload(trace.config),
        "max_steps": trace.max_steps,
        "tolerance": float(trace.tolerance),
        "hesitation": HESITATION,
        "steps": trace.steps,
        "summary": _summary_payload(trace.summary),
    }
    return _json_text(payload) + "\n"


def render_frame_csv(frame: FrameReport) -> str:
    """The flags as ``true`` or ``false``, and the witness unquoted as
    ``(u,v,x)``, or empty when there is none."""
    witness = "" if frame.witness is None else "({})".format(",".join(frame.witness))
    return _render_csv(frame._fields, _FRAME_ROW, [(*map(_bool_text, frame[:3]), witness)])


def render_frame_json(frame: FrameReport) -> str:
    return _json_text({**frame._asdict(), "summary": frame.summary()}) + "\n"
