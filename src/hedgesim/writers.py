"""Deterministic CSV, JSON and JSON-lines text for every report hedgesim writes.

CSV uses ``.`` decimals, no grouping and 12 significant digits; JSON carries
the same rounded numbers, so both formats stay byte-stable. One writer,
``_json_text``, lays out every JSON document and JSON line from the
payload's raw values, rounding each float as it writes it.

A record (a sweep row, a hedging step or a frame report) is a named tuple,
so the record itself is the value tuple of one ``%`` operation on a
template cached per record type. Its CSV row is the fields through
``%.12g``, ``%d`` or ``%s``. For a JSON record, one ``%.12g`` pass writes
every float field, and that text is used as it is when each number has a
``.`` and no exponent: such text is already the float's JSON text. A record
with any other float (a whole number, one below 1e-5 or from 1e12 up, or a
non-finite one) is written field by field through ``_jnum_text``, which
rejects non-finite values.

The writers read record fields and need only the record types of ``game``
and ``hedging``, so the ``sweep`` and ``hedge`` commands load neither the
world models nor the scenario runner. ``scenario_io`` re-exports the
report, dialogue, sweep and hedge ``render_*`` functions, which the
benchmark reads there; import everything else from this module.
"""

from __future__ import annotations

import math
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, NamedTuple, get_type_hints

from .game import GAME_RANGES, SweepRow
from .hedging import HedgingStep, HedgingTrace

if TYPE_CHECKING:
    from .scenario_io import DialogueStep, RunReport, Scenario
    from .semantics import FrameReport
    from .worlds import WorldModel

# The [game] keys are the GameConfig fields and the [run] keys the Scenario
# fields of the same name, in the order files and reports list them.
_SCENARIO_KEYS = {
    "game": tuple(GAME_RANGES),
    "run": ("speaker", "world", "steps", "tolerance"),
}


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


def _witness_csv(witness: tuple[str, ...] | None) -> str:
    return "" if witness is None else "({})".format(",".join(witness))


# How a record field is written, keyed by its evaluated annotation: (CSV
# directive, CSV text the directive is given instead of the value, JSON
# text). A list has no JSON text, since its layout depends on its nesting.
_FIELD_FORMATS = {
    float: ("%.12g", None, _jnum_text),
    int: ("%d", None, str),
    str: ("%s", None, encode_basestring_ascii),
    bool: ("%s", _bool_text, _bool_text),
    tuple[str, str, str] | None: ("%s", _witness_csv, None),
}


# Each field's evaluated annotation, in declaration order, per named tuple or
# dataclass: the same types on every supported Python, whether a class holds
# its annotations as text, as forward references or lazily.
_kinds = lru_cache(maxsize=None)(get_type_hints)


class _Plan(NamedTuple):
    """How the records of one named-tuple type are written."""

    names: tuple[str, ...]
    csv_row: str
    to_csv: tuple  # (position, CSV text) for the fields ``csv_row`` cannot write
    floats: str  # a ``%.12g`` per float field, ``%.0s`` (nothing) per other one
    float_count: int
    to_json: tuple  # JSON text of each field
    others: tuple  # (position, JSON text) for the fields that are not floats


@lru_cache(maxsize=None)
def _columns(record_type: type) -> _Plan:
    """The cached write plan of a record type: its field list."""
    kinds = _kinds(record_type)
    formats = [_FIELD_FORMATS[kinds[name]] for name in record_type._fields]
    directives = [directive for directive, _, _ in formats]
    return _Plan(
        names=record_type._fields,
        csv_row=",".join(directives),
        to_csv=tuple((i, to_csv) for i, (_, to_csv, _) in enumerate(formats) if to_csv),
        floats=",".join(d if d == "%.12g" else "%.0s" for d in directives),
        float_count=directives.count("%.12g"),
        to_json=tuple(to_json for _, _, to_json in formats),
        others=tuple((i, to_json) for i, (d, _, to_json) in enumerate(formats) if d != "%.12g"),
    )


def _fields(record, names: tuple[str, ...] | None = None) -> dict:
    """The named fields of a dataclass or named tuple, or all of them in
    order; a ``float`` field given an int is written as a float."""
    kinds = _kinds(type(record))
    return {
        name: float(getattr(record, name)) if kinds[name] is float else getattr(record, name)
        for name in names or kinds
    }


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

    A list of records (named tuples) is a list of objects of their fields,
    written through one ``%``-template built per list; it is recognised
    before a tuple is taken for a list. The brackets ride on
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
    elif hasattr(value[0], "_fields"):
        plan = _columns(type(value[0]))
        _, record_opening, record_separator, record_closing = _layout(inner)
        members = [f"{encode_basestring_ascii(name)}: %s" for name in plan.names]
        template = "{" + record_opening + record_separator.join(members) + record_closing + "}"
        items = [template % _json_values(plan, record) for record in value]
    else:
        items = [_json_text(item, inner) for item in value]
    items[0] = brackets[0] + opening + items[0]
    items[-1] += closing + brackets[1]
    return separator.join(items)


def _json_values(plan: _Plan, record: tuple) -> tuple:
    """The JSON text of a record's field values: its floats from one
    ``%.12g`` pass when that text is their ``_jnum_text``, that is when it
    has no exponent and a ``.`` in every number (``nan`` and ``inf`` have
    none), else field by field."""
    numbers = plan.floats % record
    if "e" in numbers or numbers.count(".") != plan.float_count:
        return tuple([to_text(item) for to_text, item in zip(plan.to_json, record)])
    return _replaced(numbers.split(","), plan.others, record)


def _replaced(texts: list, converters: tuple, values: tuple) -> tuple:
    """``texts`` with ``convert(values[i])`` at each ``(i, convert)``."""
    for i, convert in converters:
        texts[i] = convert(values[i])
    return tuple(texts)


def _render_csv(record_type: type, records) -> str:
    """A header of the record's field names, then one row per record."""
    plan = _columns(record_type)
    if plan.to_csv:
        records = [_replaced(list(record), plan.to_csv, record) for record in records]
    return "\n".join([",".join(plan.names), *[plan.csv_row % record for record in records]]) + "\n"


def scenario_payload(scenario: Scenario) -> dict:
    return {
        "canonical": scenario.canonical,
        "n": scenario.series.n,
        "flips": dict(scenario.series.flips),
        **_fields(scenario.config, _SCENARIO_KEYS["game"]),
        **_fields(scenario, _SCENARIO_KEYS["run"]),
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
        "equilibrium": _fields(report.region),
        "hedging": {
            **_fields(report.hedging, ("max_steps", "tolerance")),
            **_fields(report.hedging.summary),
            "final_eu_a": report.hedging.steps[-1].eu_a,
            "final_eu_b": report.hedging.steps[-1].eu_b,
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
    return _render_csv(SweepRow, rows)


def render_sweep_json(rows: list[SweepRow]) -> str:
    return _json_text(rows) + "\n"


def render_hedging_csv(trace: HedgingTrace) -> str:
    return _render_csv(HedgingStep, trace.steps)


def render_hedging_json(trace: HedgingTrace) -> str:
    """The game, the run settings, the steps and the summary."""
    payload = {
        **_fields(trace.config, _SCENARIO_KEYS["game"]),
        **_fields(trace, ("max_steps", "tolerance", "hesitation")),
        "steps": trace.steps,
        "summary": _fields(trace.summary),
    }
    return _json_text(payload) + "\n"


def render_frame_csv(frame: FrameReport) -> str:
    return _render_csv(type(frame), [frame])


def render_frame_json(frame: FrameReport) -> str:
    return _json_text({**_fields(frame), "summary": frame.summary()}) + "\n"
