"""Deterministic CSV, JSON and JSON-lines text for every report hedgesim writes.

CSV uses ``.`` decimals, no grouping and 12 significant digits; JSON carries
the same rounded numbers, so both formats stay byte-stable. A run report or
hedging run is one JSON template, built once with the records' fields as its
keys. ``_json_text`` lays out the blocks whose shape varies, writing each
scalar from a table keyed by its type and rounding each float as it goes.

Every record is a named tuple, and the ``_fields`` of a sweep row, hedging
step or frame report are its CSV header and JSON keys. A hedging step or
frame report is itself the value tuple of its CSV row template, and in JSON
one ``%.12g`` template writes a hedging step's floats. A sweep render formats
each value only once (see ``_sweep_lines``). A ``%.12g`` text with a ``.``
and no exponent is already the float's JSON text; any other float is written
through ``_jnum_text``, which rejects non-finite values.

The writers need only the record types of ``game`` and ``hedging``, so
``sweep`` and ``hedge`` load neither the world models, the scenario runner,
``dataclasses`` nor ``typing``, and CSV output never loads ``json``.
``scenario_io`` re-exports the writers the benchmark reads there.
"""

from __future__ import annotations

import math

from .game import GAME_RANGES, RegionReport, SweepRow
from .hedging import HESITATION, HedgingStep, HedgingSummary

TYPE_CHECKING = False  # true only for a type checker; ``typing`` stays unloaded
if TYPE_CHECKING:
    from .hedging import HedgingTrace
    from .scenario_io import DialogueStep, RunReport
    from .semantics import FrameReport
    from .worlds import WorldModel

# The [game] keys are the GameConfig fields and the [run] keys the Scenario
# fields of the same name, in the order files and reports list them.
_SCENARIO_KEYS = {"game": tuple(GAME_RANGES), "run": ("speaker", "world", "steps", "tolerance")}

# The CSV row of a hedging step, field by field, which is also its JSON float text.
_STEP_ROW = "%d,%.12g,%.12g,%.12g,%.12g"
# The text before each field of a sweep's CSV row.
_SWEEP_CSV_LABELS = ("",) + (",",) * 7


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


def _quote(text: str) -> str:
    """``text`` as a JSON string. The first call loads ``json``'s encoder, which
    CSV output never needs, and puts its C function here and in ``_SCALAR_TEXT``."""
    global _quote
    from json.encoder import encode_basestring_ascii as _quote
    _SCALAR_TEXT[str] = _quote
    return _quote(text)


# The JSON text of each scalar type; ``_json_text`` writes a subclass as its base type.
_SCALAR_TEXT = {str: _quote, float: _jnum_text, int: int.__repr__, bool: _bool_text,
                type(None): lambda _: "null"}


def _number_text(value: float, json: bool) -> str:
    """``value``'s ``%.12g`` text, or with ``json`` its ``_jnum_text``,
    which differs only for a text with an exponent or no ``.``."""
    text = "%.12g" % value
    if json and ("e" in text or "." not in text):
        return _jnum_text(value)
    return text


def _sweep_lines(rows, labels: tuple, end: str, json: bool) -> list[str]:
    """Each sweep row's text: each field's label, then its value's text,
    then ``end``; JSON text (a quoted region) with ``json``.

    A delta is formatted once per run of rows that hold it, so once per
    delta in delta-major order, and each distinct nonzero gamma once per
    call: the memo holds only gammas, keyed by value, and zeros skip it
    because 0.0 and -0.0 are equal keys with different texts. ``p_w2``,
    ``eu_a`` and ``eu_b`` reuse the text of the gamma, ``p_w1`` and
    ``p_w3`` objects when they are those objects, as in ``threshold_sweep``.
    """
    k0, k1, k2, k3, k4, k5, k6, k7 = labels
    lines = []
    memo = {}
    last_delta = object()
    for delta, gamma, p_w1, p_w2, p_w3, eu_a, eu_b, region in rows:
        if delta is not last_delta:
            last_delta, d = delta, _number_text(delta, json)
        g = memo.get(gamma) if gamma else None
        if g is None:
            g = _number_text(gamma, json)
            if gamma:
                memo[gamma] = g
        w1, w3 = _number_text(p_w1, json), _number_text(p_w3, json)
        if json:
            region = _quote(region)
        w2 = g if p_w2 is gamma else _number_text(p_w2, json)
        a = w1 if eu_a is p_w1 else _number_text(eu_a, json)
        b = w3 if eu_b is p_w3 else _number_text(eu_b, json)
        lines.append(f"{k0}{d}{k1}{g}{k2}{w1}{k3}{w2}{k4}{w3}{k5}{a}{k6}{b}{k7}{region}{end}")
    return lines


def _step_json(step: HedgingStep) -> tuple:
    """The JSON text of a hedging step's values: its floats from one
    ``%.12g`` pass when that text is their ``_jnum_text``, that is when it
    has no exponent and a ``.`` in every number (``nan`` and ``inf`` have
    none), else float by float."""
    numbers = _STEP_ROW % step
    if "e" in numbers or numbers.count(".") != 4:
        return (str(step.n), *map(_jnum_text, step[1:]))
    return tuple(numbers.split(","))


def _layout(depth: int | None) -> tuple:
    """(inner depth, opening, separator, closing) around the items of a
    non-empty list or object at nesting ``depth``; ``None`` is one line."""
    if depth is None:
        return None, "", ", ", ""
    indent = "\n" + "  " * (depth + 1)
    return depth + 1, indent, "," + indent, "\n" + "  " * depth


def _json_text(value, depth: int | None = 0) -> str:
    """``value`` as the standard JSON encoder writes it with ``indent=2`` at
    nesting ``depth``, or on one line when ``depth`` is None, each float as
    ``_jnum_text``. Dicts have text keys; tuples are lists. Scalar items are
    written in place from ``_SCALAR_TEXT``; only containers recurse. A list
    of sweep rows or hedging steps fills one object template per record. The
    brackets ride on the first and last items, so the join is the only full
    copy of the text.
    """
    scalars = _SCALAR_TEXT
    text = scalars.get(type(value))
    if text is not None:
        return text(value)
    if not isinstance(value, (dict, list, tuple)):
        for kind in (str, int, float):
            if isinstance(value, kind):
                return scalars[kind](value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    if not value:
        return brackets
    inner, opening, separator, closing = _layout(depth)
    if brackets == "{}":
        items = [
            f"{_quote(key)}: "
            + (text(item) if (text := scalars.get(type(item))) else _json_text(item, inner))
            for key, item in value.items()
        ]
    elif type(value[0]) in (SweepRow, HedgingStep):
        template = _template(dict.fromkeys(value[0]._fields), inner)
        if type(value[0]) is SweepRow:
            *labels, end = template.split("%s")
            items = _sweep_lines(value, labels, end, json=True)
        else:
            items = [template % _step_json(step) for step in value]
    else:
        items = [
            text(item) if (text := scalars.get(type(item))) else _json_text(item, inner)
            for item in value
        ]
    items[0] = brackets[0] + opening + items[0]
    items[-1] += closing + brackets[1]
    return separator.join(items)


def _template(blocks: dict, depth: int = 0) -> str:
    """A JSON object at nesting ``depth``: a ``%s`` slot for a value of None, an
    object of slots for a tuple of field names. A field name quoted is its JSON."""
    _, opening, separator, closing = _layout(depth)
    items = (
        f'"{key}": ' + ("%s" if fields is None else _template(dict.fromkeys(fields), depth + 1))
        for key, fields in blocks.items()
    )
    return "{" + opening + separator.join(items) + closing + "}"


def _float_fields(record) -> list[str]:
    """The JSON text of each field of a game config, region report or hedging
    summary: they hold no int field, so a plain ``int`` there stands for a float."""
    scalars = _SCALAR_TEXT
    return [(_jnum_text if type(v) is int else scalars.get(type(v), _json_text))(v) for v in record]


# The fixed blocks are written out; the rest are one slot each.
_REPORT_JSON = _template({
    "scenario": ("canonical", "n", "flips", *_SCENARIO_KEYS["game"], *_SCENARIO_KEYS["run"]),
    **dict.fromkeys(("model", "signal", "dialogue", "posterior")),
    "equilibrium": RegionReport._fields,
    "hedging": ("max_steps", "tolerance", *HedgingSummary._fields, "final_eu_a", "final_eu_b"),
    "public_belief": ("proposition", "worlds", "holds"),
}) + "\n"
_HEDGING_JSON = _template({
    **dict.fromkeys((*GAME_RANGES, "max_steps", "tolerance", "hesitation", "steps")),
    "summary": HedgingSummary._fields,
}) + "\n"


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
        payload["judgments"] = {agent: dict(worlds) for agent, worlds in model.judgments.items()}
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


def render_report_json(report: RunReport) -> str:
    scenario, model, hedging = report.scenario, report.model, report.hedging
    last = hedging.steps[-1]
    return _REPORT_JSON % (
        _json_text(scenario.canonical), _json_text(scenario.series.n),
        _json_text(dict(scenario.series.flips), 2), *_float_fields(scenario.config),
        _json_text(scenario.speaker), _json_text(scenario.world), _json_text(scenario.steps),
        _jnum_text(scenario.tolerance),
        _json_text(model_payload(model), 1),
        _json_text(report.signal.text),
        _json_text([_dialogue_record(step) for step in report.dialogue], 1),
        _json_text(dict(report.posterior), 1),
        *_float_fields(report.region),
        _json_text(hedging.max_steps), _jnum_text(hedging.tolerance),
        *_float_fields(hedging.summary), _jnum_text(last.eu_a), _jnum_text(last.eu_b),
        _json_text(model.sort_worlds(report.public_belief_proposition), 2),
        _json_text(model.sort_worlds(report.public_belief_worlds), 2),
        _json_text(report.public_belief),
    )


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
    lines = _sweep_lines(rows, _SWEEP_CSV_LABELS, "", json=False)
    return "\n".join([",".join(SweepRow._fields), *lines]) + "\n"


def render_sweep_json(rows: list[SweepRow]) -> str:
    return _json_text(rows) + "\n"


def render_hedging_csv(trace: HedgingTrace) -> str:
    lines = [_STEP_ROW % step for step in trace.steps]
    return "\n".join([",".join(HedgingStep._fields), *lines]) + "\n"


def render_hedging_json(trace: HedgingTrace) -> str:
    """The game, the run settings, the steps and the summary."""
    return _HEDGING_JSON % (
        *_float_fields(trace.config), _json_text(trace.max_steps), _jnum_text(trace.tolerance),
        _jnum_text(HESITATION), _json_text(trace.steps, 1), *_float_fields(trace.summary),
    )


def render_frame_csv(frame: FrameReport) -> str:
    """The flags as ``true`` or ``false``, and the witness unquoted as
    ``(u,v,x)``, or empty when there is none."""
    witness = "" if frame.witness is None else "({})".format(",".join(frame.witness))
    return ",".join(frame._fields) + "\n" + ",".join((*map(_bool_text, frame[:3]), witness)) + "\n"


def render_frame_json(frame: FrameReport) -> str:
    return _json_text({**frame._asdict(), "summary": frame.summary()}) + "\n"
