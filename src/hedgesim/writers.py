"""Deterministic CSV, JSON and JSON-lines text for every report hedgesim writes.

CSV uses ``.`` decimals, no grouping and 12 significant digits; JSON carries
the same rounded numbers, so both formats stay byte-stable. One writer,
``_json_text``, lays out every JSON document and JSON line from the
payload's raw values, rounding each float as it writes it.

Each schema is written out here. Every record is a named tuple, and the
``_fields`` of a sweep row, hedging step or frame report are its CSV header
and JSON keys. A hedging step or frame report is itself the value tuple of
its CSV row template, and in JSON one ``%.12g`` template writes a hedging
step's floats. A sweep render formats each value only once (see
``_sweep_lines``), so a row of ``threshold_sweep`` formats two floats. A
``%.12g`` text with a ``.`` and no exponent is already the float's JSON
text; any other float (a whole number, one below 1e-4 or from 1e12 up, or a
non-finite one) is written through ``_jnum_text``, which rejects non-finite
values. A config, region or summary block writes its ``_asdict()``, each
plain ``int`` field as a float and each bool as a bool.

The writers read record fields and need only the record types of ``game``
and ``hedging``, so the ``sweep`` and ``hedge`` commands load neither the
world models, the scenario runner, ``dataclasses`` nor ``typing``.
``scenario_io`` re-exports the report, dialogue, sweep and hedge
``render_*`` functions, which the benchmark reads there; import everything
else from this module.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

from .game import GAME_RANGES, SweepRow
from .hedging import HESITATION, HedgingStep

TYPE_CHECKING = False  # true only for a type checker; ``typing`` stays unloaded
if TYPE_CHECKING:
    from .hedging import HedgingTrace
    from .scenario_io import DialogueStep, RunReport, Scenario
    from .semantics import FrameReport
    from .worlds import WorldModel

# The [game] keys are the GameConfig fields and the [run] keys the Scenario
# fields of the same name, in the order files and reports list them.
_SCENARIO_KEYS = {
    "game": tuple(GAME_RANGES),
    "run": ("speaker", "world", "steps", "tolerance"),
}

# The CSV row of a hedging step and of a frame report, field by field; the
# hedging step's row is also its JSON float text.
_STEP_ROW = "%d,%.12g,%.12g,%.12g,%.12g"
_FRAME_ROW = "%s,%s,%s,%s"
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
            region = encode_basestring_ascii(region)
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
    nesting ``depth``, or with no indent when ``depth`` is None, each float
    as ``_jnum_text``. Dicts have text keys; tuples are lists.

    A list of sweep rows or hedging steps is a list of objects of their
    fields, whose keys and layout are built once per list; it is
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
    elif type(value[0]) in (SweepRow, HedgingStep):
        _, record_opening, record_separator, record_closing = _layout(inner)
        keys = [f"{encode_basestring_ascii(name)}: " for name in value[0]._fields]
        labels = ("{" + record_opening + keys[0], *(record_separator + key for key in keys[1:]))
        end = record_closing + "}"
        if type(value[0]) is SweepRow:
            items = _sweep_lines(value, labels, end, json=True)
        else:
            template = "%s".join((*labels, end))
            items = [template % _step_json(step) for step in value]
    else:
        items = [_json_text(item, inner) for item in value]
    items[0] = brackets[0] + opening + items[0]
    items[-1] += closing + brackets[1]
    return separator.join(items)


def _render_csv(names: tuple[str, ...], row: str, records) -> str:
    """A header of the field names, then ``row % record`` per record."""
    return "\n".join([",".join(names), *[row % record for record in records]]) + "\n"


def _as_floats(record) -> dict:
    """The fields of a game config, region report or hedging summary, each
    plain ``int`` as a float: those records hold no int field, so an int
    there stands for a float. Bools stay bools."""
    return {name: float(v) if type(v) is int else v for name, v in record._asdict().items()}


def scenario_payload(scenario: Scenario) -> dict:
    return {
        "canonical": scenario.canonical,
        "n": scenario.series.n,
        "flips": dict(scenario.series.flips),
        **_as_floats(scenario.config),
        **{name: getattr(scenario, name) for name in _SCENARIO_KEYS["run"]},
        "tolerance": float(scenario.tolerance),
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
        "equilibrium": _as_floats(report.region),
        "hedging": {
            "max_steps": report.hedging.max_steps,
            "tolerance": float(report.hedging.tolerance),
            **_as_floats(report.hedging.summary),
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
    lines = _sweep_lines(rows, _SWEEP_CSV_LABELS, "", json=False)
    return "\n".join([",".join(SweepRow._fields), *lines]) + "\n"


def render_sweep_json(rows: list[SweepRow]) -> str:
    return _json_text(rows) + "\n"


def render_hedging_csv(trace: HedgingTrace) -> str:
    return _render_csv(HedgingStep._fields, _STEP_ROW, trace.steps)


def render_hedging_json(trace: HedgingTrace) -> str:
    """The game, the run settings, the steps and the summary."""
    payload = {
        **_as_floats(trace.config),
        "max_steps": trace.max_steps,
        "tolerance": float(trace.tolerance),
        "hesitation": HESITATION,
        "steps": trace.steps,
        "summary": _as_floats(trace.summary),
    }
    return _json_text(payload) + "\n"


def render_frame_csv(frame: FrameReport) -> str:
    """The flags as ``true`` or ``false``, and the witness unquoted as
    ``(u,v,x)``, or empty when there is none."""
    witness = "" if frame.witness is None else "({})".format(",".join(frame.witness))
    return _render_csv(frame._fields, _FRAME_ROW, [(*map(_bool_text, frame[:3]), witness)])


def render_frame_json(frame: FrameReport) -> str:
    return _json_text({**frame._asdict(), "summary": frame.summary()}) + "\n"
