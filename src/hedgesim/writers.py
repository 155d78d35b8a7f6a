"""Deterministic CSV, JSON and JSON-lines text for every report hedgesim writes.

CSV uses ``.`` decimals, no grouping and 12 significant digits; JSON carries
the same rounded numbers, so both formats stay byte-stable. Sweep rows and
hedging steps are written as JSON straight from each field's text, laid out
exactly as ``json.dumps(indent=2)`` would lay them out; the run report and
the frame report still go through ``json.dumps``.

The writers read record fields and need only the record types of ``game``
and ``hedging``, so the ``sweep`` and ``hedge`` commands load neither the
world models nor the scenario runner. ``scenario_io`` re-exports the
report, dialogue, sweep and hedge ``render_*`` functions, which the
benchmark reads there; import everything else from this module.
"""

from __future__ import annotations

import dataclasses
import json
import math
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Mapping

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
    return format(float(value), ".12g")


def _jnum(value: float) -> float:
    return float(fmt_float(value))


def _jnum_text(value: float) -> str:
    """``repr(_jnum(value))``; like ``_dumps``, reject non-finite values.

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


def _jdist(dist: Mapping[str, float]) -> dict[str, float]:
    return {key: _jnum(value) for key, value in dist.items()}


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _same(value):
    return value


def _bool_text(value: bool) -> str:
    return str(value).lower()


def _witness_csv(witness: tuple[str, ...] | None) -> str:
    return "" if witness is None else "({})".format(",".join(witness))


def _witness_json(witness: tuple[str, ...] | None) -> list[str] | None:
    return None if witness is None else list(witness)


# How a record field is written, keyed by its annotation: (CSV text, JSON
# value, JSON text). The JSON text is what ``_dumps`` writes for the JSON
# value; a list has none, since its layout depends on where it is nested.
_FIELD_FORMATS = {
    "float": (fmt_float, _jnum, _jnum_text),
    "int": (str, _same, str),
    "str": (str, _same, encode_basestring_ascii),
    "bool": (_bool_text, _same, _bool_text),
    "tuple[str, str, str] | None": (_witness_csv, _witness_json, None),
}


@lru_cache(maxsize=None)
def _columns(record_type: type, names: tuple[str, ...] | None) -> tuple:
    """``(name, to_csv, to_json, to_json_text)`` for the named fields of a
    record dataclass, or for all of them in declaration order: a record's
    field list."""
    types = {f.name: f.type for f in dataclasses.fields(record_type)}
    return tuple((name, *_FIELD_FORMATS[types[name]]) for name in names or types)


def _json_record(record, names: tuple[str, ...] | None = None) -> dict:
    return {
        name: to_json(getattr(record, name))
        for name, _, to_json, _ in _columns(type(record), names)
    }


def _json_members(record, names: tuple[str, ...] | None = None, depth: int = 1) -> list[str]:
    """The ``"name": value`` lines of ``_json_record(record, names)`` as
    ``_dumps`` writes them inside an object nested ``depth`` levels deep."""
    pad = "  " * depth
    return [
        f"{pad}{encode_basestring_ascii(name)}: {to_text(getattr(record, name))}"
        for name, _, _, to_text in _columns(type(record), names)
    ]


def _json_object(members: list[str], depth: int) -> str:
    """An object of ``members`` lines whose closing brace sits at ``depth``."""
    return "{\n" + ",\n".join(members) + "\n" + "  " * depth + "}"


def _render_csv(record_type: type, records) -> str:
    """A header of the record's field names, then one row per record."""
    columns = _columns(record_type, None)
    lines = [",".join(name for name, _, _, _ in columns)]
    lines += [
        ",".join([to_csv(getattr(record, name)) for name, to_csv, _, _ in columns])
        for record in records
    ]
    return "\n".join(lines) + "\n"


def _render_json_list(record_type: type, records, *, depth=0, head="", tail="\n") -> str:
    """``head``, then the list ``[_json_record(r) for r in records]`` as
    ``_dumps`` lays it out at nesting ``depth``, then ``tail``.

    Each record is written straight from its fields' JSON text into one
    template, and the whole text is made by a single join, so the only full
    copy of the output is the result.
    """
    if not records:
        return head + "[]" + tail
    columns = _columns(record_type, None)
    pad = "  " * (depth + 1)
    template = pad + _json_object(
        [f"{pad}  {encode_basestring_ascii(name)}: %s" for name, _, _, _ in columns], depth + 1
    )
    items = [
        template % tuple([to_text(getattr(record, name)) for name, _, _, to_text in columns])
        for record in records
    ]
    items[0] = head + "[\n" + items[0]
    items[-1] += "\n" + "  " * depth + "]" + tail
    return ",\n".join(items)


def scenario_payload(scenario: Scenario) -> dict:
    return {
        "canonical": scenario.canonical,
        "n": scenario.series.n,
        "flips": dict(scenario.series.flips),
        **_json_record(scenario.config, _SCENARIO_KEYS["game"]),
        **_json_record(scenario, _SCENARIO_KEYS["run"]),
    }


def model_payload(model: WorldModel) -> dict:
    payload = {
        "agents": list(model.agents),
        "worlds": list(model.worlds),
        "partitions": {
            agent: [list(model.sort_worlds(cell)) for cell in cells]
            for agent, cells in model.partitions.items()
        },
        "valuation": {
            key: list(model.sort_worlds(worlds))
            for key, worlds in model.valuation.items()
        },
    }
    if model.judgments is not None:
        payload["judgments"] = {
            agent: dict(per_world) for agent, per_world in model.judgments.items()
        }
    if model.members is not None:
        payload["members"] = {world: list(states) for world, states in model.members.items()}
    return payload


def _dialogue_record(step: DialogueStep) -> dict:
    return {
        "time": step.time,
        "signal": None if step.signal is None else step.signal.text,
        "live": list(step.live),
        "posterior": _jdist(step.posterior),
    }


def report_payload(report: RunReport) -> dict:
    return {
        "scenario": scenario_payload(report.scenario),
        "model": model_payload(report.model),
        "signal": report.signal.text,
        "dialogue": [_dialogue_record(step) for step in report.dialogue],
        "posterior": _jdist(report.posterior),
        "equilibrium": _json_record(report.region),
        "hedging": {
            **_json_record(report.hedging, ("max_steps", "tolerance")),
            **_json_record(report.hedging.summary),
            "final_eu_a": _jnum(report.hedging.steps[-1].eu_a),
            "final_eu_b": _jnum(report.hedging.steps[-1].eu_b),
        },
        "public_belief": {
            "proposition": list(report.model.sort_worlds(report.public_belief_proposition)),
            "worlds": list(report.model.sort_worlds(report.public_belief_worlds)),
            "holds": report.public_belief,
        },
    }


def render_report_json(report: RunReport) -> str:
    return _dumps(report_payload(report))


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
    return "".join(
        json.dumps(_dialogue_record(step), allow_nan=False) + "\n" for step in report.dialogue
    )


def render_sweep_csv(rows: list[SweepRow]) -> str:
    return _render_csv(SweepRow, rows)


def render_sweep_json(rows: list[SweepRow]) -> str:
    return _render_json_list(SweepRow, rows)


def render_hedging_csv(trace: HedgingTrace) -> str:
    return _render_csv(HedgingStep, trace.steps)


def render_hedging_json(trace: HedgingTrace) -> str:
    """``_dumps`` of the game, the run settings, the steps and the summary."""
    head = [
        *_json_members(trace.config, _SCENARIO_KEYS["game"]),
        *_json_members(trace, ("max_steps", "tolerance", "hesitation")),
        '  "steps": ',
    ]
    summary = _json_object(_json_members(trace.summary, depth=2), 1)
    return _render_json_list(
        HedgingStep,
        trace.steps,
        depth=1,
        head="{\n" + ",\n".join(head),
        tail=f',\n  "summary": {summary}\n}}\n',
    )


def render_frame_csv(frame: FrameReport) -> str:
    return _render_csv(type(frame), [frame])


def render_frame_json(frame: FrameReport) -> str:
    return _dumps({**_json_record(frame), "summary": frame.summary()})
