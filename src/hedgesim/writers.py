"""Deterministic CSV, JSON and JSON-lines text for every report hedgesim writes.

CSV uses ``.`` decimals, no grouping and 12 significant digits; JSON carries
the same rounded numbers, so both formats stay byte-stable. Each JSON object
of fixed keys is a template built once. The blocks whose length varies are
written straight from the records' fields by ``_list`` and ``_object``, with
layouts built once per depth, and joined into the rest in one copy. The
``_fields`` of a sweep row, hedging step or frame report are its CSV header
and JSON keys. A run of hedging steps that hold the same value objects is
written from one template (see ``_step_lines``), and a sweep one chunk per
delta (see ``_sweep_chunks``). A ``%.12g`` text with a ``.`` and no
exponent is already the float's JSON text; any other float goes through
``_jnum_text``, which rejects non-finite values.

The writers need only the record types of ``game`` and ``hedging``, so
``sweep`` and ``hedge`` load neither the world models nor the scenario
runner, and CSV output never loads ``json``.
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

# The CSV text of a hedging step's values, which is also their JSON float text.
_STEP_FLOATS = "%.12g,%.12g,%.12g,%.12g"


def fmt_float(value: float) -> str:
    return "%.12g" % value


def _jnum_text(value: float) -> str:
    """``repr`` of the float rounded to 12 significant digits; reject
    non-finite values, which JSON cannot carry.

    Without an exponent the 12-digit text is already that ``repr`` (at most
    12 significant digits name a single float), short of the ``.0`` a whole
    number gets. Exponents, ``nan`` and ``inf`` take the parse-back path.
    """
    text = "%.12g" % value
    if "e" not in text and "n" not in text:
        return text if "." in text else text + ".0"
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(f"Out of range float values are not JSON compliant: {number!r}")
    return repr(number)


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _quote(text: str) -> str:
    """``text`` as a JSON string. The first call loads ``json``'s encoder,
    which CSV output never needs, and rebinds this name to its C function."""
    global _quote
    from json.encoder import encode_basestring_ascii as _quote
    return _quote(text)


def _sweep_chunks(rows, json: bool):
    """A sweep's text in pieces that join to the whole: one per run of rows
    that hold the same delta object, the first opened and the last closed.
    Each run's delta, each distinct nonzero gamma (0.0 == -0.0, and their
    texts differ) and each region is formatted once per call. ``p_w2``,
    ``eu_a`` and ``eu_b`` reuse the text of the gamma, ``p_w1`` and ``p_w3``
    objects when they are those objects, as in ``threshold_sweep``."""
    lead, separator, closing, (k0, k1, k2, k3, k4, k5, k6, k7, end) = _SWEEP[json]
    text = _jnum_text if json else fmt_float
    memo, tails, lines = {}, {}, []
    last_delta = object()
    for delta, gamma, p_w1, p_w2, p_w3, eu_a, eu_b, region in rows:
        if delta is not last_delta:
            if lines:
                lines[0] = lead + lines[0]
                yield separator.join(lines)
                lines, lead = [], separator
            last_delta, head = delta, k0 + text(delta) + k1
        g = memo.get(gamma) if gamma else text(gamma)
        if g is None:
            g = memo[gamma] = text(gamma)
        w1, w3 = "%.12g" % p_w1, "%.12g" % p_w3
        if json and ("." not in w1 or "e" in w1 or "." not in w3 or "e" in w3):
            w1, w3 = _jnum_text(p_w1), _jnum_text(p_w3)
        w2 = g if p_w2 is gamma else text(p_w2)
        a = w1 if eu_a is p_w1 else text(eu_a)
        b = w3 if eu_b is p_w3 else text(eu_b)
        tail = tails.get(region) or tails.setdefault(
            region, f"{k7}{_quote(region) if json else region}{end}")
        lines.append(f"{head}{g}{k2}{w1}{k3}{w2}{k4}{w3}{k5}{a}{k6}{b}{tail}")
    if not lines:
        yield "[]\n" if json else lead
        return
    lines[0] = lead + lines[0]
    lines[-1] += closing
    yield separator.join(lines)


def _step_csv(values: tuple) -> str:
    """The CSV row of a hedging step's values, with a ``%d`` slot for ``n``."""
    return "%d," + _STEP_FLOATS % values


def _step_json(values: tuple) -> str:
    """The JSON object of a hedging step's values, with a ``%d`` slot for
    ``n``: its floats from one ``%.12g`` pass when that text is their
    ``_jnum_text``, that is when it has no exponent and a ``.`` in every
    number (``nan`` and ``inf`` have none), else float by float."""
    numbers = _STEP_FLOATS % values
    if "e" in numbers or numbers.count(".") != 4:
        return _HEDGING_STEP_JSON % ("%d", *map(_jnum_text, values))
    return _HEDGING_STEP_JSON % ("%d", *numbers.split(","))


def _step_lines(steps, template) -> list[str]:
    """Each hedging step's text: the ``template`` of its values, built once
    per run of steps that hold the same value objects, filled with its
    ``n``. A run goes by identity, not equality: 0.0 == -0.0, and their
    texts differ."""
    lines = []
    append = lines.append
    speaker = listener = eu_a = eu_b = object()  # held by no step
    for n, p, q, a, b in steps:
        if p is not speaker or q is not listener or a is not eu_a or b is not eu_b:
            speaker, listener, eu_a, eu_b = p, q, a, b
            text = template((p, q, a, b))
        append(text % n)
    return lines


def _layouts(left: str, right: str) -> dict:
    """(opening, separator, closing) of a list or object at each nesting depth
    (the report nests four deep) as ``json.dumps`` writes it with ``indent=2``;
    ``None`` is one line."""
    indent = ["\n" + "  " * depth for depth in range(6)]
    return {None: (left, ", ", right)} | {
        d: (left + indent[d + 1], "," + indent[d + 1], indent[d] + right) for d in range(5)}


_LIST, _OBJECT = _layouts("[", "]"), _layouts("{", "}")


def _list(texts: list[str], depth: int | None, layouts: dict = _LIST,
          head: str = "", tail: str = "") -> str:
    """``texts`` as a JSON list, or object with ``_OBJECT``, at ``depth``, between
    ``head`` and ``tail``. All ride on the end items: the join is the only copy."""
    opening, separator, closing = layouts[depth]
    if not texts:
        return head + opening[0] + closing[-1] + tail
    texts[0] = head + opening + texts[0]
    texts[-1] += closing + tail
    return separator.join(texts)


def _object(keys, texts, depth: int | None) -> str:
    """A JSON object of the text ``keys`` and their value ``texts``."""
    return _list([f"{_quote(key)}: {text}" for key, text in zip(keys, texts)], depth, _OBJECT)


def _template(blocks: dict, depth: int | None = 0) -> str:
    """A JSON object at nesting ``depth``: a ``%s`` slot for a value of None, an
    object of slots for a tuple of field names. A field name quoted is its JSON."""
    items = [
        f'"{key}": ' + ("%s" if fields is None else _template(dict.fromkeys(fields), depth + 1))
        for key, fields in blocks.items()
    ]
    return _list(items, depth, _OBJECT)


def _float_fields(record) -> list[str]:
    """The JSON text of each field of a game config, region report or hedging
    summary: they hold no int field, so any value but a bool or text is a float."""
    return [
        _bool_text(v) if type(v) is bool else _quote(v) if type(v) is str else _jnum_text(v)
        for v in record
    ]


# The fixed blocks are written out; the rest are one slot each.
_REPORT_JSON = _template({
    "scenario": ("canonical", "n", "flips", *_SCENARIO_KEYS["game"], *_SCENARIO_KEYS["run"]),
    **dict.fromkeys(("model", "signal", "dialogue", "posterior")),
    "equilibrium": RegionReport._fields,
    "hedging": ("max_steps", "tolerance", *HedgingSummary._fields, "final_eu_a", "final_eu_b"),
    "public_belief": ("proposition", "worlds", "holds"),
}) + "\n"
# The hedging JSON, cut after its "steps" key.
_HEDGING_HEAD, _HEDGING_TAIL = (_template({
    **dict.fromkeys((*GAME_RANGES, "max_steps", "tolerance", "hesitation", "steps")),
    "summary": HedgingSummary._fields,
}) + "\n").split('"steps": %s')
_HEDGING_HEAD += '"steps": '
_FRAME_JSON = _template(dict.fromkeys(
    ("reflexive", "symmetric", "transitive", "witness", "summary"))) + "\n"
# A hedging step, and a dialogue step in the report (depth 2) and as a JSON
# line (None).
_HEDGING_STEP_JSON = _template(dict.fromkeys(HedgingStep._fields), 2)
# By ``json``: what opens, separates and closes sweep rows; a row's field labels.
_SWEEP = {
    False: (",".join(SweepRow._fields) + "\n", "\n", "\n", ("",) + (",",) * 7 + ("",)),
    True: (*_LIST[0][:2], _LIST[0][2] + "\n",
           _template(dict.fromkeys(SweepRow._fields), 1).split("%s")),
}
_DIALOGUE_JSON = {d: _template(dict.fromkeys(("time", "signal", "live", "posterior")), d)
                  for d in (2, None)}


def _worlds_json(model: WorldModel, worlds, depth: int | None) -> str:
    """A world subset as a JSON list in the model's world order."""
    return _list([_quote(w) for w in model.worlds if w in worlds], depth)


def _model_json(model: WorldModel) -> str:
    """The model block, with the pooling provenance it has."""
    blocks = {
        "agents": _list(list(map(_quote, model.agents)), 2),
        "worlds": _list(list(map(_quote, model.worlds)), 2),
        "partitions": _object(model.partitions, [
            _list([_worlds_json(model, cell, 4) for cell in cells], 3)
            for cells in model.partitions.values()
        ], 2),
        "valuation": _object(model.valuation, [
            _worlds_json(model, worlds, 3) for worlds in model.valuation.values()
        ], 2),
    }
    if model.judgments is not None:
        blocks["judgments"] = _object(model.judgments, [
            _object(judged, map(_quote, judged.values()), 3)
            for judged in model.judgments.values()
        ], 2)
    if model.members is not None:
        blocks["members"] = _object(model.members, [
            _list(list(map(str, states)), 3) for states in model.members.values()
        ], 2)
    return _object(blocks, blocks.values(), 1)


def _dialogue_json(step: DialogueStep, depth: int | None) -> str:
    """A dialogue step as a JSON object at nesting ``depth``; ``None`` is one line."""
    inner = None if depth is None else depth + 1
    return _DIALOGUE_JSON[depth] % (
        step.time, "null" if step.signal is None else _quote(step.signal.text),
        _list(list(map(_quote, step.live)), inner),
        _object(step.posterior, map(_jnum_text, step.posterior.values()), inner),
    )


def render_report_json(report: RunReport) -> str:
    scenario, model, hedging = report.scenario, report.model, report.hedging
    flips, posterior, last = scenario.series.flips, report.posterior, hedging.steps[-1]
    return _REPORT_JSON % (
        _bool_text(scenario.canonical), scenario.series.n,
        _object(flips, map(str, flips.values()), 2), *_float_fields(scenario.config),
        _quote(scenario.speaker), _quote(scenario.world), scenario.steps,
        _jnum_text(scenario.tolerance),
        _model_json(model),
        _quote(report.signal.text),
        _list([_dialogue_json(step, 2) for step in report.dialogue], 1),
        _object(posterior, map(_jnum_text, posterior.values()), 1),
        *_float_fields(report.region),
        hedging.max_steps, _jnum_text(hedging.tolerance),
        *_float_fields(hedging.summary), _jnum_text(last.eu_a), _jnum_text(last.eu_b),
        _worlds_json(model, report.public_belief_proposition, 2),
        _worlds_json(model, report.public_belief_worlds, 2),
        _bool_text(report.public_belief),
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
    return "".join(_dialogue_json(step, None) + "\n" for step in report.dialogue)


def render_sweep_csv(rows: list[SweepRow]) -> str:
    return "".join(_sweep_chunks(rows, json=False))


def render_sweep_json(rows: list[SweepRow]) -> str:
    return "".join(_sweep_chunks(rows, json=True))


def render_hedging_csv(trace: HedgingTrace) -> str:
    # The empty last line ends the text with a newline without copying it.
    return "\n".join([",".join(HedgingStep._fields), *_step_lines(trace.steps, _step_csv), ""])


def render_hedging_json(trace: HedgingTrace) -> str:
    """The game, the run settings, the steps and the summary, joined in one copy."""
    head = _HEDGING_HEAD % (*_float_fields(trace.config), trace.max_steps,
                            _jnum_text(trace.tolerance), _jnum_text(HESITATION))
    tail = _HEDGING_TAIL % tuple(_float_fields(trace.summary))
    return _list(_step_lines(trace.steps, _step_json), 1, head=head, tail=tail)


def render_frame_csv(frame: FrameReport) -> str:
    """The flags as ``true`` or ``false``, and the witness unquoted as
    ``(u,v,x)``, or empty when there is none."""
    witness = "" if frame.witness is None else "({})".format(",".join(frame.witness))
    return ",".join(frame._fields) + "\n" + ",".join((*map(_bool_text, frame[:3]), witness)) + "\n"


def render_frame_json(frame: FrameReport) -> str:
    witness = "null" if frame.witness is None else _list(list(map(_quote, frame.witness)), 1)
    return _FRAME_JSON % (*map(_bool_text, frame[:3]), witness, _quote(frame.summary()))
