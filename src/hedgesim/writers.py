"""Deterministic CSV and JSON text for the sweep and hedging reports, and the
JSON layout every report shares.

CSV uses ``.`` decimals, no grouping and 12 significant digits; JSON carries
the same rounded numbers, so both formats stay byte-stable. Each JSON object
of fixed keys is a template built once (``_template``) and filled once;
``_list`` writes the blocks whose length varies. A row's or step's
``_fields`` are its CSV header and JSON keys. The CLI writes a sweep one chunk
per delta (``_sweep_chunks``), and a hedging trace one piece per computed step
and then its repeated tail in blocks (``_hedging_pieces``). A ``%.12g`` text
with a ``.`` and no exponent is already the float's JSON text; ``_jnum_text``
writes any other float and rejects non-finite ones.

Only the records of ``params`` and ``hedging`` are needed, and CSV output never
loads ``json``. The report, dialogue and frame writers live in ``scenario_io``.
"""

from __future__ import annotations

import math

from .hedging import HESITATION, HedgingStep, HedgingSummary, HedgingTrace
from .params import GAME_RANGES, SweepRow

_BLOCK = 2048  # repeated hedging steps per piece: about 130 KB of CSV, 320 KB of JSON
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


def _hedging_pieces(trace: HedgingTrace, json: bool, tail: bool = False):
    """A hedging trace's text in pieces that join to the whole: the head, one
    piece per step (its separator and the text of its values, filled with its
    ``n``), then the closing and the tail. With ``tail``, the steps after the
    trace's last one up to ``max_steps`` repeat its values, and are written
    from its text in blocks of ``_BLOCK`` joined over their ``n``."""
    if json:
        head, end = (_HEDGING_JSON % (
            *_float_fields(trace.config), trace.max_steps, _jnum_text(trace.tolerance),
            _jnum_text(HESITATION), "%s", *_float_fields(trace.summary),
        )).split("%s")
        (opening, separator, closing), template = _LIST[1], _step_json
        closing = closing if trace.steps else "[]"
    else:
        head, end, template = ",".join(HedgingStep._fields), "", _step_csv
        opening = separator = closing = "\n"
    yield head
    lead = opening  # the first step follows the opening
    for step in trace.steps:
        text = template(step[1:])
        yield lead + text % step[0]
        lead = separator
    if tail:
        before, after = (separator + text).split("%d")
        joint, stop = after + before, trace.max_steps + 1
        for start in range(len(trace.steps), stop, _BLOCK):
            yield before + joint.join(map(str, range(start, min(start + _BLOCK, stop)))) + after
    yield closing + end


def _layouts(left: str, right: str) -> dict:
    """(opening, separator, closing) of a list or object at each nesting depth
    (the report nests four deep) as ``json.dumps`` writes it with ``indent=2``;
    ``None`` is one line."""
    indent = ["\n" + "  " * depth for depth in range(6)]
    return {None: (left, ", ", right)} | {
        d: (left + indent[d + 1], "," + indent[d + 1], indent[d] + right) for d in range(5)}


_LIST, _OBJECT = _layouts("[", "]"), _layouts("{", "}")


def _list(texts: list[str], depth: int | None, layouts: dict = _LIST) -> str:
    """``texts`` as a JSON list, or object with ``_OBJECT``, at ``depth``. The
    brackets ride on the end items: the join is the only copy."""
    opening, separator, closing = layouts[depth]
    if not texts:
        return opening[0] + closing[-1]
    texts[0] = opening + texts[0]
    texts[-1] += closing
    return separator.join(texts)


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
_HEDGING_JSON = _template({
    **dict.fromkeys((*GAME_RANGES, "max_steps", "tolerance", "hesitation", "steps")),
    "summary": HedgingSummary._fields,
}) + "\n"
# A hedging step, as the hedging JSON's steps list holds it (depth 2).
_HEDGING_STEP_JSON = _template(dict.fromkeys(HedgingStep._fields), 2)
# By ``json``: what opens, separates and closes sweep rows; a row's field labels.
_SWEEP = {
    False: (",".join(SweepRow._fields) + "\n", "\n", "\n", ("",) + (",",) * 7 + ("",)),
    True: (*_LIST[0][:2], _LIST[0][2] + "\n",
           _template(dict.fromkeys(SweepRow._fields), 1).split("%s")),
}


def render_sweep_csv(rows: list[SweepRow]) -> str:
    return "".join(_sweep_chunks(rows, json=False))


def render_sweep_json(rows: list[SweepRow]) -> str:
    return "".join(_sweep_chunks(rows, json=True))


def render_hedging_csv(trace: HedgingTrace) -> str:
    return "".join(_hedging_pieces(trace, json=False))


def render_hedging_json(trace: HedgingTrace) -> str:
    return "".join(_hedging_pieces(trace, json=True))


