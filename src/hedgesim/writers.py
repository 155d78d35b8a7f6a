"""The number text and JSON layout that the sweep, hedging and report writers
share; each writer lives beside the code that computes what it writes.

``fmt_float`` is the CSV text of a float: ``.`` decimals, no grouping and 12
significant digits. ``_jnum_text`` is JSON's, of the same rounded number, so
both formats stay byte-stable. A JSON object of fixed keys is a template built
once (``_template``) and filled once; ``_list`` writes the blocks whose length
varies, with the layout ``json.dumps`` gives at ``indent=2``. This module
imports nothing from the package, and nothing that CSV output needs loads
``json``.
"""

from __future__ import annotations

import math


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
    which CSV output never needs, and rebinds this name to its C function;
    a caller that calls it often reads it as ``writers._quote``."""
    global _quote
    from json.encoder import encode_basestring_ascii as _quote
    return _quote(text)


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
