"""Iterated propensity adjustment after a hedged assertion, and its payoff.

Once a hedge reveals that the two sides judge the vague matter differently,
each side repeatedly renormalizes its propensity to take the matching
action against the other's latest value. The recurrence starts from a
committed speaker (propensity 1) and a hesitating listener, whose seed
f(1) = 1/2 is fixed (``HESITATION``), not a setting:

    f(0) = 1,  f(1) = 1/2,  f(n) = f(n-2) / (f(n-1) + f(n-2))

Even indices track the speaker, odd indices the listener. The sequence
does not converge: in doubles, f(n) alternates between 0.5915936234817635
(even n) and 0.4084063765182366 (odd n) from n = 50 on, so every (speaker,
listener) pair from step 51 on is that same pair (checked to step 100000 on
Python 3.11.7). Consecutive pair sums approach 1, and the step-indexed
expected utility never drops below its step-0 value.

``_propensities`` detects that fixed point and stops there, so ``_prefix``
computes at most 53 steps, whatever N (``steps``, in [4, 100000]), and keeps
the summary as running reductions, which a repeated step cannot change.
``run_hedging`` is that prefix plus the repeated tail. Nothing is kept
between calls. Its records are named tuples.

The trace's CSV and JSON text live here too: ``render_hedging_*`` format a
step of a trace only where its values differ from the last step's or hold a
zero, and ``_hedge_text``, the ``hedge`` command's, writes the prefix so and
then the repeated tail from the last step's text.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import islice, repeat

from .params import (
    GAME_RANGES, ROUNDING, GameConfig, check_parameter, expected_utility, integer_range,
)
from .writers import _LIST, _float_fields, _float_texts, _jnum_text, _template

DEFAULT_STEPS = 50
DEFAULT_TOLERANCE = 1e-6
HESITATION = 0.5
_BLOCK = 2048  # repeated steps per piece: about 130 KB of CSV, 320 KB of JSON
# The CSV text of a step's values, which is also their JSON float text.
_STEP_FLOATS = "%.12g,%.12g,%.12g,%.12g"

# Admissible hedging settings, in the form of ``params.GAME_RANGES``.
HEDGING_RANGES = {
    "steps": integer_range(4, 100_000),
    "tolerance": (lambda v: 0.0 < v < math.inf, "positive and finite"),
}


def _propensities():
    """Yield the (speaker, listener) propensities for action a at steps
    n = 0, 1, 2, ...: the recurrence at the largest even and the largest odd
    index up to n. Before any adjustment (n = 0) the listener's is 0, not a
    recurrence value. Stop at a pair that a speaker update and the following
    listener update both leave unchanged, which every later step repeats."""
    speaker, listener = 1.0, 0.0
    yield speaker, listener
    listener = HESITATION
    while True:
        yield speaker, listener
        next_speaker = speaker / (listener + speaker)
        yield next_speaker, listener
        next_listener = listener / (next_speaker + listener)
        if next_speaker == speaker and next_listener == listener:
            return
        speaker, listener = next_speaker, next_listener


class HedgingStep(namedtuple("HedgingStep", "n p_speaker_a p_listener_a eu_a eu_b")):
    """One step of :func:`run_hedging`."""

    __slots__ = ()


class HedgingSummary(namedtuple(
    "HedgingSummary",
    "even_tail odd_tail pair_sum_gap pair_sums_converged pair_sums_descending eu_never_below_step0",
)):
    """Tail diagnostics of a hedging run.

    ``even_tail`` / ``odd_tail`` are the last recurrence values on each
    index parity. ``pair_sum_gap`` is |f(m-1) + f(m) - 1| at the end of the
    run, and ``pair_sums_converged`` whether that gap is within tolerance.
    ``pair_sums_descending`` reports whether consecutive pair sums stay
    at or above 1 and non-increasing from step 3, f(2) + f(3), on.
    ``eu_never_below_step0`` is the monotonicity claim eu^0(x) <= eu^n(x)
    over the recorded steps.
    """

    __slots__ = ()


class HedgingTrace(namedtuple("HedgingTrace", "config max_steps tolerance steps summary")):
    """A :func:`run_hedging` run: its ``GameConfig``, its settings, the
    ``HedgingStep`` tuple for steps 0..max_steps and the ``HedgingSummary``."""

    __slots__ = ()


def _prefix(config: GameConfig, max_steps: int, tolerance: float) -> tuple[list, HedgingSummary]:
    """The steps of :func:`run_hedging` up to ``max_steps`` or to the first
    that repeats its predecessor, whichever comes first, and the summary."""
    check_parameter(HEDGING_RANGES, "steps", max_steps)
    check_parameter(HEDGING_RANGES, "tolerance", tolerance)
    base_a = expected_utility(config, "S", "a")
    base_b = expected_utility(config, "S", "b")
    gamma, new_step = config.gamma, tuple.__new__
    steps = []
    append = steps.append
    # The summary's running reductions: the lowest EUs, whether the pair
    # sums seen from step 3 on stay at or above 1 and do not rise, and the
    # last pair sum. From step 1 on, each step holds the pair f(n-1), f(n).
    low_a = low_b = previous = math.inf
    descending = True
    # Keep this association: the tests compare each EU exactly against a
    # per-step oracle that computes base + gamma * speaker * listener.
    for n, (speaker, listener) in enumerate(islice(_propensities(), max_steps + 1)):
        eu_a = base_a + gamma * speaker * listener
        eu_b = base_b + gamma * (1.0 - speaker) * (1.0 - listener)
        append(new_step(HedgingStep, (n, speaker, listener, eu_a, eu_b)))
        if eu_a < low_a:
            low_a = eu_a
        if eu_b < low_b:
            low_b = eu_b
        pair_sum = speaker + listener
        if n > 2:
            if not 1.0 - ROUNDING <= pair_sum <= previous + ROUNDING:
                descending = False
            previous = pair_sum
    first = steps[0]
    gap = abs(pair_sum - 1.0)
    return steps, HedgingSummary(
        even_tail=speaker,
        odd_tail=listener,
        pair_sum_gap=gap,
        pair_sums_converged=gap <= tolerance,
        pair_sums_descending=descending,
        eu_never_below_step0=low_a >= first.eu_a and low_b >= first.eu_b,
    )


def run_hedging(
    config: GameConfig,
    max_steps: int = DEFAULT_STEPS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> HedgingTrace:
    """Full propensity and expected-utility trace for steps 0..max_steps:
    every step, though those past the fixed point repeat the last computed one."""
    steps, summary = _prefix(config, max_steps, tolerance)
    n, *values = steps[-1]
    steps += map(tuple.__new__, repeat(HedgingStep), zip(
        range(n + 1, max_steps + 1), *map(repeat, values)))
    return HedgingTrace(config, max_steps, tolerance, tuple(steps), summary)


# The fixed blocks are written out; the rest are one slot each.
_HEDGING_JSON = _template({
    **dict.fromkeys((*GAME_RANGES, "max_steps", "tolerance", "hesitation", "steps")),
    "summary": HedgingSummary._fields,
}) + "\n"
# A step, as the JSON's steps list holds it (depth 2).
_HEDGING_STEP_JSON = _template(dict.fromkeys(HedgingStep._fields), 2)


def _step_csv(values: tuple) -> str:
    """The CSV row of a step's values, with a ``%d`` slot for ``n``."""
    return "%d," + _STEP_FLOATS % values


def _step_json(values: tuple) -> str:
    """The JSON object of a step's values, with a ``%d`` slot for ``n``."""
    return _HEDGING_STEP_JSON % ("%d", *_float_texts(_STEP_FLOATS, values, json=True))


def _hedging_pieces(config, max_steps, tolerance, steps, summary, json: bool, tail: bool = False):
    """The text of a trace's fields in pieces that join to the whole: the
    head, one piece per step (its separator and the text of its values,
    filled with its ``n``), then the closing and the tail. With ``tail``, the
    steps after the last one given up to ``max_steps`` repeat its values, and
    are written from its text in blocks of ``_BLOCK`` joined over their ``n``."""
    if json:
        head, end = (_HEDGING_JSON % (
            *_float_fields(config), max_steps, _jnum_text(tolerance),
            _jnum_text(HESITATION), "%s", *_float_fields(summary),
        )).split("%s")
        (opening, separator, closing), template = _LIST[1], _step_json
        closing = closing if steps else "[]"
    else:
        head, end, template = ",".join(HedgingStep._fields), "", _step_csv
        opening = separator = closing = "\n"
    yield head
    lead, last = opening, None  # the first step follows the opening
    for step in steps:
        values = step[1:]
        # A step equal to the last reuses its text, but for 0.0: -0.0 == 0.0
        # and the two print apart.
        if values != last or 0.0 in values:
            text, last = template(values), values
        yield lead + text % step[0]
        lead = separator
    if tail:
        before, after = (separator + text).split("%d")
        joint, stop = after + before, max_steps + 1
        for start in range(len(steps), stop, _BLOCK):
            yield before + joint.join(map(str, range(start, min(start + _BLOCK, stop)))) + after
    yield closing + end


def _hedge_text(delta: float, gamma: float, max_steps: int, tolerance: float, json: bool):
    """The ``hedge`` command's text: the steps up to the fixed point, then
    the rest, which repeat the last, from its text. The prefix is computed,
    and the settings checked, before any text is made."""
    config = GameConfig(delta=delta, gamma=gamma)
    return _hedging_pieces(
        config, max_steps, tolerance, *_prefix(config, max_steps, tolerance), json, tail=True)


def render_hedging_csv(trace: HedgingTrace) -> str:
    return "".join(_hedging_pieces(*trace, json=False))


def render_hedging_json(trace: HedgingTrace) -> str:
    return "".join(_hedging_pieces(*trace, json=True))
