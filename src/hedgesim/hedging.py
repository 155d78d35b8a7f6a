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
listener) pair from step 51 on is that same pair. Consecutive pair sums
approach 1, and the step-indexed expected utility never drops below its
step-0 value.

The recurrence has no parameter, so its path to that pair is a constant of
the model: ``_PAIRS``, at most 53 pairs, computed once at import. So is the
summary of each prefix of it: ``_SUMMARY`` holds one row per prefix, and
``run_hedging`` costs the same for every N (``steps``, in [4, 100000]): it
reads row min(N, 52) and builds no step. A trace holds no step either; any
step is read from the constant pairs. Step n's EUs are base + gamma * s * l
and base' + gamma * (1 - s) * (1 - l) over its pair (s, l), both rising with
the product, so ``eu_never_below_step0`` is decided as base + gamma * m >=
base + gamma * m0 for each action, m being the prefix's least product and
m0 step 0's. Step 0's pair (1, 0) makes both products 0, so the rule reads
base + gamma * m >= base, which every recurrence pair meets.
``_hedging_pieces`` writes a trace's CSV or JSON text: the steps read from
distinct pairs one by one, then the rest from the last one's text.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .params import (
    GAME_RANGES, ROUNDING, GameConfig, ReadOnlySequence, check_parameter, expected_utility,
    integer_range,
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


# The pairs of steps 0, 1, ... up to the fixed point, which every later step holds.
_PAIRS = tuple(_propensities())


def _summaries(pairs) -> tuple:
    """Row n summarises steps 0..n of ``pairs``: the last pair, |its sum - 1|,
    whether the pair sums from step 3, f(2) + f(3), on stay at or above 1 and
    do not rise, and the least s * l and (1 - s) * (1 - l) over the pairs
    (s, l). Step n >= 1 holds the pair f(n-1), f(n)."""
    rows = []
    low_a = low_b = previous = math.inf
    descending = True
    for n, (speaker, listener) in enumerate(pairs):
        low_a = min(low_a, speaker * listener)
        low_b = min(low_b, (1.0 - speaker) * (1.0 - listener))
        pair_sum = speaker + listener
        if n > 2:
            descending = descending and 1.0 - ROUNDING <= pair_sum <= previous + ROUNDING
            previous = pair_sum
        rows.append((speaker, listener, abs(pair_sum - 1.0), descending, low_a, low_b))
    return tuple(rows)


# The summary rows of ``_PAIRS``' prefixes; a run of N steps reads row min(N, 52).
_SUMMARY = _summaries(_PAIRS)


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


class _Steps(ReadOnlySequence):
    """The ``HedgingStep``s 0..stop-1 of a trace, read-only. It holds no
    step: step n is built on access from ``_PAIRS[min(n, 52)]`` and the
    config's step-0 EUs. It equals the tuple of its steps, and hashes as it."""

    __slots__ = ("_args",)

    def __init__(self, base_a: float, base_b: float, gamma: float, stop: int):
        object.__setattr__(self, "_args", (base_a, base_b, gamma, stop))

    def _item(self, n: int) -> HedgingStep:
        speaker, listener = _PAIRS[min(n, len(_PAIRS) - 1)]
        base_a, base_b, gamma, _ = self._args
        # Keep this association: the tests compare each EU exactly against a
        # per-step oracle that computes base + gamma * speaker * listener.
        return tuple.__new__(HedgingStep, (
            n, speaker, listener, base_a + gamma * speaker * listener,
            base_b + gamma * (1.0 - speaker) * (1.0 - listener)))

    def __len__(self) -> int:
        return self._args[3]

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self):
        return _Steps, self._args


class HedgingTrace(namedtuple("HedgingTrace", "config max_steps tolerance steps summary")):
    """A :func:`run_hedging` run: its ``GameConfig``, its settings, the
    read-only sequence of its ``HedgingStep``s 0..max_steps, which holds no
    step and reads each from the constant pairs, and the ``HedgingSummary``."""

    __slots__ = ()


def run_hedging(
    config: GameConfig,
    max_steps: int = DEFAULT_STEPS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> HedgingTrace:
    """Propensity and expected-utility trace for steps 0..max_steps; the
    steps past the fixed point repeat the last computed one but for ``n``.
    The summary is read from ``_SUMMARY``, so no step is built."""
    check_parameter(HEDGING_RANGES, "steps", max_steps)
    check_parameter(HEDGING_RANGES, "tolerance", tolerance)
    base_a = expected_utility(config, "S", "a")
    base_b = expected_utility(config, "S", "b")
    gamma = config.gamma
    speaker, listener, gap, descending, low_a, low_b = _SUMMARY[min(max_steps, len(_SUMMARY) - 1)]
    first_a, first_b = _SUMMARY[0][4:]
    summary = tuple.__new__(HedgingSummary, (
        speaker, listener, gap, gap <= tolerance, descending,
        base_a + gamma * low_a >= base_a + gamma * first_a
        and base_b + gamma * low_b >= base_b + gamma * first_b))
    steps = _Steps(base_a, base_b, gamma, max_steps + 1)
    return tuple.__new__(HedgingTrace, (config, max_steps, tolerance, steps, summary))


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


def _hedging_pieces(config, max_steps, tolerance, steps, summary, json: bool):
    """The text of a trace's fields in pieces that join to the whole: the
    head, one piece per computed step (its separator and the text of its
    values, filled with its ``n``), the steps that repeat the last computed
    one in blocks of ``_BLOCK`` joined over their ``n``, then the closing and
    the tail. Every step of a plain tuple is computed."""
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
    computed = steps[:len(_PAIRS)] if type(steps) is _Steps else steps
    yield head
    lead = opening  # the first step follows the opening
    for step in computed:
        text = template(step[1:])
        yield lead + text % step[0]
        lead = separator
    if len(steps) > len(computed):
        before, after = (separator + text).split("%d")
        joint, stop = after + before, len(steps)
        for start in range(len(computed), stop, _BLOCK):
            yield before + joint.join(map(str, range(start, min(start + _BLOCK, stop)))) + after
    yield closing + end


def _hedge_text(delta: float, gamma: float, max_steps: int, tolerance: float, json: bool):
    """The ``hedge`` command's text. The settings are checked, and the
    summary made, before any text is."""
    return _hedging_pieces(
        *run_hedging(GameConfig(delta=delta, gamma=gamma), max_steps, tolerance), json)


def render_hedging_csv(trace: HedgingTrace) -> str:
    return "".join(_hedging_pieces(*trace, json=False))


def render_hedging_json(trace: HedgingTrace) -> str:
    return "".join(_hedging_pieces(*trace, json=True))
