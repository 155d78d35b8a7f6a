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

``run_hedging`` makes one forward pass, so N steps (``steps``, in [4, 100000])
cost O(N) time, and nothing is kept between calls. The same pass keeps the
summary as running reductions (the lowest EU of each action, whether the
pair sums descend, the last pair sum), so no step is read back. Its records
are named tuples, like those of ``game``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import islice

from .game import GameConfig, check_parameter, expected_utility, integer_range

DEFAULT_STEPS = 50
DEFAULT_TOLERANCE = 1e-6
HESITATION = 0.5

# Admissible hedging settings, in the form of ``game.GAME_RANGES``.
HEDGING_RANGES = {
    "steps": integer_range(4, 100_000),
    "tolerance": (lambda v: 0.0 < v < math.inf, "positive and finite"),
}


def _propensities():
    """Yield the (speaker, listener) propensities for action a at steps
    n = 0, 1, 2, ...: the recurrence at the largest even and the largest odd
    index up to n. Before any adjustment (n = 0) the listener's is 0, not a
    recurrence value."""
    speaker, listener = 1.0, 0.0
    yield speaker, listener
    listener = HESITATION
    while True:
        yield speaker, listener
        speaker = speaker / (listener + speaker)
        yield speaker, listener
        listener = listener / (speaker + listener)


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


def run_hedging(
    config: GameConfig,
    max_steps: int = DEFAULT_STEPS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> HedgingTrace:
    """Full propensity and expected-utility trace for steps 0..max_steps."""
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
            if not 1.0 - 1e-12 <= pair_sum <= previous + 1e-12:
                descending = False
            previous = pair_sum
    first = steps[0]
    gap = abs(pair_sum - 1.0)
    summary = HedgingSummary(
        even_tail=speaker,
        odd_tail=listener,
        pair_sum_gap=gap,
        pair_sums_converged=gap <= tolerance,
        pair_sums_descending=descending,
        eu_never_below_step0=low_a >= first.eu_a and low_b >= first.eu_b,
    )
    return HedgingTrace(
        config=config,
        max_steps=max_steps,
        tolerance=tolerance,
        steps=tuple(steps),
        summary=summary,
    )
