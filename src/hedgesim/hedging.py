"""Iterated propensity adjustment after a hedged assertion, and its payoff.

Once a hedge reveals that the two sides judge the vague matter differently,
each side repeatedly renormalizes its propensity to take the matching
action against the other's latest value. The recurrence starts from a
committed speaker (propensity 1) and a hesitating listener, whose seed
f(1) = 1/2 is fixed (``HESITATION``), not a setting:

    f(0) = 1,  f(1) = 1/2,  f(n) = f(n-2) / (f(n-1) + f(n-2))

Even indices track the speaker, odd indices the listener. The sequence
oscillates (roughly 0.6 vs 0.4) rather than converging, but consecutive
pair sums approach 1 and the step-indexed expected utility never drops
below its step-0 value.

``run_hedging`` makes one forward pass, so N steps (``steps``, in [4, 100000])
cost O(N) time, and nothing is kept between calls. Its records are named
tuples, like those of ``game``.
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
    "step index": integer_range(0, 100_000),
    "steps": integer_range(4, 100_000),
    "tolerance": (lambda v: 0.0 < v < math.inf, "positive and finite"),
}


def _propensities():
    """Yield ``propensities_at_step(n)`` for n = 0, 1, 2, ..."""
    speaker, listener = 1.0, 0.0
    yield speaker, listener
    listener = HESITATION
    while True:
        yield speaker, listener
        speaker = speaker / (listener + speaker)
        yield speaker, listener
        listener = listener / (speaker + listener)


def propensity_sequence(last: int) -> list[float]:
    """Recurrence values for steps 0..last, with ``last`` in [0, 100000]."""
    check_parameter(HEDGING_RANGES, "step index", last)
    pairs = islice(_propensities(), last + 1)
    return [pair[n % 2] for n, pair in enumerate(pairs)]


def propensities_at_step(n: int) -> tuple[float, float]:
    """(speaker, listener) propensities for the matching action at step ``n``.

    The speaker reads the recurrence at the largest even index so far, the
    listener at the largest odd index; before any adjustment (n = 0) the
    listener's propensity is 0, not a recurrence value.
    """
    check_parameter(HEDGING_RANGES, "step index", n)
    return next(islice(_propensities(), n, None))


def stepwise_eu(config: GameConfig, n: int, action: str) -> float:
    """Expected utility of an action after ``n`` adjustment steps.

    The base expected utility, the same for both players, gains a correction
    for the contested world: its prior mass gamma times the chance both sides
    nevertheless take the action, where a match pays 1. Action-b propensities
    are the complements of the action-a propensities at every step, so at
    n = 0 the correction vanishes for both actions.
    """
    base = expected_utility(config, "S", action)
    speaker_a, listener_a = propensities_at_step(n)
    if action == "a":
        speaker, listener = speaker_a, listener_a
    else:
        speaker, listener = 1.0 - speaker_a, 1.0 - listener_a
    return base + config.gamma * speaker * listener


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
    at or above 1 and non-increasing from step 2 on. ``eu_never_below_step0``
    is the monotonicity claim eu^0(x) <= eu^n(x) over the recorded steps.
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
    steps = []
    # Same association as stepwise_eu, so each step equals its closed form.
    for n, (speaker, listener) in enumerate(islice(_propensities(), max_steps + 1)):
        eu_a = base_a + config.gamma * speaker * listener
        eu_b = base_b + config.gamma * (1.0 - speaker) * (1.0 - listener)
        steps.append(HedgingStep(n, speaker, listener, eu_a, eu_b))
    # From step 1 on, each step holds the pair f(n-1), f(n).
    pair_sums = [step.p_speaker_a + step.p_listener_a for step in steps[1:]]
    gap = abs(pair_sums[-1] - 1.0)
    descending = all(s >= 1.0 - 1e-12 for s in pair_sums[2:]) and all(
        later <= earlier + 1e-12
        for earlier, later in zip(pair_sums[2:], pair_sums[3:])
    )
    first, last = steps[0], steps[-1]
    summary = HedgingSummary(
        even_tail=last.p_speaker_a,
        odd_tail=last.p_listener_a,
        pair_sum_gap=gap,
        pair_sums_converged=gap <= tolerance,
        pair_sums_descending=descending,
        eu_never_below_step0=all(
            step.eu_a >= first.eu_a and step.eu_b >= first.eu_b for step in steps
        ),
    )
    return HedgingTrace(
        config=config,
        max_steps=max_steps,
        tolerance=tolerance,
        steps=tuple(steps),
        summary=summary,
    )
