"""Iterated propensity adjustment after a hedged assertion, and its payoff.

Once a hedge reveals that the two sides judge the vague matter differently,
each side repeatedly renormalizes its propensity to take the matching
action against the other's latest value. The recurrence starts from a
committed speaker (propensity 1) and a hesitating listener (1/2):

    f(0) = 1,  f(1) = 1/2,  f(n) = f(n-2) / (f(n-1) + f(n-2))

Even indices track the speaker, odd indices the listener. The sequence
oscillates (roughly 0.6 vs 0.4) rather than converging, but consecutive
pair sums approach 1 and the step-indexed expected utility never drops
below its step-0 value.

``run_hedging`` makes one forward pass, so N steps (``steps``, in [4, 100000])
cost O(N) time, and nothing is kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

from .game import GameConfig, check_parameter, expected_utility, integer_range

DEFAULT_STEPS = 50
DEFAULT_TOLERANCE = 1e-6
DEFAULT_HESITATION = 0.5

# Admissible hedging settings, in the form of ``game.GAME_RANGES``.
HEDGING_RANGES = {
    "step index": integer_range(0, 100_000),
    "steps": integer_range(4, 100_000),
    "tolerance": (lambda v: 0.0 < v < math.inf, "positive and finite"),
    "hesitation": (lambda v: 0.0 < v < 1.0, "strictly between 0 and 1"),
}


def _propensities(hesitation: float):
    """Yield ``propensities_at_step(n, hesitation)`` for n = 0, 1, 2, ..."""
    speaker, listener = 1.0, 0.0
    yield speaker, listener
    listener = hesitation
    while True:
        yield speaker, listener
        speaker = speaker / (listener + speaker)
        yield speaker, listener
        listener = listener / (speaker + listener)


def propensity_sequence(last: int, hesitation: float = DEFAULT_HESITATION) -> list[float]:
    """Recurrence values for steps 0..last, with ``last`` in [0, 100000]."""
    check_parameter(HEDGING_RANGES, "step index", last)
    check_parameter(HEDGING_RANGES, "hesitation", hesitation)
    pairs = islice(_propensities(hesitation), last + 1)
    return [pair[n % 2] for n, pair in enumerate(pairs)]


def propensities_at_step(n: int, hesitation: float = DEFAULT_HESITATION) -> tuple[float, float]:
    """(speaker, listener) propensities for the matching action at step ``n``.

    The speaker reads the recurrence at the largest even index so far, the
    listener at the largest odd index; before any adjustment (n = 0) the
    listener's propensity is 0, not a recurrence value.
    """
    check_parameter(HEDGING_RANGES, "step index", n)
    check_parameter(HEDGING_RANGES, "hesitation", hesitation)
    return next(islice(_propensities(hesitation), n, None))


def stepwise_eu(
    config: GameConfig,
    n: int,
    action: str,
    hesitation: float = DEFAULT_HESITATION,
) -> float:
    """Expected utility of an action after ``n`` adjustment steps.

    The base expected utility, the same for both players, gains a correction
    for the contested world: its prior mass gamma times the chance both sides
    nevertheless take the action, where a match pays 1. Action-b propensities
    are the complements of the action-a propensities at every step, so at
    n = 0 the correction vanishes for both actions.
    """
    base = expected_utility(config, "S", action)
    speaker_a, listener_a = propensities_at_step(n, hesitation)
    if action == "a":
        speaker, listener = speaker_a, listener_a
    else:
        speaker, listener = 1.0 - speaker_a, 1.0 - listener_a
    return base + config.gamma * speaker * listener


class HedgingStep(NamedTuple):
    """One step of :func:`run_hedging`; a named tuple, like ``game.SweepRow``."""

    n: int
    p_speaker_a: float
    p_listener_a: float
    eu_a: float
    eu_b: float


@dataclass(frozen=True)
class HedgingSummary:
    """Tail diagnostics of a hedging run.

    ``even_tail`` / ``odd_tail`` are the last recurrence values on each
    index parity. ``pair_sum_gap`` is |f(m-1) + f(m) - 1| at the end of the
    run, and ``pair_sums_converged`` whether that gap is within tolerance.
    ``pair_sums_descending`` reports whether consecutive pair sums stay
    at or above 1 and non-increasing from step 2 on. ``eu_never_below_step0``
    is the monotonicity claim eu^0(x) <= eu^n(x) over the recorded steps.
    """

    even_tail: float
    odd_tail: float
    pair_sum_gap: float
    pair_sums_converged: bool
    pair_sums_descending: bool
    eu_never_below_step0: bool


@dataclass(frozen=True)
class HedgingTrace:
    config: GameConfig
    max_steps: int
    tolerance: float
    hesitation: float
    steps: tuple[HedgingStep, ...]
    summary: HedgingSummary


def run_hedging(
    config: GameConfig,
    max_steps: int = DEFAULT_STEPS,
    tolerance: float = DEFAULT_TOLERANCE,
    hesitation: float = DEFAULT_HESITATION,
) -> HedgingTrace:
    """Full propensity and expected-utility trace for steps 0..max_steps."""
    check_parameter(HEDGING_RANGES, "steps", max_steps)
    check_parameter(HEDGING_RANGES, "tolerance", tolerance)
    check_parameter(HEDGING_RANGES, "hesitation", hesitation)
    base_a = expected_utility(config, "S", "a")
    base_b = expected_utility(config, "S", "b")
    steps = []
    # Same association as stepwise_eu, so each step equals its closed form.
    for n, (speaker, listener) in enumerate(islice(_propensities(hesitation), max_steps + 1)):
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
        hesitation=hesitation,
        steps=tuple(steps),
        summary=summary,
    )
