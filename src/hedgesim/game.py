"""The coordination game, the two-parameter world prior, and equilibrium tests.

Both players play a pure coordination game: matching actions pay 1 and
mismatches pay 0, so an expected utility is the chance that both sides take
the action. The prior over the three pooled worlds is driven by two
numbers: gamma, the chance the two sides judge the vague matter differently,
and delta, which splits the remaining mass between the two unanimous worlds.
Player labels are roles: "S" sends the signal, "L" receives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

PLAYERS = ("S", "L")
ACTIONS = ("a", "b")
WORLD_ORDER = ("w1", "w2", "w3")

# Doxastic profile of the pooled three-world game: whether each side judges q.
# At w2 the signal sender still judges q while the receiver has flipped.
_THINKS_Q = {
    "w1": {"S": True, "L": True},
    "w2": {"S": True, "L": False},
    "w3": {"S": False, "L": False},
}


def _other(player: str) -> str:
    return "L" if player == "S" else "S"


def _check_player(player: str) -> None:
    if player not in PLAYERS:
        raise ValueError(f"player must be one of {PLAYERS}, got {player!r}")


def _check_action(action: str) -> None:
    if action not in ACTIONS:
        raise ValueError(f"action must be one of {ACTIONS}, got {action!r}")


DEFAULT_TAU = 0.5
DEFAULT_EPSILON = 0.01

# Each game parameter's admissible values, as a test and in words. Every
# bound is finite and every comparison is false for NaN, so the tests also
# reject non-finite values.
GAME_RANGES = {
    "delta": (lambda v: 0.0 < v < 1.0, "strictly between 0 and 1"),
    "gamma": (lambda v: 0.0 <= v < 1.0, "at least 0 and strictly below 1"),
    "tau": (lambda v: 0.0 < v < 1.0, "strictly between 0 and 1"),
    "epsilon": (lambda v: 0.0 <= v < 0.5, "in [0, 0.5)"),
}


def integer_range(lo: int, hi: int) -> tuple:
    """A range entry that admits only ``int`` values in [lo, hi]."""
    return (lambda v: type(v) is int and lo <= v <= hi, f"an integer in [{lo}, {hi}]")


GRID_RANGES = {"grid size": integer_range(1, 1000)}


def parse_number(name: str, text: str, kind: type = float) -> int | float:
    """A flag's or a scenario file's ``text`` as a ``kind``, or a ValueError."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {noun}, got {text!r}") from None


def check_parameter(ranges: Mapping[str, tuple], name: str, value):
    """Return ``value`` when ``ranges[name]`` admits it; raise ValueError otherwise."""
    admits, words = ranges[name]
    if not admits(value):
        raise ValueError(f"{name} must be {words}, got {value!r}")
    return value


@dataclass(frozen=True)
class GameConfig:
    """Game parameters.

    delta: split of the unanimous mass toward the all-q world, strictly
    inside (0, 1) (either endpoint would delete a world from the game).
    gamma: chance of a split judgment, in [0, 1).
    tau: tipping threshold a coordinated outcome must clear, in (0, 1).
    epsilon: listener-side signal noise, in [0, 0.5).
    A delta so small that tau/delta overflows is rejected too: the gamma
    bound 1 - tau/delta of :func:`equilibrium_region` would not be a number.
    """

    delta: float
    gamma: float
    tau: float = DEFAULT_TAU
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        for name in GAME_RANGES:
            check_parameter(GAME_RANGES, name, getattr(self, name))
        if not math.isfinite(self.tau / self.delta):
            raise ValueError(
                f"delta must be large enough that tau/delta is finite (tau is {self.tau!r}), "
                f"got {self.delta!r}"
            )


def _prior(delta: float, gamma: float) -> tuple[float, float, float]:
    """(w1, w2, w3) prior masses: gamma on the contested world, the rest split
    by delta; checked to be a distribution (every mass a number >= 0, sum 1)."""
    prior = (delta * (1.0 - gamma), gamma, (1.0 - delta) * (1.0 - gamma))
    for world, value in zip(WORLD_ORDER, prior):
        if not value >= 0:
            kind = "negative" if value < 0 else "non-numeric"
            raise ValueError(f"{kind} probability {value!r} at {world!r}")
    total = sum(prior)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return prior


def _region(delta: float, tau: float, prior: tuple[float, float, float]) -> str:
    """The region rule of :func:`equilibrium_region`, from a (w1, w2, w3) prior."""
    if delta > 1.0 - delta and prior[0] > tau:
        return "AA"
    if 1.0 - delta > delta and prior[2] > tau:
        return "BB"
    return "none"


def world_priors(config: GameConfig) -> dict[str, float]:
    """The three-point prior by world: gamma on the contested world, the rest
    split by delta."""
    return dict(zip(WORLD_ORDER, _prior(config.delta, config.gamma)))


def expected_utility(config: GameConfig, player: str, action: str) -> float:
    """Closed-form expected utility of an action for one player.

    A player takes "a" exactly when judging q, so both sides take the same
    action only at the unanimous world for it: the utility is the prior mass
    of w1 for "a" and of w3 for "b", for either player. At the contested
    world w2 the actions mismatch and pay 0.
    """
    _check_player(player)
    _check_action(action)
    prior = _prior(config.delta, config.gamma)
    return prior[0] if action == "a" else prior[2]


def brute_force_eu(config: GameConfig, player: str, action: str) -> float:
    """Independent oracle for :func:`expected_utility`.

    Enumerates the three worlds, derives each side's judgment and the action
    it induces (a when judging q, b otherwise), and adds up the prior mass of
    the worlds where both sides take ``action``, the only ones that pay.
    """
    _check_player(player)
    _check_action(action)
    prior = world_priors(config)
    opponent = _other(player)
    total = 0.0
    for world in WORLD_ORDER:
        mine = "a" if _THINKS_Q[world][player] else "b"
        theirs = "a" if _THINKS_Q[world][opponent] else "b"
        if mine == action == theirs:
            total += prior[world]
    return total


@dataclass(frozen=True)
class RegionReport:
    """Equilibrium classification plus the quantities behind it.

    ``gamma_bound_a`` / ``gamma_bound_b`` are the gamma ceilings (1 - tau/delta
    and 1 - tau/(1-delta)) below which the matching outcome clears tau; they
    can be negative when no gamma admits the outcome.
    ``listener_q_given_speaker_q`` is the receiver-side chance of judging q
    given that the sender does.
    """

    region: str
    eu_a: float
    eu_b: float
    gamma_bound_a: float
    gamma_bound_b: float
    listener_q_given_speaker_q: float


def equilibrium_region(config: GameConfig) -> RegionReport:
    """Classify which coordinated outcome, if either, is actionable.

    AA needs the all-q world to carry the majority split (delta > 1-delta)
    and the probability that both sides judge q to beat tau; BB is the
    mirror image. Otherwise the region is "none".
    """
    d, tau = config.delta, config.tau
    prior = _prior(d, config.gamma)
    return RegionReport(
        region=_region(d, tau, prior),
        eu_a=prior[0],
        eu_b=prior[2],
        gamma_bound_a=1.0 - tau / d,
        gamma_bound_b=1.0 - tau / (1.0 - d),
        listener_q_given_speaker_q=prior[0] / (prior[0] + prior[1]),
    )


class SweepRow(NamedTuple):
    """One grid point of :func:`threshold_sweep`; a named tuple, built with no ``__init__`` call."""

    delta: float
    gamma: float
    p_w1: float
    p_w2: float
    p_w3: float
    eu_a: float
    eu_b: float
    region: str


def threshold_sweep(
    delta_grid: Sequence[float],
    gamma_grid: Sequence[float],
    tau: float = DEFAULT_TAU,
) -> list[SweepRow]:
    """Region classification over a parameter grid, delta-major order.

    Every delta, then every gamma, then tau is checked once, with the
    message :class:`GameConfig` gives, so a bad value raises even when a
    grid is empty. A row costs only its checked prior and its region: the
    sender's utilities ``eu_a``/``eu_b`` are ``p_w1``/``p_w3``.
    """
    for name, values in (("delta", delta_grid), ("gamma", gamma_grid), ("tau", (tau,))):
        for value in values:
            check_parameter(GAME_RANGES, name, value)
    rows: list[SweepRow] = []
    for delta in delta_grid:
        for gamma in gamma_grid:
            p_w1, p_w2, p_w3 = prior = _prior(delta, gamma)
            region = _region(delta, tau, prior)
            rows.append(SweepRow(delta, gamma, p_w1, p_w2, p_w3, p_w1, p_w3, region))
    return rows


def grid(steps: int) -> list[float]:
    """``steps`` evenly spaced interior points of (0, 1): i/(steps+1)."""
    check_parameter(GRID_RANGES, "grid size", steps)
    return [i / (steps + 1) for i in range(1, steps + 1)]
