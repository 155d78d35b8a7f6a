"""Coordination payoffs, the two-parameter world prior, and equilibrium tests.

The prior over the three pooled worlds is driven by two numbers: gamma, the
chance the two sides judge the vague matter differently, and delta, which
splits the remaining mass between the two unanimous worlds. Player labels
are roles: "S" sends the signal, "L" receives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

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


@dataclass(frozen=True)
class PayoffMatrix:
    """Per-player payoff keyed by (player, own action, other's action).

    Values must be non-negative and finite; the default rewards matching
    actions with 1 and mismatches with 0 for both players.
    """

    entries: Mapping[tuple[str, str, str], float]

    def __post_init__(self) -> None:
        table: dict[tuple[str, str, str], float] = {}
        for player in PLAYERS:
            for own in ACTIONS:
                for other in ACTIONS:
                    key = (player, own, other)
                    if key not in self.entries:
                        raise ValueError(f"payoff matrix is missing entry {key!r}")
                    value = float(self.entries[key])
                    if not math.isfinite(value) or value < 0:
                        raise ValueError(f"payoff {key!r} must be finite and non-negative, got {value!r}")
                    table[key] = value
        if len(self.entries) != len(table):
            extras = set(self.entries) - set(table)
            raise ValueError(f"unexpected payoff entries {sorted(extras)!r}")
        object.__setattr__(self, "entries", table)

    def u(self, player: str, own: str, other: str) -> float:
        return self.entries[(player, own, other)]

    @classmethod
    def coordination(cls, match: float = 1.0, mismatch: float = 0.0) -> "PayoffMatrix":
        entries = {
            (player, own, other): match if own == other else mismatch
            for player in PLAYERS
            for own in ACTIONS
            for other in ACTIONS
        }
        return cls(entries=entries)


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

GRID_RANGES = {"grid size": (lambda v: 1 <= v <= 1000, "in [1, 1000]")}


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
    """

    delta: float
    gamma: float
    tau: float = DEFAULT_TAU
    epsilon: float = DEFAULT_EPSILON
    payoffs: PayoffMatrix = field(default_factory=PayoffMatrix.coordination)

    def __post_init__(self) -> None:
        for name in GAME_RANGES:
            check_parameter(GAME_RANGES, name, getattr(self, name))


def _check_distribution(worlds, values) -> None:
    for world, value in zip(worlds, values):
        if value < 0:
            raise ValueError(f"negative probability {value!r} at {world!r}")
    total = sum(values)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total!r}, not 1")


@dataclass(frozen=True)
class WorldPrior:
    """A probability distribution over the pooled worlds."""

    p: Mapping[str, float]

    def __post_init__(self) -> None:
        _check_distribution(self.p.keys(), self.p.values())
        object.__setattr__(self, "p", dict(self.p))

    def __getitem__(self, world: str) -> float:
        return self.p[world]


def _prior(delta: float, gamma: float) -> tuple[float, float, float]:
    """(w1, w2, w3) prior masses: gamma on the contested world, the rest split
    by delta; checked as :class:`WorldPrior` checks any distribution."""
    prior = (delta * (1.0 - gamma), gamma, (1.0 - delta) * (1.0 - gamma))
    _check_distribution(WORLD_ORDER, prior)
    return prior


def _region(delta: float, tau: float, prior: tuple[float, float, float]) -> str:
    """The region rule of :func:`equilibrium_region`, from a (w1, w2, w3) prior."""
    if delta > 1.0 - delta and prior[0] > tau:
        return "AA"
    if 1.0 - delta > delta and prior[2] > tau:
        return "BB"
    return "none"


def _eu(prior: tuple[float, float, float], payoffs: PayoffMatrix, player: str, action: str) -> float:
    """The formula of :func:`expected_utility`, from a (w1, w2, w3) prior."""
    p_w1, p_w2, p_w3 = prior
    if action == "a":
        p_matched, other_action = p_w1, "b"
        p_mismatched = p_w2 if player == "S" else 0.0
    else:
        p_matched, other_action = p_w3, "a"
        p_mismatched = p_w2 if player == "L" else 0.0
    u = payoffs.u
    return p_matched * u(player, action, action) + p_mismatched * u(player, action, other_action)


def world_priors(config: GameConfig) -> WorldPrior:
    """The three-point prior: gamma on the contested world, the rest split by delta."""
    return WorldPrior(p=dict(zip(WORLD_ORDER, _prior(config.delta, config.gamma))))


def expected_utility(config: GameConfig, player: str, action: str) -> float:
    """Closed-form expected utility of an action for one player.

    A player takes "a" exactly when judging q, so the payoff-relevant joint
    events read directly off the world prior: both sides matched at the
    unanimous world for the action, and (for the side that judges q / qbar
    at the contested world) mismatched at w2.
    """
    _check_player(player)
    _check_action(action)
    return _eu(_prior(config.delta, config.gamma), config.payoffs, player, action)


def brute_force_eu(config: GameConfig, player: str, action: str) -> float:
    """Independent oracle for :func:`expected_utility`.

    Enumerates the three worlds, derives each side's judgment and the action
    it induces (a when judging q, b otherwise), and accumulates the
    prior-weighted payoff at the worlds where ``player`` takes ``action``.
    """
    _check_player(player)
    _check_action(action)
    prior = world_priors(config)
    opponent = _other(player)
    total = 0.0
    for world in WORLD_ORDER:
        mine = "a" if _THINKS_Q[world][player] else "b"
        theirs = "a" if _THINKS_Q[world][opponent] else "b"
        if mine != action:
            continue
        total += prior[world] * config.payoffs.u(player, action, theirs)
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
        eu_a=_eu(prior, config.payoffs, "S", "a"),
        eu_b=_eu(prior, config.payoffs, "S", "b"),
        gamma_bound_a=1.0 - tau / d,
        gamma_bound_b=1.0 - tau / (1.0 - d),
        listener_q_given_speaker_q=prior[0] / (prior[0] + prior[1]),
    )


@dataclass(frozen=True)
class SweepRow:
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
    grid is empty. The default payoffs are built once per call, and a row
    costs only its checked prior, its region and the sender's utilities.
    """
    for name, values in (("delta", delta_grid), ("gamma", gamma_grid), ("tau", (tau,))):
        for value in values:
            check_parameter(GAME_RANGES, name, value)
    payoffs = PayoffMatrix.coordination()
    rows: list[SweepRow] = []
    for delta in delta_grid:
        for gamma in gamma_grid:
            prior = _prior(delta, gamma)
            rows.append(
                SweepRow(
                    delta,
                    gamma,
                    *prior,
                    _eu(prior, payoffs, "S", "a"),
                    _eu(prior, payoffs, "S", "b"),
                    _region(delta, tau, prior),
                )
            )
    return rows


def grid(steps: int) -> list[float]:
    """``steps`` evenly spaced interior points of (0, 1): i/(steps+1)."""
    check_parameter(GRID_RANGES, "grid size", steps)
    return [i / (steps + 1) for i in range(1, steps + 1)]
