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

GRID_RANGES = {"grid size": (lambda v: v >= 1, "at least 1")}


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


@dataclass(frozen=True)
class WorldPrior:
    """A probability distribution over the pooled worlds."""

    p: Mapping[str, float]

    def __post_init__(self) -> None:
        for world, value in self.p.items():
            if value < 0:
                raise ValueError(f"negative probability {value!r} at {world!r}")
        total = sum(self.p.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "p", dict(self.p))

    def __getitem__(self, world: str) -> float:
        return self.p[world]


def world_priors(config: GameConfig) -> WorldPrior:
    """The three-point prior: gamma on the contested world, the rest split by delta."""
    d, g = config.delta, config.gamma
    return WorldPrior(p={"w1": d * (1.0 - g), "w2": g, "w3": (1.0 - d) * (1.0 - g)})


def expected_utility(config: GameConfig, player: str, action: str) -> float:
    """Closed-form expected utility of an action for one player.

    A player takes "a" exactly when judging q, so the payoff-relevant joint
    events read directly off the world prior: both sides matched at the
    unanimous world for the action, and (for the side that judges q / qbar
    at the contested world) mismatched at w2.
    """
    _check_player(player)
    _check_action(action)
    prior = world_priors(config)
    if action == "a":
        p_matched = prior["w1"]
        p_mismatched = prior["w2"] if player == "S" else 0.0
        other_action = "b"
    else:
        p_matched = prior["w3"]
        p_mismatched = prior["w2"] if player == "L" else 0.0
        other_action = "a"
    u = config.payoffs.u
    return p_matched * u(player, action, action) + p_mismatched * u(player, action, other_action)


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
    prior = world_priors(config)
    d, tau = config.delta, config.tau
    if d > 1.0 - d and prior["w1"] > tau:
        region = "AA"
    elif 1.0 - d > d and prior["w3"] > tau:
        region = "BB"
    else:
        region = "none"
    p_speaker_q = prior["w1"] + prior["w2"]
    return RegionReport(
        region=region,
        eu_a=expected_utility(config, "S", "a"),
        eu_b=expected_utility(config, "S", "b"),
        gamma_bound_a=1.0 - tau / d,
        gamma_bound_b=1.0 - tau / (1.0 - d),
        listener_q_given_speaker_q=prior["w1"] / p_speaker_q,
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
    """Region classification over a parameter grid, delta-major order."""
    rows: list[SweepRow] = []
    for delta in delta_grid:
        for gamma in gamma_grid:
            config = GameConfig(delta=delta, gamma=gamma, tau=tau)
            prior = world_priors(config)
            report = equilibrium_region(config)
            rows.append(
                SweepRow(
                    delta=delta,
                    gamma=gamma,
                    p_w1=prior["w1"],
                    p_w2=prior["w2"],
                    p_w3=prior["w3"],
                    eu_a=report.eu_a,
                    eu_b=report.eu_b,
                    region=report.region,
                )
            )
    return rows


def grid(steps: int) -> list[float]:
    """``steps`` evenly spaced interior points of (0, 1): i/(steps+1)."""
    check_parameter(GRID_RANGES, "grid size", steps)
    return [i / (steps + 1) for i in range(1, steps + 1)]
