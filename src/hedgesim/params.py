"""The game's parameters: their ranges and checks, ``GameConfig``, and the
world prior with its closed-form expected utilities.

This is all of the game that ``hedge`` loads; ``game`` holds the region rule,
the sweep with its row record and text, and the brute-force oracle. Player
labels are roles: "S" sends the signal, "L" receives it. :class:`Checked` is
the one way a record checks its values.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping

PLAYERS = ("S", "L")
ACTIONS = ("a", "b")


def _check_choices(player: str, action: str) -> None:
    for name, value, choices in (("player", player, PLAYERS), ("action", action, ACTIONS)):
        if value not in choices:
            raise ValueError(f"{name} must be one of {choices}, got {value!r}")


DEFAULT_TAU = 0.5
DEFAULT_EPSILON = 0.01
# The slack of a float against the exact value it stands for: a region's mass
# against tau (a tie is "none"), a hedging pair sum or a posterior's total.
ROUNDING = 1e-12

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
    """Return ``value`` when ``ranges[name]`` admits it; raise ValueError
    otherwise. No range admits a bool."""
    admits, words = ranges[name]
    if isinstance(value, bool) or not admits(value):
        raise ValueError(f"{name} must be {words}, got {value!r}")
    return value


class Checked:
    """Mixed in ahead of a named tuple, it makes construction, ``_make`` and
    ``_replace`` all run the record's ``_checked``, which raises on a bad
    value and returns the record to keep: itself, or a normalised copy."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)._checked()

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``, which skips ``__new__``.
        return super()._make(iterable)._checked()


class GameConfig(
    Checked, namedtuple("GameConfig", GAME_RANGES, defaults=(DEFAULT_TAU, DEFAULT_EPSILON))
):
    """Game parameters, a named tuple whose fields are the ``GAME_RANGES`` keys.

    delta: split of the unanimous mass toward the all-q world, strictly
    inside (0, 1) (either endpoint would delete a world from the game).
    gamma: chance of a split judgment, in [0, 1).
    tau: tipping threshold a coordinated outcome must clear, in (0, 1).
    epsilon: listener-side signal noise, in [0, 0.5).
    A delta so small that tau/delta overflows is rejected too: the gamma
    bound 1 - tau/delta of ``game.equilibrium_region`` would not be a number.
    """

    __slots__ = ()

    def _checked(self) -> GameConfig:
        for name, value in zip(GAME_RANGES, self):
            check_parameter(GAME_RANGES, name, value)
        if not math.isfinite(self.tau / self.delta):
            raise ValueError(
                f"delta must be large enough that tau/delta is finite (tau is {self.tau!r}), "
                f"got {self.delta!r}"
            )
        return self


def _prior(delta: float, gamma: float) -> tuple[float, float, float]:
    """(w1, w2, w3) prior masses: gamma, the chance the two sides judge the
    vague matter differently, on the contested world, the rest split by delta
    between the unanimous worlds. A checked config keeps them a distribution:
    each mass is at least 0 and their sum is 1 within a few ulp."""
    return (delta * (1.0 - gamma), gamma, (1.0 - delta) * (1.0 - gamma))


def expected_utility(config: GameConfig, player: str, action: str) -> float:
    """Closed-form expected utility of an action for one player.

    A player takes "a" exactly when judging q, so both sides take the same
    action only at the unanimous world for it: the utility is the prior mass
    of w1 for "a" and of w3 for "b", for either player. At the contested
    world w2 the actions mismatch and pay 0.
    """
    _check_choices(player, action)
    prior = _prior(config.delta, config.gamma)
    return prior[0] if action == "a" else prior[2]
