"""The coordination game's equilibrium tests: the region rule, the sweep over
a parameter grid, and a brute-force oracle for the expected utilities.

Both players play a pure coordination game: matching actions pay 1 and
mismatches pay 0, so an expected utility is the chance that both sides take
the action. The parameters, their prior and the closed-form utilities live
in ``params``, which ``hedge`` loads without this module; ``GameConfig`` and
``expected_utility`` are bound here too, as ``game.*``.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Iterable

from .params import (  # noqa: F401  (GameConfig and expected_utility re-exported)
    DEFAULT_TAU, GAME_RANGES, GRID_RANGES, PLAYERS, ROUNDING, GameConfig, SweepRow,
    _check_choices, _prior, check_parameter, expected_utility,
)

WORLD_ORDER = ("w1", "w2", "w3")


def _contender(delta: float) -> tuple[str, float]:
    """The one region that can hold at ``delta``, and its world's share of
    the unanimous mass: AA on w1 when delta > 1 - delta, BB on w3 when
    1 - delta > delta. The region holds when that share times 1 - gamma,
    the world's prior mass, beats tau by more than ``ROUNDING``; at an even
    split it is "none"."""
    rest = 1.0 - delta
    if delta > rest:
        return "AA", delta
    if rest > delta:
        return "BB", rest
    return "none", 0.0  # tau > 0, so no mass clears it


def world_priors(config: GameConfig) -> dict[str, float]:
    """The three-point prior by world: gamma on the contested world, the rest
    split by delta."""
    return dict(zip(WORLD_ORDER, _prior(config.delta, config.gamma)))


@functools.cache
def _canonical_actions() -> tuple[tuple[str, frozenset], ...]:
    """Each world of the pooled canonical forced march
    (``worlds.CANONICAL_FLIPS``) with the actions the two sides take there:
    a when judging q, b otherwise. Worked out once per process; ``worlds``
    is imported here, so that the ``hedge`` and ``sweep`` commands, which
    never call the oracle, do not load it."""
    from .worlds import CANONICAL_FLIPS, CANONICAL_N, Q, SoritesSeries, pool_states

    model = pool_states(SoritesSeries(CANONICAL_N, CANONICAL_FLIPS))
    return tuple(
        (world, frozenset("a" if model.judgments[side][world] == Q else "b" for side in PLAYERS))
        for world in model.worlds
    )


def brute_force_eu(config: GameConfig, player: str, action: str) -> float:
    """Independent oracle for :func:`expected_utility`.

    Reads the action each side takes at each world of the pooled canonical
    march, from the sides' judgments there, and adds up the prior mass of
    the worlds where both sides take ``action``, the only ones that pay.
    """
    _check_choices(player, action)
    prior = world_priors(config)
    total = 0.0
    for world, taken in _canonical_actions():
        if taken == {action}:
            total += prior[world]
    return total


class RegionReport(namedtuple(
    "RegionReport", "region eu_a eu_b gamma_bound_a gamma_bound_b listener_q_given_speaker_q"
)):
    """Equilibrium classification plus the quantities behind it.

    ``gamma_bound_a`` / ``gamma_bound_b`` are the gamma ceilings (1 - tau/delta
    and 1 - tau/(1-delta)) below which the matching outcome clears tau; they
    can be negative when no gamma admits the outcome.
    ``listener_q_given_speaker_q`` is the receiver-side chance of judging q
    given that the sender does.
    """

    __slots__ = ()


def equilibrium_region(config: GameConfig) -> RegionReport:
    """Classify which coordinated outcome, if either, is actionable.

    AA needs the all-q world to carry the majority split (delta > 1-delta)
    and the probability that both sides judge q to beat tau by more than
    ``ROUNDING``; BB is the mirror image. Otherwise the region is "none".
    """
    d, tau = config.delta, config.tau
    prior = _prior(d, config.gamma)
    side, share = _contender(d)
    return RegionReport(
        region=side if share * (1.0 - config.gamma) - tau > ROUNDING else "none",
        eu_a=prior[0],
        eu_b=prior[2],
        gamma_bound_a=1.0 - tau / d,
        gamma_bound_b=1.0 - tau / (1.0 - d),
        listener_q_given_speaker_q=prior[0] / (prior[0] + prior[1]),
    )


def threshold_sweep(
    delta_grid: Iterable[float],
    gamma_grid: Iterable[float],
    tau: float = DEFAULT_TAU,
) -> list[SweepRow]:
    """Region classification over a parameter grid, delta-major order.

    Each grid is read once, so a generator works like a list. Every delta,
    then every gamma, then tau is checked once, with the message
    :class:`GameConfig` gives, so a bad value raises even when a grid is
    empty. The rows are built one delta at a time, as ``sweep`` writes them.
    """
    rows: list[SweepRow] = []
    for run in _sweep_runs(delta_grid, gamma_grid, tau):
        rows += run
    return rows


def _sweep_runs(delta_grid: Iterable[float], gamma_grid: Iterable[float], tau: float):
    """Check the grids and tau as :func:`threshold_sweep` states, then return
    an iterator of each delta's rows in grid order: that function's path,
    and the ``sweep`` command's, which holds one delta's rows at a time."""
    delta_grid, gamma_grid = tuple(delta_grid), tuple(gamma_grid)
    for name, values in (("delta", delta_grid), ("gamma", gamma_grid), ("tau", (tau,))):
        for value in values:
            check_parameter(GAME_RANGES, name, value)
    return map(functools.partial(_delta_rows, gamma_grid, tau), delta_grid)


def _delta_rows(gamma_grid: tuple, tau: float, delta: float) -> list[SweepRow]:
    """One checked delta's rows over the checked gammas. ``1 - delta`` and the
    region that can hold are worked out once, so a row costs its two
    unanimous masses and its region, by :func:`equilibrium_region`'s rule.
    Checked values keep those masses a distribution within a few ulp, far
    inside ``ROUNDING``, so a row needs no check of its own. ``p_w2`` is the
    row's gamma object and ``eu_a``/``eu_b`` are its ``p_w1``/``p_w3``
    objects, which the writers format once."""
    rest = 1.0 - delta
    side, share = _contender(delta)
    rows: list[SweepRow] = []
    append, new, slack = rows.append, tuple.__new__, ROUNDING
    for gamma in gamma_grid:
        keep = 1.0 - gamma
        p_w1, p_w3 = delta * keep, rest * keep
        region = side if share * keep - tau > slack else "none"
        append(new(SweepRow, (delta, gamma, p_w1, gamma, p_w3, p_w1, p_w3, region)))
    return rows


def grid(steps: int) -> list[float]:
    """``steps`` evenly spaced interior points of (0, 1): i/(steps+1)."""
    check_parameter(GRID_RANGES, "grid size", steps)
    return [i / (steps + 1) for i in range(1, steps + 1)]
