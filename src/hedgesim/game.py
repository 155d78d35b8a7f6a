"""The coordination game's equilibrium tests: the region rule, the sweep over
a parameter grid with its CSV and JSON text, and a brute-force oracle for the
expected utilities.

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
from itertools import chain

from .params import (  # noqa: F401  (GameConfig and expected_utility re-exported)
    DEFAULT_TAU, GAME_RANGES, GRID_RANGES, PLAYERS, ROUNDING, GameConfig,
    _check_choices, _prior, check_parameter, expected_utility,
)
from .writers import _LIST, _jnum_text, _quote, _template, fmt_float

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


class SweepRow(namedtuple("SweepRow", "delta gamma p_w1 p_w2 p_w3 eu_a eu_b region")):
    """One grid point of :func:`threshold_sweep`, built with ``tuple.__new__``,
    skipping the generated ``__new__``."""

    __slots__ = ()


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
    objects, which ``_sweep_chunks`` formats once."""
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


# By ``json``: what opens, separates and closes rows; a row's field labels.
_SWEEP = {
    False: (",".join(SweepRow._fields) + "\n", "\n", "\n", ("",) + (",",) * 7 + ("",)),
    True: (*_LIST[0][:2], _LIST[0][2] + "\n",
           _template(dict.fromkeys(SweepRow._fields), 1).split("%s")),
}


def _sweep_chunks(rows, json: bool):
    """A sweep's text in pieces that join to the whole: one per run of rows
    that hold the same delta object, the first opened and the last closed.
    Each run's delta, each distinct nonzero gamma (0.0 == -0.0, and their
    texts differ) and each region is formatted once per call. ``p_w2``,
    ``eu_a`` and ``eu_b`` reuse the text of the gamma, ``p_w1`` and ``p_w3``
    objects when they are those objects, as in :func:`_delta_rows`."""
    lead, separator, closing, (k0, k1, k2, k3, k4, k5, k6, k7, end) = _SWEEP[json]
    text = _jnum_text if json else fmt_float
    memo, tails, lines = {}, {}, []
    last_delta = object()
    for delta, gamma, p_w1, p_w2, p_w3, eu_a, eu_b, region in rows:
        if delta is not last_delta:
            if lines:
                lines[0] = lead + lines[0]
                yield separator.join(lines)
                lines, lead = [], separator
            last_delta, head = delta, k0 + text(delta) + k1
        g = memo.get(gamma) if gamma else text(gamma)
        if g is None:
            g = memo[gamma] = text(gamma)
        w1, w3 = "%.12g" % p_w1, "%.12g" % p_w3
        if json and ("." not in w1 or "e" in w1 or "." not in w3 or "e" in w3):
            w1, w3 = _jnum_text(p_w1), _jnum_text(p_w3)
        w2 = g if p_w2 is gamma else text(p_w2)
        a = w1 if eu_a is p_w1 else text(eu_a)
        b = w3 if eu_b is p_w3 else text(eu_b)
        tail = tails.get(region) or tails.setdefault(
            region, f"{k7}{_quote(region) if json else region}{end}")
        lines.append(f"{head}{g}{k2}{w1}{k3}{w2}{k4}{w3}{k5}{a}{k6}{b}{tail}")
    if not lines:
        yield "[]\n" if json else lead
        return
    lines[0] = lead + lines[0]
    lines[-1] += closing
    yield separator.join(lines)


def _sweep_text(delta_steps: int, gamma_steps: int, tau: float, json: bool):
    """The ``sweep`` command's text over two ``grid``s: each delta's rows are
    built as they are written and dropped after. The grids and tau are checked
    before any text is made."""
    runs = _sweep_runs(grid(delta_steps), grid(gamma_steps), tau)
    return _sweep_chunks(chain.from_iterable(runs), json)


def render_sweep_csv(rows: list[SweepRow]) -> str:
    return "".join(_sweep_chunks(rows, json=False))


def render_sweep_json(rows: list[SweepRow]) -> str:
    return "".join(_sweep_chunks(rows, json=True))
