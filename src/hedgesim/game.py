"""The coordination game's equilibrium tests: the region rule, the sweep over
a parameter grid with its CSV and JSON text, formatted a column at a time,
and a brute-force oracle for the expected utilities. The rule is written
once, in ``_delta_rows``, which builds each delta's sweep rows;
``equilibrium_region`` reads its one-point row.

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
from itertools import compress, count
from operator import iadd, is_not

from . import writers
from .params import (  # noqa: F401  (GameConfig and expected_utility re-exported)
    DEFAULT_TAU, GAME_RANGES, GRID_RANGES, PLAYERS, ROUNDING, GameConfig,
    _check_choices, _prior, check_parameter, expected_utility,
)
from .writers import _LIST, _float_texts, _jnum_text, _template, fmt_float

WORLD_ORDER = ("w1", "w2", "w3")


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
    """Classify which coordinated outcome, if either, is actionable: the region
    and the expected utilities are the one-point sweep row's, by the region
    rule of :func:`_delta_rows`; the gamma bounds and the listener's chance are
    worked out here from the same floats.
    """
    d, gamma, tau = config.delta, config.gamma, config.tau
    _, _, p_w1, p_w2, _, eu_a, eu_b, region = _delta_rows(((gamma, 1.0 - gamma),), tau, d)[0]
    bound_a, bound_b = 1.0 - tau / d, 1.0 - tau / (1.0 - d)
    return RegionReport(region, eu_a, eu_b, bound_a, bound_b, p_w1 / (p_w1 + p_w2))


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
    return functools.reduce(iadd, _sweep_runs(delta_grid, gamma_grid, tau), [])


def _sweep_runs(delta_grid: Iterable[float], gamma_grid: Iterable[float], tau: float):
    """Check the grids and tau as :func:`threshold_sweep` states, then return
    an iterator of each delta's rows in grid order: that function's path,
    and the ``sweep`` command's, which holds one delta's rows at a time."""
    delta_grid, gamma_grid = tuple(delta_grid), tuple(gamma_grid)
    for name, values in (("delta", delta_grid), ("gamma", gamma_grid), ("tau", (tau,))):
        for value in values:
            check_parameter(GAME_RANGES, name, value)
    gammas = tuple((gamma, 1.0 - gamma) for gamma in gamma_grid)
    return map(functools.partial(_delta_rows, gammas, tau), delta_grid)


def _delta_rows(gammas: tuple, tau: float, delta: float) -> list[SweepRow]:
    """One checked delta's rows over the checked ``(gamma, 1 - gamma)`` pairs, by
    the game's one region rule: AA needs the all-q world to carry the majority
    split (delta > 1 - delta) and its prior mass, delta times 1 - gamma, to beat
    tau by more than ``ROUNDING``; BB is the mirror image; otherwise "none", so
    a tie is "none". The region that can hold and its share of the unanimous
    mass are worked out once. Checked values keep a row's masses a distribution
    within a few ulp, far inside ``ROUNDING``, so a row needs no check of its
    own. ``p_w2`` is its gamma object and ``eu_a``/``eu_b`` its ``p_w1``/``p_w3``."""
    rest = 1.0 - delta
    # At an even split no mass clears tau > 0.
    side, share = ("AA", delta) if delta > rest else ("BB", rest) if rest > delta else ("none", 0.0)
    rows: list[SweepRow] = []
    append, new, slack = rows.append, tuple.__new__, ROUNDING
    for gamma, keep in gammas:
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


def _sweep_chunks(runs, json: bool):
    """A sweep's text in pieces that join to the whole, from lists of rows that
    each hold one delta object: one piece per non-empty list, the first opened,
    then the closing, or the empty sweep's text alone. Each float column of a
    list is formatted in one ``_float_texts`` pass, unless it equals the gamma,
    ``p_w1`` or ``p_w3`` column, or the last list's gammas, and holds no zero:
    it then takes their texts, as equal numbers print alike but 0.0 and -0.0."""
    lead, separator, closing, (k0, k1, k2, k3, k4, k5, k6, k7, end) = _SWEEP[json]
    last_gammas, gamma_zero = None, False
    for run in filter(None, runs):
        head = k0 + (_jnum_text if json else fmt_float)(run[0][0]) + k1
        _, gammas, p_w1, p_w2, p_w3, eu_a, eu_b, regions = zip(*run)
        texts = functools.partial(_float_texts, ",".join(("%.12g",) * len(run)), json=json)
        if gammas != last_gammas or gamma_zero:
            g, gamma_zero, last_gammas = texts(gammas), 0.0 in gammas, gammas
            g1, g2 = [t + k2 for t in g], [f"{k3}{t}{k4}" for t in g]
        w1, w3 = texts(p_w1), texts(p_w3)
        w2 = g2 if p_w2 == gammas and not gamma_zero else [f"{k3}{t}{k4}" for t in texts(p_w2)]
        a = w1 if eu_a == p_w1 and 0.0 not in p_w1 else texts(eu_a)
        b = w3 if eu_b == p_w3 and 0.0 not in p_w3 else texts(eu_b)
        tail = {r: f"{k7}{writers._quote(r) if json else r}{end}" for r in set(regions)}
        lines = [f"{head}{x}{x1}{x2}{x3}{k5}{xa}{k6}{xb}{t}"
                 for x, x1, x2, x3, xa, xb, t in zip(g1, w1, w2, w3, a, b, map(tail.get, regions))]
        lines[0] = lead + lines[0]
        yield separator.join(lines)
        lead = separator
    yield closing if last_gammas is not None else "[]\n" if json else lead


def _delta_runs(rows: list[SweepRow]):
    """``rows`` cut where the delta object changes."""
    deltas = [row[0] for row in rows]
    cuts = [0, *compress(count(1), map(is_not, deltas[1:], deltas)), len(deltas)]
    return map(rows.__getitem__, map(slice, cuts, cuts[1:]))


def _sweep_text(delta_steps: int, gamma_steps: int, tau: float, json: bool):
    """The ``sweep`` command's text over two ``grid``s, checked before any text
    is made: each delta's rows are built as they are written and dropped after."""
    return _sweep_chunks(_sweep_runs(grid(delta_steps), grid(gamma_steps), tau), json)


def render_sweep_csv(rows: list[SweepRow]) -> str:
    return "".join(_sweep_chunks(_delta_runs(rows), json=False))


def render_sweep_json(rows: list[SweepRow]) -> str:
    return "".join(_sweep_chunks(_delta_runs(rows), json=True))
