"""The coordination game's equilibrium tests: the region rule, the sweep over
a parameter grid with its CSV and JSON text, made a column at a time, and
a brute-force oracle for the expected utilities. The rule is written once,
in ``_delta_rows``, which builds each delta's sweep columns;
``equilibrium_region`` reads its one-point columns. A sweep holds its delta
columns; a row is built when read; ``render_sweep_*`` write a sweep's
columns as the ``sweep`` command does.

Both players play a pure coordination game: matching actions pay 1 and
mismatches pay 0, so an expected utility is the chance that both sides take
the action. The parameters, their prior and the closed-form utilities live
in ``params``, which ``hedge`` loads without this module; ``GameConfig`` and
``expected_utility`` are bound here too, as ``game.*``.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import compress, count, repeat
from operator import is_not, itemgetter

from . import writers
from .params import (  # noqa: F401  (GameConfig and expected_utility re-exported)
    DEFAULT_TAU, GAME_RANGES, GRID_RANGES, PLAYERS, ROUNDING, GameConfig, ReadOnlySequence,
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
    and the expected utilities are the one-point sweep columns', by the region
    rule of :func:`_delta_rows`; the gamma bounds and the listener's chance are
    worked out here from the same floats.
    """
    d, gamma, tau = config.delta, config.gamma, config.tau
    _, _, (p_w1,), (p_w2,), _, (eu_a,), (eu_b,), (region,) = _delta_rows(
        (gamma,), (1.0 - gamma,), tau, d)
    bound_a, bound_b = 1.0 - tau / d, 1.0 - tau / (1.0 - d)
    return tuple.__new__(
        RegionReport, (region, eu_a, eu_b, bound_a, bound_b, p_w1 / (p_w1 + p_w2)))


class SweepRow(namedtuple("SweepRow", "delta gamma p_w1 p_w2 p_w3 eu_a eu_b region")):
    """One grid point of :func:`threshold_sweep`, built with ``tuple.__new__``,
    skipping the generated ``__new__``."""

    __slots__ = ()


def threshold_sweep(
    delta_grid: Iterable[float],
    gamma_grid: Iterable[float],
    tau: float = DEFAULT_TAU,
) -> Sequence[SweepRow]:
    """Region classification over a parameter grid, delta-major order.

    Each grid is read once, so a generator works like a list. Every delta,
    then every gamma, then tau is checked once, with the message
    :class:`GameConfig` gives, so a bad value raises even when a grid is
    empty. The sweep holds each delta's columns, those ``sweep`` writes,
    and builds a row when it is read.
    """
    return _Sweep(tuple(_sweep_runs(delta_grid, gamma_grid, tau)))


class _Sweep(ReadOnlySequence):
    """The ``SweepRow``s of a sweep, read-only. It holds each delta's columns,
    as ``_delta_rows`` gives them, and builds row i from run i // K, at place
    i % K, K gammas a run. Like the list of its rows, which it equals, it has
    no hash."""

    __slots__ = ("_runs", "_k")
    _held = list

    def __init__(self, runs: tuple):
        object.__setattr__(self, "_runs", runs)
        object.__setattr__(self, "_k", len(runs[0][1]) if runs else 0)

    def _item(self, i: int) -> SweepRow:
        run, j = divmod(i, self._k)
        delta, gammas, p_w1, p_w2, p_w3, eu_a, eu_b, regions = self._runs[run]
        return tuple.__new__(
            SweepRow, (delta, gammas[j], p_w1[j], p_w2[j], p_w3[j], eu_a[j], eu_b[j], regions[j]))

    def __len__(self) -> int:
        return len(self._runs) * self._k

    def __iter__(self):
        for delta, *columns in self._runs:
            yield from map(tuple.__new__, repeat(SweepRow), zip(repeat(delta), *columns))

    def __reduce__(self):
        return _Sweep, (self._runs,)


def _sweep_runs(delta_grid: Iterable[float], gamma_grid: Iterable[float], tau: float):
    """Check the grids and tau as :func:`threshold_sweep` states, then return
    an iterator of each delta's columns in grid order: that function's path,
    and the ``sweep`` command's, which holds one delta's columns at a time."""
    delta_grid, gammas = tuple(delta_grid), tuple(gamma_grid)
    for name, values in (("delta", delta_grid), ("gamma", gammas), ("tau", (tau,))):
        for value in values:
            check_parameter(GAME_RANGES, name, value)
    keeps = tuple(1.0 - gamma for gamma in gammas)
    return map(functools.partial(_delta_rows, gammas, keeps, tau), delta_grid)


def _delta_rows(gammas: tuple, keeps: tuple, tau: float, delta: float) -> tuple:
    """One checked delta's columns, ``(delta, gammas, p_w1, p_w2, p_w3, eu_a,
    eu_b, regions)``, over the checked gammas and their ``keeps``, 1 - gamma,
    by the game's one region rule: AA needs the all-q world to carry the
    majority split (delta > 1 - delta) and its prior mass, delta times 1 -
    gamma, to beat tau by more than ``ROUNDING``; BB is the mirror image;
    otherwise "none", so a tie is "none". Checked values keep a row's masses a
    distribution within a few ulp, far inside ``ROUNDING``, so a row needs no
    check. ``p_w2`` is ``gammas`` and ``eu_a``/``eu_b`` are ``p_w1``/``p_w3``."""
    rest = 1.0 - delta
    # At an even split no mass clears tau > 0.
    side, share = ("AA", delta) if delta > rest else ("BB", rest) if rest > delta else ("none", 0.0)
    p_w1, p_w3 = [delta * keep for keep in keeps], [rest * keep for keep in keeps]
    regions = [side if share * keep - tau > ROUNDING else "none" for keep in keeps]
    return delta, gammas, p_w1, gammas, p_w3, p_w1, p_w3, regions


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
    """A sweep's text in pieces that join to the whole, from runs of one delta
    object's columns: one piece per non-empty run, filled a column at a time
    into ten slots a row and joined once, the first opened, then the closing,
    or the empty sweep's text alone. ``p_w1`` and ``p_w3`` take one
    ``_float_texts`` pass together; the gammas one, unless equal to the last
    run's with no zero; ``p_w2``, ``eu_a`` and ``eu_b`` the gamma, ``p_w1`` and
    ``p_w3`` texts when they are those columns, or equal them with no zero."""
    lead, separator, closing, (k0, k1, k2, k3, k4, k5, k6, k7, end) = _SWEEP[json]
    last_gammas, gamma_zero, tails = None, False, {}
    for delta, gammas, p_w1, p_w2, p_w3, eu_a, eu_b, regions in filter(itemgetter(1), runs):
        n = len(gammas)
        if gammas is not last_gammas and (gammas != last_gammas or gamma_zero):
            slots = ",".join(("%.12g",) * n)
            g, gamma_zero, last_gammas = _float_texts(slots, gammas, json), 0.0 in gammas, gammas
            g1, g2 = [t + k2 for t in g], [f"{k3}{t}{k4}" for t in g]
        texts = functools.partial(_float_texts, slots, json=json)
        w = _float_texts(f"{slots},{slots}", (*p_w1, *p_w3), json)
        w1, w3 = w[:n], w[n:]
        w2 = (g2 if p_w2 is gammas or p_w2 == gammas and not gamma_zero
              else [f"{k3}{t}{k4}" for t in texts(p_w2)])
        a = w1 if eu_a is p_w1 or eu_a == p_w1 and 0.0 not in p_w1 else texts(eu_a)
        b = w3 if eu_b is p_w3 or eu_b == p_w3 and 0.0 not in p_w3 else texts(eu_b)
        for region in set(regions).difference(tails):
            tails[region] = f"{k7}{writers._quote(region) if json else region}{end}"
        head = k0 + (_jnum_text if json else fmt_float)(delta) + k1
        pieces = [separator + head, None, None, None, None, k5, None, k6, None, None] * n
        pieces[0] = lead + head
        pieces[1::10], pieces[2::10], pieces[3::10], pieces[4::10] = g1, w1, w2, w3
        pieces[6::10], pieces[8::10], pieces[9::10] = a, b, map(tails.__getitem__, regions)
        yield "".join(pieces)
        lead = separator
    yield closing if last_gammas is not None else "[]\n" if json else lead


def _delta_runs(rows):
    """The runs of a sweep's own columns, or ``rows`` cut where the delta
    object changes, each run turned once into its delta and columns, as
    ``_delta_rows`` gives them."""
    if type(rows) is _Sweep:
        yield from rows._runs
        return
    deltas = list(map(itemgetter(0), rows))
    cuts = [0, *compress(count(1), map(is_not, deltas[1:], deltas)), len(deltas)] if rows else []
    for start, stop in zip(cuts, cuts[1:]):
        _, *columns = zip(*rows[start:stop])
        yield deltas[start], *columns


def _sweep_text(delta_steps: int, gamma_steps: int, tau: float, json: bool):
    """The ``sweep`` command's text over two ``grid``s, checked before any text
    is made: each delta's columns go straight to the writer, and no row is made."""
    return _sweep_chunks(_sweep_runs(grid(delta_steps), grid(gamma_steps), tau), json)


def render_sweep_csv(rows: Sequence[SweepRow]) -> str:
    return "".join(_sweep_chunks(_delta_runs(rows), json=False))


def render_sweep_json(rows: Sequence[SweepRow]) -> str:
    return "".join(_sweep_chunks(_delta_runs(rows), json=True))
