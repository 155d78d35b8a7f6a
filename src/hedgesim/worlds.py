"""Partitioned possible-worlds models built from forced-march judgment data.

Agents walk a linearly ordered series of states and must judge a vague
predicate (``q`` vs ``qbar``) at every state. Pooling compresses a series
into at most three coarse worlds (all judge q / contested / all judge qbar)
and induces one partition per agent from that agent's judgment pattern.
The doxastic operators (everyone-thinks, common belief) and the
accessibility relation between worlds live here; what the sentences mean
over a model lives in ``semantics``. Both records are named tuples that
check their values with ``params.Checked``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from itertools import chain, filterfalse

from .params import Checked

Q = "q"
QBAR = "qbar"

#: Valuation keys for the two atoms. Worlds in neither set carry a gap.
PHI = "phi"
NOT_PHI = "not phi"

#: The canonical forced march: S flips at state 4 and L at state 2 of 5.
CANONICAL_N = 5
CANONICAL_FLIPS = {"S": 4, "L": 2}


class InvalidSeriesError(ValueError):
    """A structurally malformed forced-march description."""


class UnknownLabelError(KeyError):
    """An agent or world label that is not part of the model."""


def check_states(n: int) -> int:
    """Return ``n`` if it is an integer in [3, 100000], else raise: pooling
    keeps every state, so the bound also bounds the model and its report."""
    if not isinstance(n, int) or not 3 <= n <= 100_000:
        raise InvalidSeriesError(f"n must be an integer in [3, 100000], got {n!r}")
    return n


def check_flip(agent: str, flip: int, n: int) -> None:
    """Reject a flip index that is not an integer in [2, n]."""
    if not isinstance(flip, int):
        raise InvalidSeriesError(f"flip.{agent} must be an integer, got {flip!r}")
    if not 2 <= flip <= n:
        raise InvalidSeriesError(f"flip.{agent} must be in [2, {n}], got {flip!r}")


class SoritesSeries(Checked, namedtuple("SoritesSeries", "n flips")):
    """A forced march over states 1..n with one flip index per agent.

    ``flips`` maps each agent, labelled by a string, to its flip index and
    is kept as a copy. An agent judges q strictly before its flip index and
    qbar from the flip index on, so per-agent judgments are monotone along
    the series. Flips must lie in [2, n]: everyone judges q at state 1 and
    qbar at state n.
    """

    __slots__ = ()

    def _checked(self) -> SoritesSeries:
        check_states(self.n)
        if not isinstance(self.flips, Mapping):
            raise InvalidSeriesError(f"flips must map agents to flip indices, got {self.flips!r}")
        if not self.flips:
            raise InvalidSeriesError("at least one flip.<agent> is required")
        for agent, flip in self.flips.items():
            if not isinstance(agent, str):
                raise InvalidSeriesError(f"agent labels must be strings, got {agent!r}")
            check_flip(agent, flip, self.n)
        return tuple.__new__(type(self), (self.n, dict(self.flips)))

    @property
    def agents(self) -> tuple[str, ...]:
        return tuple(self.flips)

    @property
    def states(self) -> range:
        return range(1, self.n + 1)

    def judges_q(self, agent: str, t: int) -> bool:
        if agent not in self.flips:
            raise UnknownLabelError(f"unknown agent {agent!r}")
        if t not in self.states:
            raise UnknownLabelError(f"state {t!r} outside 1..{self.n}")
        return t < self.flips[agent]


def _check_model(agents, worlds, partitions: dict, valuation: dict) -> None:
    """Raise on model fields that break a model's rules, in this order: the
    worlds, the agents, each agent's cells, then the atoms. ``partitions``
    and ``valuation`` hold their cells and extensions as frozensets."""
    if not worlds:
        raise ValueError("model needs at least one world")
    if len(set(worlds)) != len(worlds):
        raise ValueError("duplicate world labels")
    if not agents or len(set(agents)) != len(agents):
        raise ValueError("agents must be non-empty and unique")
    everything = frozenset(worlds)
    if set(partitions) != set(agents):
        raise ValueError("partitions must cover exactly the model's agents")
    for agent, cells in partitions.items():
        seen: set[str] = set()
        for cell in cells:
            if not cell:
                raise ValueError(f"empty partition cell for agent {agent!r}")
            if cell & seen:
                raise ValueError(f"overlapping partition cells for agent {agent!r}")
            seen |= cell
        if seen != everything:
            raise ValueError(f"partition for agent {agent!r} does not cover the world set")
    for key in (PHI, NOT_PHI):
        if key not in valuation:
            raise ValueError(f"valuation must assign {key!r}")
        if not valuation[key] <= everything:
            raise ValueError(f"valuation of {key!r} mentions unknown worlds")
    if valuation[PHI] & valuation[NOT_PHI]:
        raise ValueError("atom extensions overlap (a gap is permitted, overlap is not)")


class WorldModel(Checked, namedtuple(
    "WorldModel", "agents worlds partitions valuation judgments members", defaults=(None, None)
)):
    """Worlds, one partition per agent, and extensions for the two atoms.

    ``valuation`` maps the atom keys :data:`PHI` / :data:`NOT_PHI` to the
    world sets where they are true. ``judgments`` and ``members`` are
    provenance from pooling (None for hand-built models): the per-agent
    judgment at each world, and the original states each world pools.
    Every field is kept as a copy: labels and member lists as tuples, cells
    and atom extensions as frozensets.
    """

    __slots__ = ()

    def _checked(self) -> WorldModel:
        partitions = {a: tuple(map(frozenset, cells)) for a, cells in self.partitions.items()}
        valuation = {k: frozenset(v) for k, v in self.valuation.items()}
        _check_model(self.agents, self.worlds, partitions, valuation)
        return tuple.__new__(type(self), (
            tuple(self.agents), tuple(self.worlds), partitions, valuation,
            None if self.judgments is None else {a: dict(j) for a, j in self.judgments.items()},
            None if self.members is None else {w: tuple(m) for w, m in self.members.items()},
        ))

    @property
    def world_set(self) -> frozenset[str]:
        return frozenset(self.worlds)

    def index(self, world: str) -> int:
        try:
            return self.worlds.index(world)
        except ValueError:
            raise UnknownLabelError(f"unknown world {world!r}") from None

    def cell(self, agent: str, world: str) -> frozenset[str]:
        """The agent's partition cell containing ``world``."""
        if agent not in self.partitions:
            raise UnknownLabelError(f"unknown agent {agent!r}")
        self.index(world)
        # The checks make the agent's cells cover the worlds, so the loop returns.
        for cell in self.partitions[agent]:
            if world in cell:
                return cell


def world_pools(series: SoritesSeries) -> dict[str, range]:
    """The pooled worlds of a forced march and the states each one pools.

    The all-q prefix becomes w1 and everything after the last flip becomes
    w3; the stretch from the first flip through the last flip (inclusive,
    so the last-flip state itself sits in the middle pool) is w2. Empty
    pools are dropped (only w3 can be empty, when some flip is at n).
    """
    lo = min(series.flips.values())
    hi = max(series.flips.values())
    pools = {"w1": range(1, lo), "w2": range(lo, hi + 1), "w3": range(hi + 1, series.n + 1)}
    return {name: states for name, states in pools.items() if states}


def pool_states(series: SoritesSeries) -> WorldModel:
    """Pool a forced march into the worlds of :func:`world_pools` and derive
    the model by set algebra over each agent's q-worlds.

    An agent judges a pooled world the way it judges that pool's earliest
    state. Its partition is (its q-worlds, the other worlds), dropping an
    empty cell. Phi holds on the worlds every agent judges q, not phi outside
    every agent's q-worlds, and the contested worlds in between are gaps.
    The containers built here are the model's own, so the model is checked
    through the private path, ``_check_model`` on them, and built once, where
    ``WorldModel(...)`` first copies what a caller gives it.
    """
    pools = world_pools(series)
    worlds = tuple(pools)
    everything = frozenset(worlds)
    # Each flip is read once (``judges_q``'s rule). Every flip is at state 2 or
    # later, so w1 is a q-world: the q cell is never empty and comes first.
    q_worlds = {
        agent: frozenset([w for w, states in pools.items() if states[0] < flip])
        for agent, flip in series.flips.items()
    }
    agents = tuple(q_worlds)
    partitions = {
        agent: (q, everything - q) if q != everything else (q,) for agent, q in q_worlds.items()
    }
    valuation = {
        PHI: everything.intersection(*q_worlds.values()),
        NOT_PHI: everything.difference(*q_worlds.values()),
    }
    _check_model(agents, worlds, partitions, valuation)
    return tuple.__new__(WorldModel, (
        agents, worlds, partitions, valuation,
        {agent: {w: Q if w in q else QBAR for w in worlds} for agent, q in q_worlds.items()},
        {name: tuple(states) for name, states in pools.items()},
    ))


def judgment_proposition(model: WorldModel, agent: str, polarity: str) -> frozenset[str]:
    """The set of pooled worlds where ``agent`` judges ``polarity``."""
    if polarity not in (Q, QBAR):
        raise ValueError(f"polarity must be {Q!r} or {QBAR!r}, got {polarity!r}")
    if model.judgments is None:
        raise ValueError("model carries no judgment data (not built by pooling)")
    if agent not in model.judgments:
        raise UnknownLabelError(f"unknown agent {agent!r}")
    return frozenset(w for w, value in model.judgments[agent].items() if value == polarity)


def _world_subset(known: frozenset[str], worlds: Iterable[str]) -> frozenset[str]:
    subset = frozenset(worlds)
    stray = subset - known
    if stray:
        raise UnknownLabelError(f"unknown worlds {sorted(stray)!r}")
    return subset


def _everyone_thinks(cells, prop: frozenset[str], live: frozenset[str]) -> frozenset[str]:
    """The rule of :func:`everyone_thinks` over checked sets: ``live`` less
    every cell that meets it outside ``prop``."""
    return live.difference(*filterfalse((live - prop).isdisjoint, cells))


def everyone_thinks(
    model: WorldModel, prop: Iterable[str], restriction: Iterable[str] | None = None
) -> frozenset[str]:
    """Worlds inside the restriction where every agent thinks ``prop``.

    Cells are cut down to the restriction first, so belief is evaluated
    against the live possibilities only. By set algebra, that is the
    restriction minus every restricted cell that is not inside ``prop``.
    It checks its arguments and reads the cells once, as the fixpoint does.
    """
    everything = model.world_set
    prop_set = _world_subset(everything, prop)
    live = everything if restriction is None else _world_subset(everything, restriction)
    return _everyone_thinks(chain.from_iterable(model.partitions.values()), prop_set, live)


def common_belief(
    model: WorldModel, prop: Iterable[str], restriction: Iterable[str] | None = None
) -> frozenset[str]:
    """The worlds where ``prop`` is public: everyone thinks it, everyone
    thinks everyone thinks it, and so on.

    Computed as the greatest fixpoint of the everyone-thinks operator at or
    below ``prop``. Each pass can only shrink the candidate set (every live
    world belongs to its own restricted cell), so iteration terminates. The
    fixpoint checks its arguments and reads the cells once, whatever the
    passes: each pass is set algebra over one list of the agents' cells.
    """
    everything = model.world_set
    live = everything if restriction is None else _world_subset(everything, restriction)
    current = _world_subset(everything, prop) & live
    cells = tuple(chain.from_iterable(model.partitions.values()))
    while (shrunk := _everyone_thinks(cells, current, live)) != current:
        current = shrunk
    return current


def accessible(model: WorldModel, world: str) -> frozenset[str]:
    """R(w), the worlds accessible from ``world``: the union of the agents'
    cells at it, that is, the worlds some agent cannot tell apart from it."""
    return frozenset().union(*(model.cell(agent, world) for agent in model.agents))
