"""The per-world and per-step definitions the tests check hedgesim against.

The library computes each of these facts in bulk: a sentence's extension
and belief by set algebra over the valuation and the agents' cells, and
the hedging trace in one forward pass. The definitions here
compute them one world or one step at a time, straight from the records'
fields, and none calls the library function it is compared with (see
``tests/test_package.py``): they take only records and constants from
``hedgesim``. The recurrence is also run in ``decimal`` arithmetic, to
check how the library's floats round.
"""

from decimal import Decimal, localcontext

from hedgesim.worlds import NOT_PHI, PHI, Q, QBAR

# The significant digits of the decimal recurrence.
EXACT_DIGITS = 100

# The three truth values of :func:`evaluate`.
TRUE = "true"
FALSE = "false"
GAP = "gap"


def reach(model, world):
    """R(w): every world that shares some agent's cell with ``world``."""
    return {
        other
        for cells in model.partitions.values()
        for cell in cells
        if world in cell
        for other in cell
    }


def evaluate(model, formula, world):
    """Three-valued for atoms, two-valued for might-sentences.

    An atom is true where the valuation puts it, false where it puts the
    opposite atom, and gappy elsewhere. ``might A`` is true at w iff R(w)
    holds a world where A is true, else false.
    """
    if formula.is_modal:
        atom_true = model.valuation[formula.atom.text]
        return TRUE if any(w in atom_true for w in reach(model, world)) else FALSE
    opposite = NOT_PHI if formula.text == PHI else PHI
    if world in model.valuation[formula.text]:
        return TRUE
    if world in model.valuation[opposite]:
        return FALSE
    return GAP


def thinks(model, agent, prop, world):
    """True when every world the agent cannot tell apart from ``world`` is in ``prop``."""
    prop = set(prop)
    (cell,) = [cell for cell in model.partitions[agent] if world in cell]
    return all(w in prop for w in cell)


def sort_worlds(model, worlds):
    """A world subset in the model's world order."""
    return tuple(sorted(worlds, key=model.worlds.index))


def judgment(series, agent, t):
    """``agent``'s judgment at state ``t``: q strictly before its flip."""
    return Q if t < series.flips[agent] else QBAR


def judgment_vector(series, t):
    """All agents' judgments at state ``t``, in agent order."""
    return tuple(judgment(series, agent, t) for agent in series.flips)


def propensity_sequence(last):
    """f(0..last) of f(0) = 1, f(1) = 1/2, f(n) = f(n-2) / (f(n-1) + f(n-2))."""
    values = [1.0, 0.5]
    while len(values) <= last:
        values.append(values[-2] / (values[-1] + values[-2]))
    return values[: last + 1]


def exact_propensities(last):
    """f(0..last) of the recurrence at ``EXACT_DIGITS`` significant digits.
    Not ``Fraction``: its terms' digit counts grow geometrically."""
    with localcontext() as context:
        context.prec = EXACT_DIGITS
        values = [Decimal(1), Decimal(1) / 2]
        while len(values) <= last:
            values.append(values[-2] / (values[-1] + values[-2]))
    return values[: last + 1]


def propensities_at_step(n, values=None):
    """(speaker, listener) propensities for action a after ``n`` steps: the
    recurrence at the largest even and the largest odd index up to ``n``;
    the listener's is 0 before any adjustment. ``values`` may hold f(0..n)."""
    if n == 0:
        return 1.0, 0.0
    values = propensity_sequence(n) if values is None else values
    return values[n - n % 2], values[n - 1 + n % 2]


def stepwise_eu(config, n, action, values=None):
    """Expected utility of ``action`` after ``n`` steps: the prior mass of
    its unanimous world, plus gamma times the chance both sides take it at
    the contested world, where the action-b propensities are the complements
    of the action-a ones."""
    unanimous = config.delta if action == "a" else 1.0 - config.delta
    speaker, listener = propensities_at_step(n, values)
    if action == "b":
        speaker, listener = 1.0 - speaker, 1.0 - listener
    return unanimous * (1.0 - config.gamma) + config.gamma * speaker * listener
