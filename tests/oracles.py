"""The per-world and per-step definitions the tests check hedgesim against.

The library computes each of these facts in bulk: a sentence's extension
and belief by set algebra over the valuation and the agents' cells, and
the hedging trace in one forward pass, and a sweep's rows as they are read from its
columns. The definitions here
compute them one world or one step at a time, straight from the records'
fields, and none calls the library function it is compared with (see
``tests/test_package.py``): they take only records and constants from
``hedgesim``. The recurrence is also run in ``decimal`` arithmetic, and the
game's prior, region, utilities and listener chance in ``Fraction``s, to
check how the library's floats round.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

from hedgesim.game import SweepRow
from hedgesim.params import ROUNDING
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


def propensity_sequence(last, seed=0.5):
    """f(0..last) of f(0) = 1, f(1) = ``seed``, f(n) = f(n-2) / (f(n-1) + f(n-2))."""
    values = [1.0, seed]
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


def exact_prior(delta, gamma):
    """(w1, w2, w3) prior masses as ``Fraction``s of the exact values given
    (a float is read at its exact binary value): gamma on the contested
    world, the rest split by delta between the unanimous worlds."""
    delta, gamma = Fraction(delta), Fraction(gamma)
    return delta * (1 - gamma), gamma, (1 - delta) * (1 - gamma)


def exact_region(delta, gamma, tau):
    """(region, margin) in exact arithmetic. The unanimous world of the
    majority split (w1 for AA when delta > 1 - delta, w3 for BB when
    1 - delta > delta) holds when its prior mass beats tau by more than
    ``ROUNDING``, the stated slack of the region rule, so a tie at tau is
    "none"; the margin is that mass minus tau. At an even split no world
    holds the majority: the region is "none" whatever tau, and the margin
    is None."""
    w1, _, w3 = exact_prior(delta, gamma)
    delta = Fraction(delta)
    if delta == 1 - delta:
        return "none", None
    side, mass = ("AA", w1) if delta > 1 - delta else ("BB", w3)
    margin = mass - Fraction(tau)
    return (side if margin > Fraction(ROUNDING) else "none"), margin


def exact_eu(delta, gamma, action):
    """The chance that both sides take ``action``: the prior mass of the
    world where both judge q (w1) for a, or both judge qbar (w3) for b. At
    the contested world w2 they take different actions."""
    w1, _, w3 = exact_prior(delta, gamma)
    return w1 if action == "a" else w3


def exact_listener_q(delta, gamma):
    """The chance that the receiver judges q given that the sender does: the
    sender judges q at w1 and w2, the receiver at w1 only."""
    w1, w2, _ = exact_prior(delta, gamma)
    return w1 / (w1 + w2)


def sweep_rows(runs):
    """A sweep's rows, delta-major, from each delta's columns ``(delta, gammas,
    p_w1, p_w2, p_w3, eu_a, eu_b, regions)``: one ``SweepRow`` per gamma,
    built by keyword from the values at its place."""
    rows = []
    for delta, gammas, p_w1, p_w2, p_w3, eu_a, eu_b, regions in runs:
        for j in range(len(gammas)):
            rows.append(SweepRow(
                delta=delta, gamma=gammas[j], p_w1=p_w1[j], p_w2=p_w2[j], p_w3=p_w3[j],
                eu_a=eu_a[j], eu_b=eu_b[j], region=regions[j],
            ))
    return rows
