"""The four-sentence signal language and its evaluation over world models.

The repertoire is closed: a positive atom, its negation, and an epistemic
"might" over either. Atoms can be gappy at contested worlds; might-sentences
quantify existentially over accessible worlds and are always bivalent.
Each sentence's extension is a set the model already holds, so reading it
builds nothing; :func:`evaluate` is the per-world oracle behind it.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .worlds import NOT_PHI, PHI, WorldModel, accessible


class TruthValue(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    GAP = "gap"


class Formula(enum.Enum):
    """The assertable sentences, strongest first.

    Bare atoms outrank might-sentences: a speaker confident enough for the
    atom would never fall back to the hedge, so hearers read the hedge as
    meaningful. Member order is the strength order.
    """

    PHI = PHI
    NOT_PHI = NOT_PHI
    MIGHT_PHI = "might " + PHI
    MIGHT_NOT_PHI = "might " + NOT_PHI

    @property
    def text(self) -> str:
        return self.value

    @property
    def is_modal(self) -> bool:
        return self in (Formula.MIGHT_PHI, Formula.MIGHT_NOT_PHI)

    @property
    def atom(self) -> "Formula":
        """The bare atom under the modal; identity for atoms."""
        if self is Formula.MIGHT_PHI:
            return Formula.PHI
        if self is Formula.MIGHT_NOT_PHI:
            return Formula.NOT_PHI
        return self


#: All formulas in decreasing strength.
STRENGTH_ORDER: tuple[Formula, ...] = tuple(Formula)

#: Where each formula's extension lives on a model: whether it is modal (a
#: might-set) or not (a valuation), and its atom key. One lookup here costs
#: less than the enum properties it stands for.
_EXTENSION_KEY = {formula: (formula.is_modal, formula.atom.text) for formula in Formula}


def evaluate(model: WorldModel, formula: Formula, world: str) -> TruthValue:
    """Three-valued for atoms, two-valued for might-sentences.

    An atom is true where the valuation puts it, false where it puts the
    opposite atom, and gappy elsewhere. ``might A`` is true at w iff R(w),
    the worlds accessible from w, meets the extension of A, else false.
    """
    if formula.is_modal:
        meets = not accessible(model, world).isdisjoint(model.valuation[formula.atom.text])
        return TruthValue.TRUE if meets else TruthValue.FALSE
    model.index(world)
    if world in model.valuation[formula.text]:
        return TruthValue.TRUE
    opposite = NOT_PHI if formula is Formula.PHI else PHI
    if world in model.valuation[opposite]:
        return TruthValue.FALSE
    return TruthValue.GAP


def extension(model: WorldModel, formula: Formula) -> frozenset[str]:
    """The worlds where the formula is true, read off the model.

    An atom's extension is its valuation, and ``might A``'s is the model's
    might-set for A: the union of the agents' cells that meet A, built once
    with the model. Either way the result is one of the model's own sets.
    :func:`evaluate` is the per-world definition checked against it.
    """
    modal, key = _EXTENSION_KEY[formula]
    return (model.might if modal else model.valuation)[key]


class FrameReport(NamedTuple):
    """Frame properties of the accessibility relation, with a witness triple
    (u, v, x) such that u reaches v and v reaches x but u does not reach x
    whenever transitivity fails."""

    reflexive: bool
    symmetric: bool
    transitive: bool
    witness: tuple[str, str, str] | None

    def summary(self) -> str:
        parts = [
            "reflexive" if self.reflexive else "non-reflexive",
            "symmetric" if self.symmetric else "non-symmetric",
            "transitive" if self.transitive else "non-transitive",
        ]
        line = " ".join(parts)
        if self.witness is not None:
            line += ", witness ({})".format(",".join(self.witness))
        return line


def check_frame(model: WorldModel) -> FrameReport:
    """Exhaustively test reflexivity, symmetry, and transitivity."""
    worlds = model.worlds
    reach = {w: accessible(model, w) for w in worlds}
    reflexive = all(w in reach[w] for w in worlds)
    symmetric = all(u in reach[v] for u in worlds for v in reach[u])
    witness = next(
        (
            (u, v, x)
            for u in worlds
            for v in worlds
            if v in reach[u]
            for x in worlds
            if x in reach[v] and x not in reach[u]
        ),
        None,
    )
    return FrameReport(
        reflexive=reflexive,
        symmetric=symmetric,
        transitive=witness is None,
        witness=witness,
    )
