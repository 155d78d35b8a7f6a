"""The four-sentence signal language and its evaluation over world models.

The repertoire is closed: a positive atom, its negation, and an epistemic
"might" over either. Atoms can be gappy at contested worlds; might-sentences
quantify existentially over accessible worlds and are always bivalent.
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


def evaluate(model: WorldModel, formula: Formula, world: str) -> TruthValue:
    """Three-valued for atoms, two-valued for might-sentences.

    An atom is true where the valuation puts it, false where it puts the
    opposite atom, and gappy elsewhere. ``might A`` is true at w iff A is
    true at some world accessible from w, else false.
    """
    model.index(world)
    if not formula.is_modal:
        if world in model.valuation[formula.text]:
            return TruthValue.TRUE
        opposite = NOT_PHI if formula is Formula.PHI else PHI
        if world in model.valuation[opposite]:
            return TruthValue.FALSE
        return TruthValue.GAP
    atom = formula.atom
    for other in model.worlds:
        if accessible(model, world, other) and evaluate(model, atom, other) is TruthValue.TRUE:
            return TruthValue.TRUE
    return TruthValue.FALSE


def extension(model: WorldModel, formula: Formula) -> frozenset[str]:
    """The worlds where the formula evaluates to true."""
    return frozenset(
        w for w in model.worlds if evaluate(model, formula, w) is TruthValue.TRUE
    )


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
    reaches = {
        (u, v) for u in worlds for v in worlds if accessible(model, u, v)
    }
    reflexive = all((w, w) in reaches for w in worlds)
    symmetric = all((v, u) in reaches for (u, v) in reaches)
    witness = next(
        (
            (u, v, x)
            for u in worlds
            for v in worlds
            for x in worlds
            if (u, v) in reaches and (v, x) in reaches and (u, x) not in reaches
        ),
        None,
    )
    return FrameReport(
        reflexive=reflexive,
        symmetric=symmetric,
        transitive=witness is None,
        witness=witness,
    )
