"""The four-sentence signal language and its evaluation over world models.

The repertoire is closed: a positive atom, its negation, and an epistemic
"might" over either. Atoms can be gappy at contested worlds; might-sentences
quantify existentially over accessible worlds and are always bivalent.
Each sentence's extension is a set the model already holds, so reading it
builds nothing; :func:`evaluate` is the per-world oracle behind it.
"""

from __future__ import annotations

from collections import namedtuple

from .worlds import NOT_PHI, PHI, WorldModel, accessible


class TruthValue:
    """The three values :func:`evaluate` returns."""

    TRUE = "true"
    FALSE = "false"
    GAP = "gap"


class Formula:
    """An assertable sentence: one of the four constants below.

    Each carries its ``text``, whether it ``is_modal``, and its ``atom``:
    the bare atom under the modal, itself for an atom.
    """

    __slots__ = ("text", "is_modal", "atom")

    def __init__(self, text: str, atom: Formula | None = None):
        self.text = text
        self.is_modal = atom is not None
        self.atom = self if atom is None else atom

    def __repr__(self) -> str:
        return f"<Formula {self.text!r}>"

    def __reduce__(self) -> str:
        # The constant's name, so ``copy`` and ``pickle`` hand back the constant.
        return "Formula." + self.text.upper().replace(" ", "_")


Formula.PHI = Formula(PHI)
Formula.NOT_PHI = Formula(NOT_PHI)
Formula.MIGHT_PHI = Formula("might " + PHI, Formula.PHI)
Formula.MIGHT_NOT_PHI = Formula("might " + NOT_PHI, Formula.NOT_PHI)

#: All formulas in decreasing strength. Bare atoms outrank might-sentences:
#: a speaker confident enough for the atom would never fall back to the
#: hedge, so hearers read the hedge as meaningful.
STRENGTH_ORDER: tuple[Formula, ...] = (
    Formula.PHI, Formula.NOT_PHI, Formula.MIGHT_PHI, Formula.MIGHT_NOT_PHI
)


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
    return (model.might if formula.is_modal else model.valuation)[formula.atom.text]


class FrameReport(namedtuple("FrameReport", "reflexive symmetric transitive witness")):
    """Frame properties of the accessibility relation: three flags, and a
    witness triple (u, v, x) such that u reaches v and v reaches x but u does
    not reach x whenever transitivity fails, else None."""

    __slots__ = ()

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
