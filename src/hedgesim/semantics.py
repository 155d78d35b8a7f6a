"""The four-sentence signal language and its evaluation over world models.

The repertoire is closed: a positive atom, its negation, and an epistemic
"might" over either. Atoms can be gappy at contested worlds; might-sentences
quantify existentially over accessible worlds and are always bivalent.
An atom's extension is the model's own valuation set; a might-sentence's
is worked out from the agents' cells in one pass, visiting no world.
"""

from __future__ import annotations

from collections import namedtuple

from .worlds import NOT_PHI, PHI, WorldModel


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


def extension(model: WorldModel, formula: Formula) -> frozenset[str]:
    """The worlds where the formula is true.

    An atom's extension is its valuation, the model's own set. ``might A``
    holds at w when R(w) meets A, that is, when some agent's cell at w
    meets A, so its extension is the union of the agents' cells that meet A.
    """
    atom = model.valuation[formula.atom.text]
    if not formula.is_modal:
        return atom
    return frozenset().union(*[
        cell for cells in model.partitions.values() for cell in cells if not cell.isdisjoint(atom)
    ])


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
    """Exhaustively test reflexivity, symmetry, and transitivity. R(w) is the
    union of the agents' cells at w: one pass joins each cell into its worlds' reach."""
    worlds = model.worlds
    reach: dict[str, set[str]] = {w: set() for w in worlds}
    for cells in model.partitions.values():
        for cell in cells:
            for w in cell:
                reach[w] |= cell
    reflexive = all([w in reach[w] for w in worlds])
    symmetric = all([u in reach[v] for u in worlds for v in reach[u]])
    witness = next((
        (u, v, x) for u in worlds for v in worlds if v in reach[u]
        for x in worlds if x in reach[v] and x not in reach[u]
    ), None)
    return FrameReport(reflexive, symmetric, witness is None, witness)
