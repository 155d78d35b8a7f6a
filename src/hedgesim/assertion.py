"""Common-ground dynamics: assertion as elimination, then listener inference.

A common ground is an immutable snapshot of the worlds still treated as
live at a conversation step. Asserting a sentence intersects the live set
with the sentence's extension, which ``semantics.extension`` works out
without visiting a world. The listener then re-weights the survivors
by Bayes' rule against an idealized signal-choice model: at each live
world the speaker is imagined to send the first of phi, not phi and the
heard sentence that is true there, with ``epsilon`` probability mass
spread over the alternatives. A listener who imagined the strongest
sentence true there would impute the positive hedge wherever both hedges
hold, and so give a heard negative hedge zero probability.
"""

from __future__ import annotations

from collections import namedtuple

from .params import GAME_RANGES, Checked, check_parameter
from .semantics import STRENGTH_ORDER, Formula, extension
from .worlds import WorldModel


class AbsurdUpdateError(ValueError):
    """The asserted sentence is incompatible with every live world."""


class UnexpectedSignalError(ValueError):
    """The observed signal has zero probability under the likelihood model."""


class NoAssertableSignalError(ValueError):
    """No sentence the rule tries is true where it must be."""


class CommonGround(Checked, namedtuple("CommonGround", "time live model")):
    """The live worlds of ``model`` at conversation step ``time``, in its world order."""

    __slots__ = ()

    def _checked(self) -> CommonGround:
        if self.time < 0:
            raise ValueError(f"time must be non-negative, got {self.time!r}")
        if not self.live:
            raise ValueError("common ground cannot be empty")
        if len(set(self.live)) != len(self.live):
            raise ValueError("duplicate worlds in common ground")
        for world in self.live:
            self.model.index(world)
        return self


def initial_common_ground(model: WorldModel) -> CommonGround:
    """cg(0): every world of the model is live."""
    return CommonGround(time=0, live=model.worlds, model=model)


def base_rate(cg: CommonGround) -> dict[str, float]:
    """Uniform distribution over the live worlds."""
    share = 1.0 / len(cg.live)
    return {world: share for world in cg.live}


def update(cg: CommonGround, formula: Formula) -> CommonGround:
    """Assertion as elimination: keep the live worlds where the sentence is true."""
    true_at = extension(cg.model, formula)
    surviving = tuple(w for w in cg.live if w in true_at)
    if not surviving:
        raise AbsurdUpdateError(
            f"{formula.text!r} is incompatible with the common ground {list(cg.live)}"
        )
    return CommonGround(time=cg.time + 1, live=surviving, model=cg.model)


def speaker_signal(model: WorldModel, speaker: str, world: str) -> Formula:
    """The strongest sentence true throughout the speaker's cell at ``world``.

    Truthfulness is built in: the speaker asserts only what holds at every
    world the speaker cannot rule out. A pooled model always offers some
    assertable sentence; a hand-built model whose atoms are both empty
    offers none.
    """
    cell = model.cell(speaker, world)
    for formula in STRENGTH_ORDER:
        if cell <= extension(model, formula):
            return formula
    raise NoAssertableSignalError(
        f"no sentence in {[f.text for f in STRENGTH_ORDER]} is true throughout "
        f"{speaker!r}'s cell {sorted(cell)}"
    )


class SignalLikelihoods(Checked, namedtuple("SignalLikelihoods", "designated epsilon")):
    """Per-world sending probabilities over the signals live in a common ground.

    ``designated`` maps each live world to the signal the listener imagines
    sent there, and is kept as a copy; the designated signals are the live
    ones. Row rule: the designated signal carries 1 - epsilon and the other
    live signals split epsilon evenly; with a single live signal the row is
    degenerate at 1. Every row sums to 1, and off the live worlds and
    signals the probability is 0.
    """

    __slots__ = ()

    def _checked(self) -> SignalLikelihoods:
        check_parameter(GAME_RANGES, "epsilon", self.epsilon)
        return tuple.__new__(type(self), (dict(self.designated), self.epsilon))

    @classmethod
    def for_common_ground(
        cls, cg: CommonGround, epsilon: float, observed: Formula
    ) -> "SignalLikelihoods":
        """Build the listener's likelihood model after hearing ``observed``.

        Each live world gets the first of phi, not phi and ``observed`` that
        is true there: a speaker sure of an atom asserts it, and otherwise
        sends what was heard. Each of those sentences' extensions is worked
        out once.
        """
        tried = [
            (f, extension(cg.model, f))
            for f in dict.fromkeys((Formula.PHI, Formula.NOT_PHI, observed))
        ]
        designated: dict[str, Formula] = {}
        for world in cg.live:
            for formula, true_at in tried:
                if world in true_at:
                    designated[world] = formula
                    break
            else:
                raise NoAssertableSignalError(
                    f"no sentence in {[f.text for f, _ in tried]} is true at {world!r}"
                )
        return cls(designated=designated, epsilon=epsilon)

    @property
    def signals(self) -> tuple[Formula, ...]:
        live = set(self.designated.values())
        return tuple(f for f in STRENGTH_ORDER if f in live)

    def probability(self, signal: Formula, world: str) -> float:
        live = set(self.designated.values())
        if world not in self.designated or signal not in live:
            return 0.0
        if len(live) == 1:
            return 1.0
        if signal is self.designated[world]:
            return 1.0 - self.epsilon
        return self.epsilon / (len(live) - 1)


def listener_posterior(
    cg: CommonGround, observed: Formula, likelihoods: SignalLikelihoods
) -> dict[str, float]:
    """Bayes over the live worlds: uniform base rate times the observed
    signal's likelihood, renormalized."""
    prior = base_rate(cg)
    weights = {
        world: likelihoods.probability(observed, world) * prior[world]
        for world in cg.live
    }
    marginal = sum(weights.values())
    if marginal <= 0.0:
        raise UnexpectedSignalError(
            f"{observed.text!r} has zero probability from the common ground {list(cg.live)}"
        )
    return {world: weight / marginal for world, weight in weights.items()}
