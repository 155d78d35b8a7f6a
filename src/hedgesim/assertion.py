"""Common-ground dynamics: assertion as elimination, then listener inference.

A common ground is an immutable snapshot of the worlds still treated as
live at a conversation step. Asserting a sentence intersects the live set
with the sentence's extension. The listener then re-weights the survivors
by Bayes' rule against an idealized signal-choice model: at each live
world the speaker is imagined to send the strongest sentence true there,
with ``epsilon`` probability mass spread over the alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .game import GAME_RANGES, check_parameter
from .semantics import STRENGTH_ORDER, Formula, extension
from .worlds import WorldModel


class AbsurdUpdateError(ValueError):
    """The asserted sentence is incompatible with every live world."""


class UnexpectedSignalError(ValueError):
    """The observed signal has zero probability under the likelihood model."""


class NoAssertableSignalError(ValueError):
    """No sentence in the repertoire can be asserted."""


@dataclass(frozen=True)
class CommonGround:
    """The live worlds at conversation step ``time``, in model world order."""

    time: int
    live: tuple[str, ...]
    model: WorldModel

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"time must be non-negative, got {self.time!r}")
        if not self.live:
            raise ValueError("common ground cannot be empty")
        if len(set(self.live)) != len(self.live):
            raise ValueError("duplicate worlds in common ground")
        for world in self.live:
            self.model.index(world)


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


def speaker_signal(
    model: WorldModel,
    speaker: str,
    world: str,
    repertoire: tuple[Formula, ...] = STRENGTH_ORDER,
) -> Formula:
    """The strongest sentence true throughout the speaker's cell at ``world``.

    Truthfulness is built in: the speaker asserts only what holds at every
    world she cannot rule out. With the full repertoire a pooled model
    always offers some assertable sentence; a restricted repertoire (say,
    bare atoms only) can leave the speaker with nothing to say.
    """
    cell = model.cell(speaker, world)
    for formula in repertoire:
        if cell <= extension(model, formula):
            return formula
    raise NoAssertableSignalError(
        f"no sentence in {[f.text for f in repertoire]} is true throughout "
        f"{speaker!r}'s cell {sorted(cell)}"
    )


def ideal_signal(
    model: WorldModel,
    world: str,
    repertoire: tuple[Formula, ...] = STRENGTH_ORDER,
) -> Formula:
    """The strongest sentence true at ``world`` itself.

    This is the signal a fully informed truthful speaker would pick, which
    is what the listener's likelihood model imputes world by world (the
    listener reasons about what would have been sent in each live world,
    not about the speaker's actual uncertainty).
    """
    model.index(world)
    for formula in repertoire:
        if world in extension(model, formula):
            return formula
    raise NoAssertableSignalError(
        f"no sentence in {[f.text for f in repertoire]} is true at {world!r}"
    )


@dataclass(frozen=True)
class SignalLikelihoods:
    """Per-world sending probabilities over the signals live in a common ground.

    Row convention: the world's designated (strongest-true) signal carries
    1 - epsilon and the remaining live signals split epsilon evenly; with a
    single live signal the row is degenerate at 1. Every row sums to 1.
    """

    matrix: Mapping[tuple[Formula, str], float]
    epsilon: float
    signals: tuple[Formula, ...]
    worlds: tuple[str, ...]

    def __post_init__(self) -> None:
        check_parameter(GAME_RANGES, "epsilon", self.epsilon)
        for world in self.worlds:
            row = sum(self.matrix[(signal, world)] for signal in self.signals)
            if abs(row - 1.0) > 1e-12:
                raise ValueError(f"likelihood row for {world!r} sums to {row!r}, not 1")
        object.__setattr__(self, "matrix", dict(self.matrix))

    @classmethod
    def for_common_ground(
        cls,
        cg: CommonGround,
        epsilon: float,
        repertoire: tuple[Formula, ...] = STRENGTH_ORDER,
    ) -> "SignalLikelihoods":
        """Build the listener's likelihood table for the given live set.

        `repertoire` bounds the sentences the listener imagines the speaker
        choosing among; after observing a hedge, passing the atoms plus the
        observed sentence keeps the imagined alternatives on the observed
        hedge's side (the full order would impute the positive hedge at
        every contested world, giving a negative hedge zero probability).
        """
        designated = {
            world: ideal_signal(cg.model, world, repertoire) for world in cg.live
        }
        signals = tuple(f for f in STRENGTH_ORDER if f in set(designated.values()))
        count = len(signals)
        matrix: dict[tuple[Formula, str], float] = {}
        for world in cg.live:
            for signal in signals:
                if count == 1:
                    probability = 1.0
                elif signal is designated[world]:
                    probability = 1.0 - epsilon
                else:
                    probability = epsilon / (count - 1)
                matrix[(signal, world)] = probability
        return cls(matrix=matrix, epsilon=epsilon, signals=signals, worlds=cg.live)

    def probability(self, signal: Formula, world: str) -> float:
        return self.matrix.get((signal, world), 0.0)


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
