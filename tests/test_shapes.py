"""The six pooled model shapes of a two-agent march, run end to end.

Pooling a march of n = 5 states with flips (S, L) yields one of six shapes:
flip.S is below, equal to or above flip.L, and the later flip is at n or
not. Each row below was worked out by hand from the definitions, with no
code run. The profile column pools the march (``worlds.world_pools``,
judged at each pool's earliest state) and reads each agent's q-worlds, its
partition (q-worlds against the rest) and the atoms' unanimous worlds. The
run columns take R(w) as the union of the agents' cells at w, pick the
strongest sentence true throughout the speaker's cell, keep the worlds
where it is true, designate at each survivor the first of (phi, not phi,
signal) true there, apply Bayes at epsilon = 0.01 over a uniform base rate,
and take the greatest fixpoint of everyone-thinks on the signal's atom
within the survivors. The region column is still to come: the game stage
does not yet read the pooled model.
"""

import pytest

from hedgesim.game import GameConfig
from hedgesim.scenario_io import Scenario, audit_report, run_scenario
from hedgesim.semantics import Formula, check_frame
from hedgesim.worlds import Q, SoritesSeries, judgment_proposition, pool_states

PHI, NOT_PHI = Formula.PHI, Formula.NOT_PHI
MIGHT_PHI, MIGHT_NOT_PHI = Formula.MIGHT_PHI, Formula.MIGHT_NOT_PHI

# Rows shared by several shapes: (signal, live worlds, posterior, public-belief worlds).
ONLY_W1 = (PHI, ("w1",), {"w1": 1.0}, {"w1"})
POSITIVE_HEDGE = (MIGHT_PHI, ("w1", "w2"), {"w1": 0.01, "w2": 0.99}, set())
NEGATIVE_HEDGE = (MIGHT_NOT_PHI, ("w2", "w3"), {"w2": 0.99, "w3": 0.01}, set())

# (flip.S, flip.L) -> ({agent: (its q-worlds, its partition cells)}, phi worlds, not-phi worlds).
PROFILES = {
    # w1 = {1}, w2 = {2..4}, w3 = {5}; at w2 (state 2) S judges qbar, L q.
    (2, 4): (
        {"S": ({"w1"}, [{"w1"}, {"w2", "w3"}]), "L": ({"w1", "w2"}, [{"w1", "w2"}, {"w3"}])},
        {"w1"},
        {"w3"},
    ),
    # w1 = {1}, w2 = {2..5}; at w2 (state 2) S judges qbar, L q.
    (2, 5): (
        {"S": ({"w1"}, [{"w1"}, {"w2"}]), "L": ({"w1", "w2"}, [{"w1", "w2"}])},
        {"w1"},
        set(),
    ),
    # w1 = {1, 2}, w2 = {3}, w3 = {4, 5}; at w2 (state 3) both judge qbar.
    (3, 3): (
        {agent: ({"w1"}, [{"w1"}, {"w2", "w3"}]) for agent in "SL"},
        {"w1"},
        {"w2", "w3"},
    ),
    # w1 = {1..4}, w2 = {5}; at w2 (state 5) both judge qbar.
    (5, 5): (
        {agent: ({"w1"}, [{"w1"}, {"w2"}]) for agent in "SL"},
        {"w1"},
        {"w2"},
    ),
    # The canonical march. w1 = {1}, w2 = {2..4}, w3 = {5}; at w2 (state 2) S judges q, L qbar.
    (4, 2): (
        {"S": ({"w1", "w2"}, [{"w1", "w2"}, {"w3"}]), "L": ({"w1"}, [{"w1"}, {"w2", "w3"}])},
        {"w1"},
        {"w3"},
    ),
    # w1 = {1}, w2 = {2..5}; at w2 (state 2) S judges q, L qbar.
    (5, 2): (
        {"S": ({"w1", "w2"}, [{"w1", "w2"}]), "L": ({"w1"}, [{"w1"}, {"w2"}])},
        {"w1"},
        set(),
    ),
}

# (flip.S, flip.L) -> (frame witness, or None when transitive; {(speaker, world): row}).
SHAPES = {
    # R(w1) = {w1, w2}, R(w2) = all, R(w3) = {w2, w3}.
    (2, 4): (
        ("w1", "w2", "w3"),
        {
            ("S", "w1"): ONLY_W1,
            ("S", "w2"): NEGATIVE_HEDGE,
            ("S", "w3"): NEGATIVE_HEDGE,
            ("L", "w1"): POSITIVE_HEDGE,
            ("L", "w2"): POSITIVE_HEDGE,
            ("L", "w3"): (NOT_PHI, ("w3",), {"w3": 1.0}, {"w3"}),
        },
    ),
    # R is total.
    (2, 5): (
        None,
        {
            ("S", "w1"): ONLY_W1,
            ("S", "w2"): POSITIVE_HEDGE,
            ("L", "w1"): POSITIVE_HEDGE,
            ("L", "w2"): POSITIVE_HEDGE,
        },
    ),
    # R is the agents' shared partition.
    (3, 3): (
        None,
        {
            (speaker, world): row
            for speaker in "SL"
            for world, row in (
                ("w1", ONLY_W1),
                ("w2", (NOT_PHI, ("w2", "w3"), {"w2": 0.5, "w3": 0.5}, {"w2", "w3"})),
                ("w3", (NOT_PHI, ("w2", "w3"), {"w2": 0.5, "w3": 0.5}, {"w2", "w3"})),
            )
        },
    ),
    # R is the identity.
    (5, 5): (
        None,
        {
            (speaker, world): row
            for speaker in "SL"
            for world, row in (
                ("w1", ONLY_W1),
                ("w2", (NOT_PHI, ("w2",), {"w2": 1.0}, {"w2"})),
            )
        },
    ),
    # The canonical march. R as for (2, 4).
    (4, 2): (
        ("w1", "w2", "w3"),
        {
            ("S", "w1"): POSITIVE_HEDGE,
            ("S", "w2"): POSITIVE_HEDGE,
            ("S", "w3"): (NOT_PHI, ("w3",), {"w3": 1.0}, {"w3"}),
            ("L", "w1"): ONLY_W1,
            ("L", "w2"): NEGATIVE_HEDGE,
            ("L", "w3"): NEGATIVE_HEDGE,
        },
    ),
    # R is total.
    (5, 2): (
        None,
        {
            ("S", "w1"): POSITIVE_HEDGE,
            ("S", "w2"): POSITIVE_HEDGE,
            ("L", "w1"): ONLY_W1,
            ("L", "w2"): POSITIVE_HEDGE,
        },
    ),
}

RUNS = [
    pytest.param(flips, speaker, world, row, id=f"S{flips[0]}L{flips[1]}-{speaker}@{world}")
    for flips, (_, rows) in SHAPES.items()
    for (speaker, world), row in rows.items()
]


def shape_series(flips):
    return SoritesSeries(5, {"S": flips[0], "L": flips[1]})


def test_the_table_holds_every_speaker_at_every_pooled_world():
    assert len(RUNS) == 30
    assert set(PROFILES) == set(SHAPES)
    for flips, (_, rows) in SHAPES.items():
        model = pool_states(shape_series(flips))
        assert set(rows) == {(a, w) for a in model.agents for w in model.worlds}, flips


@pytest.mark.parametrize("flips", list(PROFILES), ids=lambda f: f"S{f[0]}L{f[1]}")
def test_shape_profile(flips):
    agents, phi, not_phi = PROFILES[flips]
    model = pool_states(shape_series(flips))
    assert set(agents) == set(model.agents)
    for agent, (q_worlds, cells) in agents.items():
        assert judgment_proposition(model, agent, Q) == q_worlds, agent
        assert list(model.partitions[agent]) == cells, agent
    assert (model.valuation[PHI.text], model.valuation[NOT_PHI.text]) == (phi, not_phi)


@pytest.mark.parametrize("flips", list(SHAPES), ids=lambda f: f"S{f[0]}L{f[1]}")
def test_shape_frame(flips):
    frame = check_frame(pool_states(shape_series(flips)))
    witness = SHAPES[flips][0]
    assert (frame.transitive, frame.witness) == (witness is None, witness)


@pytest.mark.parametrize("flips,speaker,world,row", RUNS)
def test_shape_run(flips, speaker, world, row):
    signal, live, posterior, public = row
    report = run_scenario(
        Scenario(
            series=shape_series(flips),
            canonical=False,
            config=GameConfig(delta=0.7, gamma=0.2, epsilon=0.01),
            speaker=speaker,
            world=world,
        )
    )
    assert report.signal is signal
    assert report.dialogue[-1].live == live
    assert report.posterior == pytest.approx(posterior, abs=1e-12)
    assert report.public_belief_worlds == public


def test_every_two_agent_shape_passes_the_audit(two_agent_shapes):
    """``audit_report`` over each of the 738 shapes up to n = 8: the signal
    holds at the actual world and at every survivor, and the posterior is a
    distribution over the survivors. ``run_scenario`` audits as it runs, so
    a failing shape is named by either call's error."""
    assert len(two_agent_shapes) == 738
    assert len({(march.n, *march.flips.values()) for march, _, _ in two_agent_shapes}) == 139
    config, failed = GameConfig(delta=0.7, gamma=0.2, epsilon=0.01), []
    for march, world, speaker in two_agent_shapes:
        try:
            audit_report(run_scenario(Scenario(march, False, config, speaker, world, 4)))
        except Exception as error:  # listed, so that every failing shape is named
            failed.append((march.n, march.flips, speaker, world, repr(error)))
    assert not failed


def test_a_shape_hedges_exactly_when_no_public_belief_forms(two_agent_shapes):
    """The abstract's first claim, over each of the 738 shapes up to n = 8
    through ``run_scenario``: the speaker says ``might`` exactly when the
    signal's atom is common belief at no surviving world. 406 shapes hedge
    and 332 assert a bare atom, so neither side of the law is empty."""
    config, failed, hedged = GameConfig(delta=0.7, gamma=0.2, epsilon=0.01), [], 0
    for march, world, speaker in two_agent_shapes:
        try:
            report = run_scenario(Scenario(march, False, config, speaker, world, 4))
        except Exception as error:  # listed, so that every failing shape is named
            failed.append((march.n, march.flips, speaker, world, repr(error)))
            continue
        hedged += report.signal.is_modal
        if report.signal.is_modal != (not report.public_belief_worlds):
            failed.append((march.n, march.flips, speaker, world, report.signal.text,
                           sorted(report.public_belief_worlds)))
    assert not failed
    assert (hedged, len(two_agent_shapes) - hedged) == (406, 332)
