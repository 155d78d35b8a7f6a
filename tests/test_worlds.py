import random

import pytest
from conftest import marches, models, random_model, random_series
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import judgment, judgment_vector, reach, thinks

from hedgesim.worlds import (
    NOT_PHI,
    PHI,
    Q,
    QBAR,
    InvalidSeriesError,
    SoritesSeries,
    UnknownLabelError,
    WorldModel,
    accessible,
    common_belief,
    everyone_thinks,
    judgment_proposition,
    pool_states,
    world_pools,
)


# --- forced march -----------------------------------------------------------


def test_forced_march_judgments():
    series = SoritesSeries(5, {"S": 4, "L": 2})
    assert [judgment(series, "S", t) for t in series.states] == [Q, Q, Q, QBAR, QBAR]
    assert [judgment(series, "L", t) for t in series.states] == [Q, QBAR, QBAR, QBAR, QBAR]
    for agent in series.agents:
        assert [series.judges_q(agent, t) for t in series.states] == [
            judgment(series, agent, t) == Q for t in series.states
        ]


def test_forced_march_identical_flips_no_disagreement():
    series = SoritesSeries(3, {"S": 2, "L": 2})
    for t in series.states:
        vector = judgment_vector(series, t)
        assert len(set(vector)) == 1


def test_forced_march_disagreement_window():
    series = SoritesSeries(10, {"S": 7, "L": 3})
    disagree = [t for t in series.states if len(set(judgment_vector(series, t))) > 1]
    assert disagree == [3, 4, 5, 6]
    # earlier flipper says qbar there, later flipper still says q
    for t in disagree:
        assert judgment(series, "L", t) == QBAR
        assert judgment(series, "S", t) == Q


def test_forced_march_judgments_monotone_random():
    rng = random.Random(4242)
    for _ in range(100):
        series = random_series(rng)
        for agent in series.agents:
            flips_seen = [series.judges_q(agent, t) for t in series.states]
            assert flips_seen == sorted(flips_seen, reverse=True)
            assert flips_seen[0] is True and flips_seen[-1] is False


@pytest.mark.parametrize(
    "n,flips",
    [
        (2, {"S": 2}),
        (3, {}),
        (5, {"S": 1}),
        (5, {"S": 6}),
        (5, {"S": 4, "L": 0}),
        (5, {"S": 2.5}),
        (100_001, {"S": 2}),
    ],
)
def test_forced_march_rejects_malformed(n, flips):
    with pytest.raises(InvalidSeriesError):
        SoritesSeries(n, flips)


def test_state_count_is_bounded():
    model = pool_states(SoritesSeries(100_000, {"S": 2, "L": 3}))
    assert model.members["w3"] == tuple(range(4, 100_001))
    with pytest.raises(InvalidSeriesError, match=r"^n must be an integer in \[3, 100000\], got 100001$"):
        SoritesSeries(100_001, {"S": 2, "L": 3})


def test_forced_march_unknown_lookups():
    series = SoritesSeries(5, {"S": 4})
    with pytest.raises(UnknownLabelError):
        series.judges_q("nobody", 1)
    with pytest.raises(UnknownLabelError):
        series.judges_q("S", 6)


# --- pooling ----------------------------------------------------------------


def test_pool_canonical_shape(canonical_model):
    model = canonical_model
    assert model.worlds == ("w1", "w2", "w3")
    assert model.members == {"w1": (1,), "w2": (2, 3, 4), "w3": (5,)}
    assert model.partitions["S"] == (frozenset({"w1", "w2"}), frozenset({"w3"}))
    assert model.partitions["L"] == (frozenset({"w1"}), frozenset({"w2", "w3"}))
    assert model.valuation[PHI] == frozenset({"w1"})
    assert model.valuation[NOT_PHI] == frozenset({"w3"})


def test_pool_swapped_flips_mirrors_canonical():
    model = pool_states(SoritesSeries(5, {"S": 2, "L": 4}))
    assert model.partitions["L"] == (frozenset({"w1", "w2"}), frozenset({"w3"}))
    assert model.partitions["S"] == (frozenset({"w1"}), frozenset({"w2", "w3"}))


def test_pool_identical_flips():
    # Shared flip state pools to a singleton w2 where everyone already judges
    # qbar, so each partition is {w1} vs {w2, w3} and both non-phi worlds are
    # in the negative atom's extension.
    model = pool_states(SoritesSeries(5, {"S": 3, "L": 3}))
    assert model.worlds == ("w1", "w2", "w3")
    assert model.members["w2"] == (3,)
    for agent in model.agents:
        assert model.partitions[agent] == (frozenset({"w1"}), frozenset({"w2", "w3"}))
    assert model.valuation[PHI] == frozenset({"w1"})
    assert model.valuation[NOT_PHI] == frozenset({"w2", "w3"})


def test_pool_many_agents_three_worlds():
    model = pool_states(SoritesSeries(12, {"a": 3, "b": 5, "c": 8, "d": 10}))
    assert model.worlds == ("w1", "w2", "w3")
    assert model.members == {
        "w1": (1, 2),
        "w2": (3, 4, 5, 6, 7, 8, 9, 10),
        "w3": (11, 12),
    }
    assert model.valuation[PHI] == frozenset({"w1"})
    assert model.valuation[NOT_PHI] == frozenset({"w3"})


def test_pool_flip_at_last_state_drops_empty_pool():
    series = SoritesSeries(5, {"S": 5, "L": 2})
    model = pool_states(series)
    assert model.worlds == ("w1", "w2")
    assert model.members == {"w1": (1,), "w2": (2, 3, 4, 5)}
    assert world_pools(series) == {"w1": range(1, 2), "w2": range(2, 6)}


def test_pooling_soundness_random():
    rng = random.Random(20240917)
    for _ in range(300):
        series = random_series(rng)
        model = pool_states(series)
        lo = min(series.flips.values())
        hi = max(series.flips.values())
        all_q = {t for t in series.states if set(judgment_vector(series, t)) == {Q}}
        all_qbar = {t for t in series.states if set(judgment_vector(series, t)) == {QBAR}}
        assert set(model.members["w1"]) == all_q == set(range(1, lo))
        if "w3" in model.worlds:
            assert set(model.members["w3"]) == all_qbar - {hi}
        else:
            assert all_qbar == {hi}
        assert set(model.members["w2"]) == set(series.states) - all_q - (all_qbar - {hi})
        # two-agent middle pools are judgment-homogeneous except the last flip state
        if len(series.agents) == 2:
            vectors = {judgment_vector(series, t) for t in model.members["w2"] if t != hi}
            assert len(vectors) <= 1


def test_partition_validity_random():
    rng = random.Random(7)
    for _ in range(200):
        model = pool_states(random_series(rng))
        everything = set(model.worlds)
        for agent in model.agents:
            cells = model.partitions[agent]
            union = set()
            for cell in cells:
                assert cell and not (cell & union)
                union |= cell
            assert union == everything


def pooled_per_world(series):
    """Pooling world by world: judge each pool at its earliest state, group
    the worlds each agent judges alike, and put the atoms where the
    judgment is unanimous."""
    pools = world_pools(series)
    judgments = {
        agent: {w: judgment(series, agent, states[0]) for w, states in pools.items()}
        for agent in series.agents
    }
    partitions = {}
    for agent in series.agents:
        cells = (frozenset(w for w in pools if judgments[agent][w] == value) for value in (Q, QBAR))
        partitions[agent] = tuple(cell for cell in cells if cell)
    valuation = {
        key: frozenset(w for w in pools if all(judgments[a][w] == value for a in series.agents))
        for key, value in ((PHI, Q), (NOT_PHI, QBAR))
    }
    return judgments, partitions, valuation


@settings(deadline=None)
@given(marches())
def test_pooling_by_sets_equals_pooling_world_by_world(series):
    model = pool_states(series)
    assert (model.judgments, model.partitions, model.valuation) == pooled_per_world(series)
    for agent in model.agents:
        assert judgment_proposition(model, agent, Q) == model.partitions[agent][0]


ONE_CELL = {"S": (frozenset({"w1", "w2"}),)}
# Each rejection of a model's checks, in the order they run: the fields
# that differ from a valid two-world, one-agent model, and the message.
MODEL_REJECTIONS = [
    ({"worlds": ()}, "model needs at least one world"),
    ({"worlds": ("w1", "w1")}, "duplicate world labels"),
    ({"agents": (), "partitions": {}}, "agents must be non-empty and unique"),
    ({"agents": ("S", "S")}, "agents must be non-empty and unique"),
    ({"agents": ("S", "L")}, "partitions must cover exactly the model's agents"),
    ({"partitions": {"S": ONE_CELL["S"], "L": ONE_CELL["S"]}},
     "partitions must cover exactly the model's agents"),
    ({"partitions": {"S": (frozenset({"w1", "w2"}), frozenset())}},
     "empty partition cell for agent 'S'"),
    ({"partitions": {"S": (frozenset({"w1", "w2"}), frozenset({"w2"}))}},
     "overlapping partition cells for agent 'S'"),
    ({"partitions": {"S": (frozenset({"w1"}),)}},
     "partition for agent 'S' does not cover the world set"),
    ({"partitions": {"S": (frozenset({"w1", "w2", "w9"}),)}},
     "partition for agent 'S' does not cover the world set"),
    ({"valuation": {PHI: frozenset()}}, "valuation must assign 'not phi'"),
    ({"valuation": {NOT_PHI: frozenset()}}, "valuation must assign 'phi'"),
    ({"valuation": {PHI: frozenset({"w9"}), NOT_PHI: frozenset()}},
     "valuation of 'phi' mentions unknown worlds"),
    ({"valuation": {PHI: frozenset(), NOT_PHI: frozenset({"w9"})}},
     "valuation of 'not phi' mentions unknown worlds"),
    ({"valuation": {PHI: frozenset({"w1"}), NOT_PHI: frozenset({"w1", "w2"})}},
     "atom extensions overlap (a gap is permitted, overlap is not)"),
]


def test_model_validation_rejects_bad_partitions():
    valid = {
        "agents": ("S",),
        "worlds": ("w1", "w2"),
        "partitions": ONE_CELL,
        "valuation": {PHI: frozenset(), NOT_PHI: frozenset()},
    }
    assert WorldModel(**valid).worlds == ("w1", "w2")
    for changes, message in MODEL_REJECTIONS:
        with pytest.raises(ValueError) as excinfo:
            WorldModel(**{**valid, **changes})
        assert str(excinfo.value) == message, changes


# --- doxastic operators -----------------------------------------------------


def test_thinks_examples(canonical_model):
    assert thinks(canonical_model, "S", {"w1", "w2"}, "w1") is True
    assert thinks(canonical_model, "L", {"w1", "w2"}, "w2") is False
    for agent in canonical_model.agents:
        for world in canonical_model.worlds:
            assert thinks(canonical_model, agent, canonical_model.worlds, world) is True


def test_thinks_errors(canonical_model):
    # The library's belief reads an agent's cell at a world and a set of
    # the model's worlds; an unknown label in either is refused.
    with pytest.raises(UnknownLabelError, match="unknown agent 'nobody'"):
        canonical_model.cell("nobody", "w1")
    with pytest.raises(UnknownLabelError, match="unknown world 'w9'"):
        canonical_model.cell("S", "w9")
    for call in (
        lambda: everyone_thinks(canonical_model, {"w9"}),
        lambda: everyone_thinks(canonical_model, {"w1"}, {"w9"}),
        lambda: common_belief(canonical_model, {"w9"}),
        lambda: common_belief(canonical_model, {"w1"}, {"w9"}),
    ):
        with pytest.raises(UnknownLabelError, match=r"unknown worlds \['w9'\]"):
            call()


def test_thinks_monotone_random():
    rng = random.Random(99)
    for _ in range(100):
        model = random_model(rng)
        worlds = list(model.worlds)
        small = {w for w in worlds if rng.random() < 0.5}
        large = small | {w for w in worlds if rng.random() < 0.5}
        for agent in model.agents:
            for world in worlds:
                if thinks(model, agent, small, world):
                    assert thinks(model, agent, large, world)


def test_common_belief_examples(canonical_model):
    assert common_belief(canonical_model, {"w2", "w3"}) == frozenset()
    assert common_belief(canonical_model, {"w2", "w3"}, {"w3"}) == frozenset({"w3"})
    assert common_belief(canonical_model, canonical_model.worlds) == frozenset(canonical_model.worlds)
    assert common_belief(canonical_model, {"w3"}) == frozenset()
    assert common_belief(canonical_model, {"w3"}, {"w3"}) == frozenset({"w3"})


def test_common_belief_is_fixpoint_random():
    rng = random.Random(123)
    for _ in range(100):
        model = random_model(rng)
        worlds = list(model.worlds)
        prop = {w for w in worlds if rng.random() < 0.6}
        live = {w for w in worlds if rng.random() < 0.8} or set(worlds)
        result = common_belief(model, prop, live)
        assert result <= (prop & live)
        assert everyone_thinks(model, result, live) == result


def everyone_thinks_per_world(model, prop, live):
    return {w for w in live if all(model.cell(agent, w) & live <= prop for agent in model.agents)}


def common_belief_per_world(model, prop, live):
    current = prop & live
    while (shrunk := everyone_thinks_per_world(model, current, live)) != current:
        current = shrunk
    return current


@settings(deadline=None)
@given(models, st.data())
def test_belief_by_sets_equals_belief_world_by_world(model, data):
    subsets = st.sets(st.sampled_from(model.worlds))
    prop = data.draw(subsets)
    restriction = data.draw(st.none() | subsets)
    live = model.world_set if restriction is None else restriction
    assert everyone_thinks(model, prop, restriction) == everyone_thinks_per_world(model, prop, live)
    assert common_belief(model, prop, restriction) == common_belief_per_world(model, prop, live)


@settings(deadline=None)
@given(models, st.data())
def test_everyone_thinks_where_every_agent_thinks(model, data):
    prop = data.draw(st.sets(st.sampled_from(model.worlds)))
    every_agent = {w for w in model.worlds if all(thinks(model, a, prop, w) for a in model.agents)}
    assert everyone_thinks(model, prop) == every_agent


def test_everyone_thinks_restriction(canonical_model):
    # with all worlds live, nobody can publicise {w3}; restricted to {w3} it holds
    assert everyone_thinks(canonical_model, {"w3"}) == frozenset()
    assert everyone_thinks(canonical_model, {"w3"}, {"w3"}) == frozenset({"w3"})


# --- accessibility ----------------------------------------------------------


def test_accessible_examples(canonical_model):
    assert accessible(canonical_model, "w1") == frozenset({"w1", "w2"})
    for world in canonical_model.worlds:
        assert world in accessible(canonical_model, world)
    with pytest.raises(UnknownLabelError):
        accessible(canonical_model, "w9")


def test_accessibility_reflexive_symmetric_random():
    rng = random.Random(5)
    for _ in range(100):
        model = random_model(rng)
        for u in model.worlds:
            assert u in accessible(model, u)
            for v in model.worlds:
                shares_a_cell = any(
                    u in cell and v in cell for cells in model.partitions.values() for cell in cells
                )
                assert (v in accessible(model, u)) == (u in accessible(model, v)) == shares_a_cell


@settings(deadline=None)
@given(models)
def test_accessible_is_every_world_sharing_a_cell(model):
    for world in model.worlds:
        assert accessible(model, world) == reach(model, world)


def test_canonical_transitivity_failure(canonical_model):
    assert "w2" in accessible(canonical_model, "w1")
    assert "w3" in accessible(canonical_model, "w2")
    assert "w3" not in accessible(canonical_model, "w1")


# --- judgment propositions --------------------------------------------------


def test_judgment_proposition(canonical_model):
    q_side = judgment_proposition(canonical_model, "S", Q)
    qbar_side = judgment_proposition(canonical_model, "S", QBAR)
    assert q_side == frozenset({"w1", "w2"})
    assert qbar_side == frozenset({"w3"})
    assert q_side | qbar_side == canonical_model.world_set
    assert not q_side & qbar_side


def test_judgment_proposition_errors(canonical_model):
    with pytest.raises(UnknownLabelError):
        judgment_proposition(canonical_model, "nobody", Q)
    with pytest.raises(ValueError):
        judgment_proposition(canonical_model, "S", "maybe")
    bare = WorldModel(
        agents=("S",),
        worlds=("w1",),
        partitions={"S": (frozenset({"w1"}),)},
        valuation={PHI: frozenset({"w1"}), NOT_PHI: frozenset()},
    )
    with pytest.raises(ValueError):
        judgment_proposition(bare, "S", Q)
