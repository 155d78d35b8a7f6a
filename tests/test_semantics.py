import copy
import pickle
import random

import pytest
from conftest import draw_partitions, models, random_model
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import FALSE, GAP, TRUE, evaluate, thinks

from hedgesim import semantics
from hedgesim.assertion import CommonGround, update
from hedgesim.semantics import STRENGTH_ORDER, Formula, check_frame, extension
from hedgesim.worlds import (
    NOT_PHI,
    PHI,
    Q,
    QBAR,
    SoritesSeries,
    UnknownLabelError,
    WorldModel,
    judgment_proposition,
    pool_states,
)


# --- formulas ---------------------------------------------------------------


def test_formula_parse_and_text():
    assert [formula.text for formula in STRENGTH_ORDER] == [
        "phi", "not phi", "might phi", "might not phi"
    ]


def test_formula_structure():
    assert Formula.MIGHT_PHI.atom is Formula.PHI
    assert Formula.MIGHT_NOT_PHI.atom is Formula.NOT_PHI
    assert Formula.PHI.atom is Formula.PHI
    assert [f.is_modal for f in STRENGTH_ORDER] == [False, False, True, True]
    assert STRENGTH_ORDER[0] is Formula.PHI  # atoms outrank modals


def test_formulas_survive_copy_and_pickle():
    for formula in STRENGTH_ORDER:
        assert copy.copy(formula) is copy.deepcopy(formula) is formula
        assert pickle.loads(pickle.dumps(formula)) is formula


# --- evaluation -------------------------------------------------------------


def test_evaluate_examples(canonical_model):
    assert evaluate(canonical_model, Formula.MIGHT_PHI, "w1") is TRUE
    assert evaluate(canonical_model, Formula.MIGHT_PHI, "w2") is TRUE
    assert evaluate(canonical_model, Formula.MIGHT_PHI, "w3") is FALSE
    assert evaluate(canonical_model, Formula.PHI, "w2") is GAP
    assert evaluate(canonical_model, Formula.PHI, "w1") is TRUE
    assert evaluate(canonical_model, Formula.PHI, "w3") is FALSE
    assert evaluate(canonical_model, Formula.NOT_PHI, "w3") is TRUE


def test_evaluate_unknown_world(canonical_model):
    # The library evaluates a sentence over a common ground's live worlds,
    # and a common ground naming a world outside the model is refused
    # before any update reads it.
    with pytest.raises(UnknownLabelError, match="unknown world 'w9'"):
        update(CommonGround(0, ("w1", "w9"), canonical_model), Formula.PHI)


def test_extension_examples(canonical_model):
    assert extension(canonical_model, Formula.MIGHT_PHI) == frozenset({"w1", "w2"})
    assert extension(canonical_model, Formula.PHI) == frozenset({"w1"})
    assert extension(canonical_model, Formula.MIGHT_NOT_PHI) == frozenset({"w2", "w3"})
    assert extension(canonical_model, Formula.NOT_PHI) == frozenset({"w3"})


@settings(deadline=None)
@given(models)
def test_extension_is_where_evaluate_is_true(model):
    for formula in STRENGTH_ORDER:
        true_at = {w for w in model.worlds if evaluate(model, formula, w) is TRUE}
        assert extension(model, formula) == true_at, formula


@st.composite
def replaced_models(draw):
    """Pooled and hand-built models rebuilt by ``_replace``, with
    their atoms swapped or a new partition per agent."""
    model = draw(models)
    if draw(st.booleans()):
        swapped = {PHI: model.valuation[NOT_PHI], NOT_PHI: model.valuation[PHI]}
        return model._replace(valuation=swapped)
    return model._replace(partitions=draw_partitions(draw, model.worlds, model.agents))


@settings(deadline=None)
@given(replaced_models())
def test_might_sets_follow_a_replaced_model(model):
    for formula in (Formula.MIGHT_PHI, Formula.MIGHT_NOT_PHI):
        true_at = {w for w in model.worlds if evaluate(model, formula, w) is TRUE}
        assert extension(model, formula) == true_at, formula


def test_replace_rebuilds_the_might_sets(canonical_model):
    swapped = canonical_model._replace(
        valuation={PHI: frozenset({"w3"}), NOT_PHI: frozenset({"w1"})}
    )
    assert swapped.might == {PHI: {"w2", "w3"}, NOT_PHI: {"w1", "w2"}}
    singletons = tuple(frozenset({w}) for w in canonical_model.worlds)
    fine = canonical_model._replace(
        partitions=dict.fromkeys(canonical_model.agents, singletons)
    )
    assert fine.might == {PHI: {"w1"}, NOT_PHI: {"w3"}}
    assert canonical_model.might == {PHI: {"w1", "w2"}, NOT_PHI: {"w2", "w3"}}


def test_extensions_are_frozen_whatever_sets_a_model_is_given():
    model = WorldModel(
        agents=("S",),
        worlds=("w1", "w2"),
        partitions={"S": (frozenset({"w1"}), frozenset({"w2"}))},
        valuation={PHI: {"w1"}, NOT_PHI: set()},
    )
    assert [extension(model, formula) for formula in STRENGTH_ORDER] == [{"w1"}, set(), {"w1"}, set()]
    assert all(type(extension(model, formula)) is frozenset for formula in STRENGTH_ORDER)


def test_might_bivalent_random():
    rng = random.Random(11)
    for _ in range(100):
        model = random_model(rng)
        for world in model.worlds:
            for formula in (Formula.MIGHT_PHI, Formula.MIGHT_NOT_PHI):
                assert evaluate(model, formula, world) in (TRUE, FALSE)


def test_might_false_set_is_complement(canonical_model):
    # bivalence makes the true-set exhaustive against the false-set
    for formula in (Formula.MIGHT_PHI, Formula.MIGHT_NOT_PHI):
        true_set = extension(canonical_model, formula)
        false_set = {
            w for w in canonical_model.worlds if evaluate(canonical_model, formula, w) is FALSE
        }
        assert true_set | false_set == canonical_model.world_set


def test_factivity_random():
    rng = random.Random(21)
    for _ in range(100):
        model = random_model(rng)
        assert extension(model, Formula.PHI) <= extension(model, Formula.MIGHT_PHI)
        assert extension(model, Formula.NOT_PHI) <= extension(model, Formula.MIGHT_NOT_PHI)


def test_might_monotone_random():
    rng = random.Random(31)
    might = {Formula.PHI: Formula.MIGHT_PHI, Formula.NOT_PHI: Formula.MIGHT_NOT_PHI}
    for _ in range(100):
        model = random_model(rng)
        for alpha in (Formula.PHI, Formula.NOT_PHI):
            for beta in (Formula.PHI, Formula.NOT_PHI):
                if extension(model, alpha) <= extension(model, beta):
                    assert extension(model, might[alpha]) <= extension(model, might[beta])


def test_might_phi_tracks_someone_thinking_q():
    rng = random.Random(41)
    for _ in range(150):
        model = random_model(rng)
        might = extension(model, Formula.MIGHT_PHI)
        someone_thinks_q = {
            w
            for w in model.worlds
            if any(
                thinks(model, agent, judgment_proposition(model, agent, Q), w)
                for agent in model.agents
            )
        }
        assert might == someone_thinks_q


def test_might_not_phi_tracks_someone_judging_qbar():
    rng = random.Random(43)
    for _ in range(150):
        model = random_model(rng)
        judges_qbar = {
            agent: judgment_proposition(model, agent, QBAR) for agent in model.agents
        }
        has_all_qbar_world = any(
            all(w in judges_qbar[agent] for agent in model.agents) for w in model.worlds
        )
        expected = (
            {w for w in model.worlds if any(w in judges_qbar[a] for a in model.agents)}
            if has_all_qbar_world
            else set()
        )
        assert extension(model, Formula.MIGHT_NOT_PHI) == expected


def counting(monkeypatch, module, name):
    """Count calls to ``module.<name>``, recursive ones included."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("formula", [Formula.MIGHT_PHI, Formula.MIGHT_NOT_PHI])
def test_might_reads_accessible_once_without_recursion(monkeypatch, canonical_model, formula):
    # The library reads the might-set off the model and never walks R(w).
    accessible_calls = counting(monkeypatch, semantics, "accessible")
    assert extension(canonical_model, formula) is canonical_model.might[formula.atom.text]
    assert accessible_calls == []


# --- frames -----------------------------------------------------------------


def test_frame_canonical(canonical_model):
    report = check_frame(canonical_model)
    assert report.reflexive is True
    assert report.symmetric is True
    assert report.transitive is False
    assert report.witness == ("w1", "w2", "w3")
    assert report.summary() == "reflexive symmetric non-transitive, witness (w1,w2,w3)"


def test_frame_single_world():
    model = WorldModel(
        agents=("S",),
        worlds=("w1",),
        partitions={"S": (frozenset({"w1"}),)},
        valuation={PHI: frozenset({"w1"}), NOT_PHI: frozenset()},
    )
    report = check_frame(model)
    assert (report.reflexive, report.symmetric, report.transitive) == (True, True, True)
    assert report.witness is None
    assert report.summary() == "reflexive symmetric transitive"


def test_frame_identical_flip_model_transitive():
    # all agents flip together: accessibility degenerates to an equivalence
    model = pool_states(SoritesSeries(5, {"S": 3, "L": 3}))
    report = check_frame(model)
    assert report.transitive is True
    assert report.witness is None


def test_frame_random_always_reflexive_symmetric():
    rng = random.Random(51)
    for _ in range(100):
        report = check_frame(random_model(rng))
        assert report.reflexive and report.symmetric


def assert_frame_matches_brute_force(model):
    """check_frame against pairs that share a cell, the witness being the
    first failing (u, v, x) in world order."""
    worlds = model.worlds
    pairs = {
        (u, v)
        for cells in model.partitions.values()
        for cell in cells
        for u in cell
        for v in cell
    }
    witnesses = [
        (u, v, x)
        for u in worlds
        for v in worlds
        for x in worlds
        if (u, v) in pairs and (v, x) in pairs and (u, x) not in pairs
    ]
    report = check_frame(model)
    assert report.reflexive == all((w, w) in pairs for w in worlds)
    assert report.symmetric == all((v, u) in pairs for u, v in pairs)
    assert report.transitive == (not witnesses)
    assert report.witness == (witnesses[0] if witnesses else None)


def test_frame_matches_brute_force_over_shared_cells():
    rng = random.Random(53)
    for _ in range(150):
        assert_frame_matches_brute_force(random_model(rng))


def test_frame_witness_follows_world_order_over_v_then_x():
    # A pooled model has at most three worlds, so each u has at most one
    # witness. Here a reaches b and c, b reaches e and c reaches d, so the
    # first witness is (a, b, e), where an x-before-v search finds (a, c, d).
    model = WorldModel(
        agents=("S", "L"),
        worlds=("a", "b", "c", "d", "e"),
        partitions={
            "S": (frozenset("abc"), frozenset("d"), frozenset("e")),
            "L": (frozenset("a"), frozenset("be"), frozenset("cd")),
        },
        valuation={PHI: frozenset("a"), NOT_PHI: frozenset("d")},
    )
    assert check_frame(model).witness == ("a", "b", "e")
    assert_frame_matches_brute_force(model)


def test_frame_reads_accessible_once_per_world(monkeypatch, canonical_model):
    calls = counting(monkeypatch, semantics, "accessible")
    check_frame(canonical_model)
    assert calls == [(canonical_model, world) for world in canonical_model.worlds]
