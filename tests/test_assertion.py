import itertools
import random

import pytest

from hedgesim import assertion
from hedgesim.assertion import (
    AbsurdUpdateError,
    CommonGround,
    NoAssertableSignalError,
    SignalLikelihoods,
    UnexpectedSignalError,
    base_rate,
    ideal_signal,
    initial_common_ground,
    listener_posterior,
    speaker_signal,
    update,
)
from hedgesim.semantics import Formula, TruthValue, evaluate, extension
from hedgesim.worlds import NOT_PHI, SoritesSeries, common_belief, pool_states


def random_model(rng, max_n=20, max_agents=4):
    n = rng.randint(3, max_n)
    agents = rng.randint(2, max_agents)
    flips = {f"a{i}": rng.randint(2, n) for i in range(agents)}
    return pool_states(SoritesSeries(n, flips))


# --- common ground ----------------------------------------------------------


def test_base_rate_examples(canonical_model):
    cg0 = initial_common_ground(canonical_model)
    assert base_rate(cg0) == {w: pytest.approx(1 / 3) for w in ("w1", "w2", "w3")}
    cg1 = update(cg0, Formula.MIGHT_PHI)
    assert base_rate(cg1) == {"w1": 0.5, "w2": 0.5}
    singleton = update(cg0, Formula.NOT_PHI)
    assert base_rate(singleton) == {"w3": 1.0}


def test_update_examples(canonical_model):
    cg0 = initial_common_ground(canonical_model)
    assert update(cg0, Formula.MIGHT_PHI).live == ("w1", "w2")
    assert update(cg0, Formula.NOT_PHI).live == ("w3",)
    assert update(cg0, Formula.MIGHT_PHI).time == 1


def test_update_idempotent_contractive_commutative(canonical_model):
    cg0 = initial_common_ground(canonical_model)
    for formula in Formula:
        once = update(cg0, formula)
        twice = update(once, formula)
        assert set(once.live) <= set(cg0.live)
        assert twice.live == once.live
    for first, second in itertools.product(Formula, repeat=2):
        try:
            one_way = update(update(cg0, first), second)
        except AbsurdUpdateError:
            continue
        other_way = update(update(cg0, second), first)
        assert one_way.live == other_way.live
        assert one_way.time == other_way.time == 2


def test_update_absurd(canonical_model):
    cg0 = initial_common_ground(canonical_model)
    narrowed = update(cg0, Formula.NOT_PHI)  # {w3}
    with pytest.raises(AbsurdUpdateError):
        update(narrowed, Formula.PHI)


def test_update_computes_the_extension_once(canonical_model, monkeypatch):
    calls = []

    def counted(model, formula):
        calls.append(formula)
        return extension(model, formula)

    monkeypatch.setattr(assertion, "extension", counted)
    cg1 = update(initial_common_ground(canonical_model), Formula.MIGHT_PHI)
    assert cg1.live == ("w1", "w2")
    assert calls == [Formula.MIGHT_PHI]


def test_common_ground_validation(canonical_model):
    with pytest.raises(ValueError):
        CommonGround(time=0, live=(), model=canonical_model)
    with pytest.raises(ValueError):
        CommonGround(time=-1, live=("w1",), model=canonical_model)


# --- speaker signals --------------------------------------------------------


def test_speaker_signal_examples(canonical_model):
    assert speaker_signal(canonical_model, "S", "w2") is Formula.MIGHT_PHI
    assert speaker_signal(canonical_model, "S", "w1") is Formula.MIGHT_PHI  # same cell as w2
    assert speaker_signal(canonical_model, "S", "w3") is Formula.NOT_PHI
    assert speaker_signal(canonical_model, "L", "w1") is Formula.PHI
    assert speaker_signal(canonical_model, "L", "w2") is Formula.MIGHT_NOT_PHI


def test_speaker_signal_truthful_random():
    rng = random.Random(101)
    for _ in range(150):
        model = random_model(rng)
        for agent in model.agents:
            for world in model.worlds:
                signal = speaker_signal(model, agent, world)
                assert evaluate(model, signal, world) is TruthValue.TRUE
                for cell_world in model.cell(agent, world):
                    assert evaluate(model, signal, cell_world) is TruthValue.TRUE


def test_speaker_signal_bare_repertoire_can_fail(canonical_model):
    bare = (Formula.PHI, Formula.NOT_PHI)
    with pytest.raises(NoAssertableSignalError):
        speaker_signal(canonical_model, "S", "w2", repertoire=bare)
    assert speaker_signal(canonical_model, "S", "w3", repertoire=bare) is Formula.NOT_PHI


def test_ideal_signal_designations(canonical_model):
    assert ideal_signal(canonical_model, "w1") is Formula.PHI
    assert ideal_signal(canonical_model, "w2") is Formula.MIGHT_PHI
    assert ideal_signal(canonical_model, "w3") is Formula.NOT_PHI


# --- likelihoods and posterior ----------------------------------------------


def test_likelihoods_two_signal_display(canonical_model):
    cg1 = update(initial_common_ground(canonical_model), Formula.MIGHT_PHI)
    lik = SignalLikelihoods.for_common_ground(cg1, 0.01)
    assert lik.signals == (Formula.PHI, Formula.MIGHT_PHI)
    assert lik.probability(Formula.PHI, "w1") == 0.99
    assert lik.probability(Formula.MIGHT_PHI, "w1") == 0.01
    assert lik.probability(Formula.PHI, "w2") == 0.01
    assert lik.probability(Formula.MIGHT_PHI, "w2") == 0.99


def test_likelihood_rows_sum_to_one(canonical_model):
    rng = random.Random(111)
    for _ in range(100):
        model = random_model(rng)
        cg = initial_common_ground(model)
        epsilon = rng.uniform(0.0, 0.49)
        lik = SignalLikelihoods.for_common_ground(cg, epsilon)
        for world in cg.live:
            row = sum(lik.probability(signal, world) for signal in lik.signals)
            assert abs(row - 1.0) <= 1e-12


def test_posterior_reproduces_display(canonical_model):
    cg1 = update(initial_common_ground(canonical_model), Formula.MIGHT_PHI)
    exact = listener_posterior(cg1, Formula.MIGHT_PHI, SignalLikelihoods.for_common_ground(cg1, 0.0))
    assert exact == {"w1": 0.0, "w2": 1.0}
    noisy = listener_posterior(cg1, Formula.MIGHT_PHI, SignalLikelihoods.for_common_ground(cg1, 0.01))
    assert abs(noisy["w2"] - 0.99) <= 1e-12
    mirror = listener_posterior(cg1, Formula.PHI, SignalLikelihoods.for_common_ground(cg1, 0.0))
    assert mirror == {"w1": 1.0, "w2": 0.0}


def test_posterior_epsilon_convergence(canonical_model):
    cg1 = update(initial_common_ground(canonical_model), Formula.MIGHT_PHI)
    for epsilon in (0.1, 0.01, 0.001):
        posterior = listener_posterior(
            cg1, Formula.MIGHT_PHI, SignalLikelihoods.for_common_ground(cg1, epsilon)
        )
        assert abs(posterior["w2"] - (1.0 - epsilon)) <= 1e-12


def test_posterior_mirror_hedge(canonical_model):
    # the negative hedge narrows to {w2, w3}; with the observed-signal
    # repertoire the listener lands on the contested world, mirroring the
    # positive-hedge case
    cg = update(initial_common_ground(canonical_model), Formula.MIGHT_NOT_PHI)
    assert cg.live == ("w2", "w3")
    repertoire = (Formula.PHI, Formula.NOT_PHI, Formula.MIGHT_NOT_PHI)
    lik = SignalLikelihoods.for_common_ground(cg, 0.01, repertoire=repertoire)
    assert lik.signals == (Formula.NOT_PHI, Formula.MIGHT_NOT_PHI)
    posterior = listener_posterior(cg, Formula.MIGHT_NOT_PHI, lik)
    assert abs(posterior["w2"] - 0.99) <= 1e-12
    # the default full-order repertoire imputes the positive hedge at w2
    # instead, leaving the observed negative hedge unexpected
    with pytest.raises(UnexpectedSignalError):
        listener_posterior(
            cg, Formula.MIGHT_NOT_PHI, SignalLikelihoods.for_common_ground(cg, 0.01)
        )


def test_posterior_is_distribution_random():
    rng = random.Random(121)
    for _ in range(100):
        model = random_model(rng)
        cg = initial_common_ground(model)
        lik = SignalLikelihoods.for_common_ground(cg, rng.uniform(0.0, 0.4))
        observed = rng.choice(lik.signals)
        posterior = listener_posterior(cg, observed, lik)
        assert abs(sum(posterior.values()) - 1.0) <= 1e-12
        assert all(p >= 0.0 for p in posterior.values())


def test_posterior_unexpected_signal(canonical_model):
    cg1 = update(initial_common_ground(canonical_model), Formula.MIGHT_PHI)
    lik = SignalLikelihoods.for_common_ground(cg1, 0.01)
    with pytest.raises(UnexpectedSignalError):
        listener_posterior(cg1, Formula.MIGHT_NOT_PHI, lik)


# --- the end-to-end coordination stories --------------------------------------


def test_definite_signal_makes_belief_public(canonical_model):
    # nothing is public before any signal
    all_qbar = canonical_model.valuation[NOT_PHI]
    assert common_belief(canonical_model, all_qbar) == frozenset()
    # speaker at w3 sends the bare negative atom; afterwards it is public
    cg0 = initial_common_ground(canonical_model)
    signal = speaker_signal(canonical_model, "S", "w3")
    assert signal is Formula.NOT_PHI
    cg1 = update(cg0, signal)
    assert cg1.live == ("w3",)
    assert common_belief(canonical_model, all_qbar, cg1.live) == frozenset({"w3"})


def test_bare_protocol_leaves_no_public_belief(canonical_model):
    # without hedges the speaker at the contested world has nothing to assert,
    # the common ground stays put, and neither unanimous belief goes public
    with pytest.raises(NoAssertableSignalError):
        speaker_signal(canonical_model, "S", "w2", repertoire=(Formula.PHI, Formula.NOT_PHI))
    assert common_belief(canonical_model, canonical_model.valuation[NOT_PHI]) == frozenset()
    assert common_belief(canonical_model, canonical_model.valuation["phi"]) == frozenset()
