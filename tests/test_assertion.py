import itertools
import random

import pytest
from conftest import random_model
from oracles import TRUE, evaluate

from hedgesim import assertion
from hedgesim.assertion import (
    AbsurdUpdateError,
    CommonGround,
    NoAssertableSignalError,
    SignalLikelihoods,
    UnexpectedSignalError,
    base_rate,
    initial_common_ground,
    listener_posterior,
    speaker_signal,
    update,
)
from hedgesim.semantics import STRENGTH_ORDER, Formula, extension
from hedgesim.worlds import NOT_PHI, PHI, WorldModel, common_belief


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
    for formula in STRENGTH_ORDER:
        once = update(cg0, formula)
        twice = update(once, formula)
        assert set(once.live) <= set(cg0.live)
        assert twice.live == once.live
    for first, second in itertools.product(STRENGTH_ORDER, repeat=2):
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
                assert evaluate(model, signal, world) is TRUE
                for cell_world in model.cell(agent, world):
                    assert evaluate(model, signal, cell_world) is TRUE


def test_speaker_signal_without_an_assertable_sentence():
    empty = WorldModel(
        agents=("S",),
        worlds=("w1", "w2"),
        partitions={"S": (frozenset({"w1", "w2"}),)},
        valuation={PHI: frozenset(), NOT_PHI: frozenset()},
    )
    with pytest.raises(NoAssertableSignalError) as raised:
        speaker_signal(empty, "S", "w2")
    assert str(raised.value) == (
        "no sentence in ['phi', 'not phi', 'might phi', 'might not phi'] "
        "is true throughout 'S''s cell ['w1', 'w2']"
    )


def test_ideal_signal_designations(canonical_model):
    lik = SignalLikelihoods.for_common_ground(
        initial_common_ground(canonical_model), 0.01, Formula.MIGHT_PHI
    )
    assert lik.designated == {
        "w1": Formula.PHI,
        "w2": Formula.MIGHT_PHI,
        "w3": Formula.NOT_PHI,
    }


@pytest.mark.parametrize(
    "observed, designated, expected_calls",
    [
        (Formula.MIGHT_PHI, {"w1": Formula.PHI, "w2": Formula.MIGHT_PHI},
         [Formula.PHI, Formula.NOT_PHI, Formula.MIGHT_PHI]),
        (Formula.PHI, {"w1": Formula.PHI}, [Formula.PHI, Formula.NOT_PHI]),
    ],
)
def test_likelihoods_compute_each_extension_once(
    canonical_model, monkeypatch, observed, designated, expected_calls
):
    calls = []

    def counted(model, formula):
        calls.append(formula)
        return extension(model, formula)

    cg1 = update(initial_common_ground(canonical_model), observed)
    monkeypatch.setattr(assertion, "extension", counted)
    lik = SignalLikelihoods.for_common_ground(cg1, 0.01, observed)
    assert lik.designated == designated
    assert calls == expected_calls


def test_likelihoods_without_an_assertable_designation(canonical_model):
    cg0 = initial_common_ground(canonical_model)
    with pytest.raises(NoAssertableSignalError) as raised:
        SignalLikelihoods.for_common_ground(cg0, 0.01, Formula.PHI)
    assert str(raised.value) == "no sentence in ['phi', 'not phi'] is true at 'w2'"


# --- likelihoods and posterior ----------------------------------------------


def test_likelihoods_two_signal_display(canonical_model):
    cg1 = update(initial_common_ground(canonical_model), Formula.MIGHT_PHI)
    lik = SignalLikelihoods.for_common_ground(cg1, 0.01, Formula.MIGHT_PHI)
    assert lik.signals == (Formula.PHI, Formula.MIGHT_PHI)
    assert lik.probability(Formula.PHI, "w1") == 0.99
    assert lik.probability(Formula.MIGHT_PHI, "w1") == 0.01
    assert lik.probability(Formula.PHI, "w2") == 0.01
    assert lik.probability(Formula.MIGHT_PHI, "w2") == 0.99


def heard_common_grounds(rng, count):
    """(common ground, heard signal, epsilon) over random pooled models: the
    common ground updated by each signal with a non-empty extension."""
    for _ in range(count):
        model = random_model(rng)
        epsilon = rng.uniform(0.0, 0.49)
        cg0 = initial_common_ground(model)
        for signal in STRENGTH_ORDER:
            if extension(model, signal):
                yield update(cg0, signal), signal, epsilon


def test_likelihood_rows_sum_to_one():
    for cg, heard, epsilon in heard_common_grounds(random.Random(111), 100):
        lik = SignalLikelihoods.for_common_ground(cg, epsilon, heard)
        for world in cg.live:
            row = sum(lik.probability(signal, world) for signal in lik.signals)
            assert abs(row - 1.0) <= 1e-12


def oracle_designations(cg, observed):
    """Each live world's first of phi, not phi and ``observed`` true there,
    read off ``evaluate``; None when some live world has none."""
    designated = {}
    for w in cg.live:
        true_there = [
            f for f in (Formula.PHI, Formula.NOT_PHI, observed)
            if evaluate(cg.model, f, w) is TRUE
        ]
        if not true_there:
            return None
        designated[w] = true_there[0]
    return designated


def oracle_probability(designated, epsilon, signal, world):
    """The row rule over the oracle's designations: 0 off the live worlds and
    off the designated signals."""
    live_signals = set(designated.values())
    if world not in designated or signal not in live_signals:
        return 0.0
    if len(live_signals) == 1:
        return 1.0
    if signal is designated[world]:
        return 1.0 - epsilon
    return epsilon / (len(live_signals) - 1)


def test_likelihoods_match_an_evaluate_oracle_random():
    # Every heard signal over the initial common ground and over each
    # updated one: run_scenario's case, where the heard signal built the
    # common ground, and the cases where some live world has no designation.
    rng = random.Random(131)
    zeros = {"off the live set": 0, "undesignated signal": 0, "no designation": 0}
    for _ in range(150):
        model = random_model(rng)
        epsilon = rng.uniform(0.0, 0.49)
        cg0 = initial_common_ground(model)
        cgs = [cg0] + [update(cg0, signal) for signal in STRENGTH_ORDER if extension(model, signal)]
        for cg, observed in itertools.product(cgs, STRENGTH_ORDER):
            designated = oracle_designations(cg, observed)
            if designated is None:
                with pytest.raises(NoAssertableSignalError):
                    SignalLikelihoods.for_common_ground(cg, epsilon, observed)
                zeros["no designation"] += 1
                continue
            lik = SignalLikelihoods.for_common_ground(cg, epsilon, observed)
            assert lik.designated == designated
            for signal in STRENGTH_ORDER:
                for world in model.worlds:
                    expected = oracle_probability(designated, epsilon, signal, world)
                    assert lik.probability(signal, world) == expected, (signal, world)
                    if world not in cg.live:
                        zeros["off the live set"] += 1
                    elif signal not in lik.signals:
                        zeros["undesignated signal"] += 1
    assert all(zeros.values()), zeros


def test_likelihoods_store_only_designations_and_epsilon():
    assert SignalLikelihoods._fields == ("designated", "epsilon")


def test_posterior_reproduces_display(canonical_model):
    cg1 = update(initial_common_ground(canonical_model), Formula.MIGHT_PHI)
    exact_lik = SignalLikelihoods.for_common_ground(cg1, 0.0, Formula.MIGHT_PHI)
    exact = listener_posterior(cg1, Formula.MIGHT_PHI, exact_lik)
    assert exact == {"w1": 0.0, "w2": 1.0}
    noisy = listener_posterior(
        cg1, Formula.MIGHT_PHI, SignalLikelihoods.for_common_ground(cg1, 0.01, Formula.MIGHT_PHI)
    )
    assert abs(noisy["w2"] - 0.99) <= 1e-12
    mirror = listener_posterior(cg1, Formula.PHI, exact_lik)
    assert mirror == {"w1": 1.0, "w2": 0.0}


def test_posterior_epsilon_convergence(canonical_model):
    cg1 = update(initial_common_ground(canonical_model), Formula.MIGHT_PHI)
    for epsilon in (0.1, 0.01, 0.001):
        lik = SignalLikelihoods.for_common_ground(cg1, epsilon, Formula.MIGHT_PHI)
        posterior = listener_posterior(cg1, Formula.MIGHT_PHI, lik)
        assert abs(posterior["w2"] - (1.0 - epsilon)) <= 1e-12


def test_posterior_mirror_hedge(canonical_model):
    # the negative hedge narrows to {w2, w3}, and the listener lands on the
    # contested world, mirroring the positive-hedge case
    cg = update(initial_common_ground(canonical_model), Formula.MIGHT_NOT_PHI)
    assert cg.live == ("w2", "w3")
    lik = SignalLikelihoods.for_common_ground(cg, 0.01, Formula.MIGHT_NOT_PHI)
    assert lik.signals == (Formula.NOT_PHI, Formula.MIGHT_NOT_PHI)
    posterior = listener_posterior(cg, Formula.MIGHT_NOT_PHI, lik)
    assert abs(posterior["w2"] - 0.99) <= 1e-12


def test_public_api_runs_speaker_l_at_w2(canonical_model):
    # the public stages give what `simulate tests/data/speaker_l.scn` reports
    signal = speaker_signal(canonical_model, "L", "w2")
    assert signal is Formula.MIGHT_NOT_PHI
    cg1 = update(initial_common_ground(canonical_model), signal)
    lik = SignalLikelihoods.for_common_ground(cg1, 0.01, signal)
    posterior = listener_posterior(cg1, signal, lik)
    assert posterior == pytest.approx({"w2": 0.99, "w3": 0.01}, abs=1e-12)


def test_posterior_is_distribution_random():
    rng = random.Random(121)
    for cg, heard, epsilon in heard_common_grounds(rng, 100):
        lik = SignalLikelihoods.for_common_ground(cg, epsilon, heard)
        observed = rng.choice(lik.signals)
        posterior = listener_posterior(cg, observed, lik)
        assert abs(sum(posterior.values()) - 1.0) <= 1e-12
        assert all(p >= 0.0 for p in posterior.values())


def test_posterior_unexpected_signal(canonical_model):
    cg1 = update(initial_common_ground(canonical_model), Formula.MIGHT_PHI)
    lik = SignalLikelihoods.for_common_ground(cg1, 0.01, Formula.MIGHT_PHI)
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
    # without hedges the speaker at the contested world has nothing to assert
    # (S's cell there lies inside neither atom's extension), the common
    # ground stays put, and neither unanimous belief goes public
    cell = canonical_model.cell("S", "w2")
    assert not cell <= extension(canonical_model, Formula.PHI)
    assert not cell <= extension(canonical_model, Formula.NOT_PHI)
    assert common_belief(canonical_model, canonical_model.valuation[NOT_PHI]) == frozenset()
    assert common_belief(canonical_model, canonical_model.valuation["phi"]) == frozenset()
