import inspect
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgesim import hedging
from hedgesim.game import GameConfig, expected_utility
from hedgesim.hedging import (
    propensities_at_step,
    propensity_sequence,
    run_hedging,
    stepwise_eu,
)

# Frozen by iterating the recurrence independently before these tests were
# written (fractions cross-check agrees to 1 ulp).
F10 = 0.5918305334363934
F11 = 0.40847316103951686


def test_recurrence_seeds_exact():
    assert propensity_sequence(1) == [1.0, 0.5]


def test_recurrence_early_values():
    f = propensity_sequence(4)
    assert abs(f[2] - 2 / 3) <= 1e-12
    assert f[3] == 0.5 / (0.5 + f[2])
    assert abs(f[3] - 3 / 7) <= 1e-12
    assert abs(f[4] - 14 / 23) <= 1e-12
    assert abs(f[2] - 0.666) <= 1e-3
    assert abs(f[3] - 0.428) <= 1e-3


def test_recurrence_frozen_tail_values():
    f = propensity_sequence(11)
    assert abs(f[10] - F10) <= 1e-12
    assert abs(f[11] - F11) <= 1e-12
    assert abs(f[10] - 0.592) <= 1e-3
    assert abs(f[11] - 0.408) <= 1e-3


def test_recurrence_stays_in_unit_interval_far_out():
    values = propensity_sequence(10_000)
    assert all(0.0 < v <= 1.0 for v in values)
    denominators = [values[n - 1] + values[n - 2] for n in range(2, len(values))]
    assert min(denominators) >= 0.9


def test_oscillation_bands():
    values = propensity_sequence(200)
    for n in range(4, 201):
        if n % 2 == 0:
            assert 0.55 <= values[n] <= 0.70
        else:
            assert 0.35 <= values[n] <= 0.50


def test_pair_sums_descend_toward_one():
    values = propensity_sequence(200)
    sums = [values[n] + values[n + 1] for n in range(200)]
    for n in range(2, 49):
        assert sums[n] >= 1.0 - 1e-12
        if n < 48:
            assert sums[n + 1] <= sums[n] + 1e-12
    for n in range(40, 200):
        assert abs(sums[n] - 1.0) <= 1e-2


def test_propensity_rejects_bad_arguments():
    with pytest.raises(ValueError):
        propensities_at_step(-1)
    with pytest.raises(ValueError):
        propensity_sequence(-1)


@pytest.mark.parametrize("call", [propensity_sequence, propensities_at_step])
def test_step_index_is_bounded_before_any_work(call):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^step index must be an integer in \[0, 100000\], got 100001$"):
            call(100_001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # a list of 100002 floats alone takes about 3 MB
    assert len(propensity_sequence(100_000)) == 100_001


def test_propensities_at_step():
    assert propensities_at_step(0) == (1.0, 0.0)
    assert propensities_at_step(1) == (1.0, 0.5)
    assert propensities_at_step(2) == (propensity_sequence(2)[2], 0.5)
    speaker, listener = propensities_at_step(3)
    assert abs(speaker - 0.666) <= 1e-3
    assert abs(listener - 0.428) <= 1e-3


def test_stepwise_eu_examples():
    config = GameConfig(delta=0.7, gamma=0.2)
    assert stepwise_eu(config, 0, "a") == expected_utility(config, "S", "a")
    assert stepwise_eu(config, 0, "b") == expected_utility(config, "S", "b")
    value = stepwise_eu(config, 3, "a")
    assert value == pytest.approx(0.56 + 0.2 * (2 / 3) * (3 / 7), abs=1e-12)
    assert abs(value - (0.56 + 0.2 * 0.285)) <= 2e-3

    other = GameConfig(delta=0.6, gamma=0.3)
    assert stepwise_eu(other, 3, "a") == pytest.approx(0.42 + 0.3 * (2 / 7), abs=1e-12)
    assert abs(stepwise_eu(other, 3, "a") - 0.5055) <= 2e-3


def test_stepwise_eu_no_borderline_mass_changes_nothing():
    config = GameConfig(delta=0.4, gamma=0.0)
    for n in range(0, 60):
        for action in ("a", "b"):
            assert stepwise_eu(config, n, action) == stepwise_eu(config, 0, action)


def test_stepwise_eu_never_below_step_zero_random():
    rng = random.Random(131)
    for _ in range(40):
        config = GameConfig(delta=rng.uniform(0.01, 0.99), gamma=rng.uniform(0.0, 0.99))
        for action in ("a", "b"):
            floor = stepwise_eu(config, 0, action)
            for n in range(0, 101, 7):
                assert stepwise_eu(config, n, action) >= floor


def test_stepwise_eu_rejects_bad_action():
    with pytest.raises(ValueError):
        stepwise_eu(GameConfig(delta=0.5, gamma=0.1), 3, "c")


def test_run_hedging_trace():
    config = GameConfig(delta=0.7, gamma=0.2)
    trace = run_hedging(config, max_steps=50, tolerance=1e-6)
    assert len(trace.steps) == 51
    assert (trace.steps[0].p_speaker_a, trace.steps[0].p_listener_a) == (1.0, 0.0)
    assert trace.steps[0].eu_a == expected_utility(config, "S", "a")
    assert trace.steps[3].eu_a == pytest.approx(0.6171428571428571, abs=1e-12)

    summary = trace.summary
    assert 0.55 <= summary.even_tail <= 0.65
    assert 0.35 <= summary.odd_tail <= 0.45
    assert summary.pair_sums_converged is True
    assert summary.pair_sums_descending is True
    assert summary.eu_never_below_step0 is True


def test_run_hedging_zero_gamma_flat():
    trace = run_hedging(GameConfig(delta=0.7, gamma=0.0), max_steps=20)
    assert len({step.eu_a for step in trace.steps}) == 1
    assert len({step.eu_b for step in trace.steps}) == 1


def test_run_hedging_tight_tolerance_not_converged():
    trace = run_hedging(GameConfig(delta=0.7, gamma=0.2), max_steps=6, tolerance=1e-12)
    assert trace.summary.pair_sums_converged is False


def test_run_hedging_rejects_bad_arguments():
    config = GameConfig(delta=0.7, gamma=0.2)
    with pytest.raises(ValueError):
        run_hedging(config, max_steps=3)
    with pytest.raises(ValueError):
        run_hedging(config, max_steps=10, tolerance=0.0)


def test_hesitation_is_a_fixed_seed_not_an_option():
    for function in (propensity_sequence, propensities_at_step, stepwise_eu, run_hedging):
        assert "hesitation" not in inspect.signature(function).parameters
    assert "hesitation" not in hedging.HEDGING_RANGES
    assert "hesitation" not in hedging.HedgingTrace._fields
    assert propensity_sequence(1)[1] == hedging.HESITATION == 0.5


@settings(deadline=None)
@given(
    delta=st.floats(0.01, 0.99),
    gamma=st.floats(0.0, 0.99),
    max_steps=st.integers(4, 300),
)
def test_run_hedging_steps_match_their_oracles(delta, gamma, max_steps):
    config = GameConfig(delta=delta, gamma=gamma)
    trace = run_hedging(config, max_steps=max_steps)
    values = [1.0, 0.5]
    while len(values) <= max_steps:
        values.append(values[-2] / (values[-1] + values[-2]))
    assert [step.n for step in trace.steps] == list(range(max_steps + 1))
    for step in trace.steps:
        n = step.n
        expected = (1.0, 0.0) if n == 0 else (values[n - n % 2], values[n - 1 + n % 2])
        assert (step.p_speaker_a, step.p_listener_a) == expected
        assert step.eu_a == stepwise_eu(config, n, "a")
        assert step.eu_b == stepwise_eu(config, n, "b")


def test_run_hedging_evaluates_expected_utility_a_constant_number_of_times(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return expected_utility(*args, **kwargs)

    monkeypatch.setattr(hedging, "expected_utility", counted)
    config = GameConfig(delta=0.7, gamma=0.2)
    counts = []
    for max_steps in (10, 10_000):
        calls.clear()
        run_hedging(config, max_steps=max_steps)
        counts.append(len(calls))
    assert counts[0] == counts[1] == 2


def test_hedging_keeps_no_process_wide_cache():
    for name, value in vars(hedging).items():
        assert not hasattr(value, "cache_info"), name


def test_run_hedging_retains_no_memory_once_dropped():
    config = GameConfig(delta=0.7, gamma=0.2)
    tracemalloc.start()
    try:
        run_hedging(config, max_steps=20_000)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1_000_000
