import copy
import inspect
import math
import pickle
import random
import tracemalloc
from decimal import Decimal
from itertools import islice
from pathlib import Path
from unittest import mock

import oracles
import pytest
from conftest import reported_recurrence
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hedgesim import hedging
from hedgesim.game import GameConfig, expected_utility
from hedgesim.hedging import HedgingStep, run_hedging
from hedgesim.scenario_io import load_scenario, run_scenario

# Frozen by iterating the recurrence independently before these tests were
# written (fractions cross-check agrees to 1 ulp).
F10 = 0.5918305334363934
F11 = 0.40847316103951686


def test_recurrence_seeds_exact():
    assert reported_recurrence(1) == oracles.propensity_sequence(1) == [1.0, 0.5]


def test_recurrence_early_values():
    f = reported_recurrence(4)
    assert abs(f[2] - 2 / 3) <= 1e-12
    assert f[3] == 0.5 / (0.5 + f[2])
    assert abs(f[3] - 3 / 7) <= 1e-12
    assert abs(f[4] - 14 / 23) <= 1e-12
    assert abs(f[2] - 0.666) <= 1e-3
    assert abs(f[3] - 0.428) <= 1e-3


def test_recurrence_frozen_tail_values():
    f = reported_recurrence(11)
    assert abs(f[10] - F10) <= 1e-12
    assert abs(f[11] - F11) <= 1e-12
    assert abs(f[10] - 0.592) <= 1e-3
    assert abs(f[11] - 0.408) <= 1e-3


def test_recurrence_stays_in_unit_interval_far_out():
    values = reported_recurrence(10_000)
    assert all(0.0 < v <= 1.0 for v in values)
    denominators = [values[n - 1] + values[n - 2] for n in range(2, len(values))]
    assert min(denominators) >= 0.9


def test_oscillation_bands():
    values = reported_recurrence(200)
    for n in range(4, 201):
        if n % 2 == 0:
            assert 0.55 <= values[n] <= 0.70
        else:
            assert 0.35 <= values[n] <= 0.50


def test_pair_sums_descend_toward_one():
    values = reported_recurrence(200)
    sums = [values[n] + values[n + 1] for n in range(200)]
    for n in range(2, 49):
        assert sums[n] >= 1.0 - 1e-12
        if n < 48:
            assert sums[n + 1] <= sums[n] + 1e-12
    for n in range(40, 200):
        assert abs(sums[n] - 1.0) <= 1e-2


# The pair of doubles the recurrence settles on: f(n) alternates between
# them from n = 50 on, and each step's (speaker, listener) pair is this one
# from step 51 on.
FIXED_PAIR = (0.5915936234817635, 0.4084063765182366)


def test_the_recurrence_settles_on_the_fixed_pair():
    f = reported_recurrence(100_000)
    assert f[49] != FIXED_PAIR[1]
    assert all(value == FIXED_PAIR[n % 2] for n, value in enumerate(f[50:], start=50))
    steps = run_hedging(GameConfig(delta=0.7, gamma=0.2), max_steps=100_000).steps
    pairs = [(step.p_speaker_a, step.p_listener_a) for step in steps]
    assert pairs[50] != FIXED_PAIR
    assert set(pairs[51:]) == {FIXED_PAIR}


def test_the_recurrence_stops_at_its_first_repeated_step():
    # The bound only keeps a recurrence that never stops from hanging the test.
    pairs = list(islice(hedging._propensities(), 10_000))
    assert len(pairs) < 10_000
    repeats = [n for n in range(1, len(pairs)) if pairs[n] == pairs[n - 1]]
    assert repeats == [len(pairs) - 1]
    assert pairs[-1] == FIXED_PAIR


def test_step_52_is_the_first_step_equal_to_its_predecessor():
    steps = run_hedging(GameConfig(delta=0.7, gamma=0.2), max_steps=200).steps
    repeats = [step.n for previous, step in zip(steps, steps[1:]) if step[1:] == previous[1:]]
    assert repeats[0] == 52


# The most a float propensity through step 150 is off the decimal one, in
# units in the last place of the float; the measured worst is 4.41 ulp, at f(17).
ULP_BOUND = 4.5


def test_propensities_round_close_to_the_exact_recurrence():
    floats = reported_recurrence(150)
    exact = oracles.exact_propensities(1000)
    worst = max(abs(Decimal(x) - e) / Decimal(math.ulp(x)) for x, e in zip(floats, exact))
    assert worst <= ULP_BOUND
    # At 100 digits the decimal recurrence has stopped moving by f(1000):
    # its last two values are the exact (even, odd) limit.
    assert exact[-4:-2] == exact[-2:]
    limit = {n % 2: float(value) for n, value in enumerate(exact[-2:], start=len(exact) - 2)}
    # From the first pair of floats that repeats on, each float is the
    # double nearest the limit.
    first = next(n for n in range(2, 150) if floats[n : n + 2] == floats[n - 2 : n]) - 2
    assert first == 50
    assert all(value == limit[n % 2] for n, value in enumerate(floats[first:], start=first))


# In exact arithmetic the fixed pair (s*, l*) sums to 1, so at the fixed
# point the hedge adds the same gamma * c, with c = s* * l*, to both EUs. In
# doubles each gain (the last step's EU less step 0's) was within 0.54 units
# of 2**-52 (the ulp of 1.0) of gamma * c, and the two gains within 0.75 units
# of each other, over 600,000 random configs with tiny, whole and near-1 values
# and gamma = 0 among them.
GAIN_BOUND = 2.0**-52
EXACT_LIMIT = oracles.exact_propensities(1000)[-2:]
HEDGE_C = EXACT_LIMIT[0] * EXACT_LIMIT[1]


@settings(deadline=None, max_examples=25)
@given(
    delta=st.floats(2.2250738585072014e-308, 1.0, exclude_max=True),
    gamma=st.sampled_from((0.0, -0.0)) | st.floats(0.0, 1.0, exclude_max=True),
    max_steps=st.integers(52, 100_000),
)
@example(delta=0.7, gamma=0.2, max_steps=52)
@example(delta=0.43658320148852214, gamma=0.8311833396523128, max_steps=60)
@example(delta=0.07814080250073771, gamma=0.6189587862551443, max_steps=60)
@example(delta=0.7, gamma=0.0, max_steps=100_000)
def test_the_hedge_gains_gamma_c_on_both_actions(delta, gamma, max_steps):
    steps = run_hedging(GameConfig(delta=delta, gamma=gamma), max_steps).steps
    gain_a = steps[-1].eu_a - steps[0].eu_a
    gain_b = steps[-1].eu_b - steps[0].eu_b
    assert abs(gain_a - gain_b) <= GAIN_BOUND
    for gain in (gain_a, gain_b):
        assert abs(Decimal(gain) - Decimal(gamma) * HEDGE_C) <= Decimal(GAIN_BOUND)
    if gamma == 0.0:
        assert gain_a == gain_b == 0.0


def test_propensities_at_step():
    steps = run_hedging(GameConfig(delta=0.7, gamma=0.2), max_steps=4).steps
    pairs = [(step.p_speaker_a, step.p_listener_a) for step in steps]
    assert pairs[:3] == [(1.0, 0.0), (1.0, 0.5), (reported_recurrence(2)[2], 0.5)]
    speaker, listener = pairs[3]
    assert abs(speaker - 0.666) <= 1e-3
    assert abs(listener - 0.428) <= 1e-3


def test_stepwise_eu_examples():
    config = GameConfig(delta=0.7, gamma=0.2)
    steps = run_hedging(config, max_steps=4).steps
    assert steps[0].eu_a == expected_utility(config, "S", "a")
    assert steps[0].eu_b == expected_utility(config, "S", "b")
    value = steps[3].eu_a
    assert value == pytest.approx(0.56 + 0.2 * (2 / 3) * (3 / 7), abs=1e-12)
    assert abs(value - (0.56 + 0.2 * 0.285)) <= 2e-3

    other = run_hedging(GameConfig(delta=0.6, gamma=0.3), max_steps=4).steps
    assert other[3].eu_a == pytest.approx(0.42 + 0.3 * (2 / 7), abs=1e-12)
    assert abs(other[3].eu_a - 0.5055) <= 2e-3


def test_stepwise_eu_no_borderline_mass_changes_nothing():
    steps = run_hedging(GameConfig(delta=0.4, gamma=0.0), max_steps=59).steps
    for step in steps:
        assert (step.eu_a, step.eu_b) == (steps[0].eu_a, steps[0].eu_b)


def test_stepwise_eu_never_below_step_zero_random():
    rng = random.Random(131)
    for _ in range(40):
        config = GameConfig(delta=rng.uniform(0.01, 0.99), gamma=rng.uniform(0.0, 0.99))
        steps = run_hedging(config, max_steps=100).steps
        for step in steps[::7]:
            assert step.eu_a >= steps[0].eu_a
            assert step.eu_b >= steps[0].eu_b


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
    assert "hesitation" not in inspect.signature(run_hedging).parameters
    assert "hesitation" not in hedging.HEDGING_RANGES
    assert "hesitation" not in hedging.HedgingTrace._fields
    assert reported_recurrence(1)[1] == hedging.HESITATION == 0.5


# f(0..100000), the recurrence as ``oracles`` runs it, for every bound below.
ORACLE_VALUES = oracles.propensity_sequence(100_000)


def oracle_steps(config, max_steps, values=ORACLE_VALUES):
    """Steps 0..max_steps worked out one at a time by the oracles from the
    recurrence ``values``."""
    return tuple(
        HedgingStep(
            n,
            *oracles.propensities_at_step(n, values),
            oracles.stepwise_eu(config, n, "a", values),
            oracles.stepwise_eu(config, n, "b", values),
        )
        for n in range(max_steps + 1)
    )


@settings(deadline=None)
@given(
    delta=st.floats(0.01, 0.99),
    gamma=st.floats(0.0, 0.99),
    max_steps=st.integers(4, 300),
)
def test_run_hedging_steps_match_their_oracles(delta, gamma, max_steps):
    config = GameConfig(delta=delta, gamma=gamma)
    assert run_hedging(config, max_steps=max_steps).steps == oracle_steps(config, max_steps)


@pytest.mark.parametrize("gamma", [0.0, 0.2, 0.9])
def test_run_hedging_equals_the_oracles_for_every_small_bound(gamma):
    config = GameConfig(delta=0.7, gamma=gamma)
    for max_steps in range(4, 121):
        assert run_hedging(config, max_steps=max_steps).steps == oracle_steps(config, max_steps)


@settings(deadline=None, max_examples=20)
@given(
    delta=st.floats(0.01, 0.99),
    gamma=st.sampled_from((0.0, -0.0)) | st.floats(0.0, 0.99),
    max_steps=st.integers(4, 100_000),
)
@example(delta=0.7, gamma=0.0, max_steps=100_000)
@example(delta=0.7, gamma=-0.0, max_steps=100_000)
@example(delta=0.7, gamma=0.2, max_steps=100_000)
def test_run_hedging_equals_the_oracles_up_to_the_step_bound(delta, gamma, max_steps):
    config = GameConfig(delta=delta, gamma=gamma)
    trace = run_hedging(config, max_steps=max_steps)
    steps = tuple(trace.steps)
    assert steps == oracle_steps(config, max_steps)
    assert trace.summary == multi_pass_summary(steps, trace.tolerance)


def multi_pass_summary(steps, tolerance) -> tuple:
    """The summary read back from the steps, pass by pass: the pair sums
    f(n-1) + f(n) from step 1 on, then one pass per check."""
    pair_sums = [step.p_speaker_a + step.p_listener_a for step in steps[1:]]
    gap = abs(pair_sums[-1] - 1.0)
    descending = all(s >= 1.0 - 1e-12 for s in pair_sums[2:]) and all(
        later <= earlier + 1e-12 for earlier, later in zip(pair_sums[2:], pair_sums[3:])
    )
    first, last = steps[0], steps[-1]
    never_below = all(step.eu_a >= first.eu_a and step.eu_b >= first.eu_b for step in steps)
    return (last.p_speaker_a, last.p_listener_a, gap, gap <= tolerance, descending, never_below)


@settings(deadline=None)
@given(
    delta=st.floats(0.01, 0.99),
    gamma=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    max_steps=st.integers(4, 300),
    tolerance=st.sampled_from((1e-12, 1e-6, 1.0)),
)
def test_run_hedging_summary_equals_the_multi_pass_summary(delta, gamma, max_steps, tolerance):
    trace = run_hedging(GameConfig(delta=delta, gamma=gamma), max_steps, tolerance)
    assert trace.summary == multi_pass_summary(trace.steps, tolerance)
    assert all(type(flag) is bool for flag in trace.summary[3:])


def patched_pairs(pairs):
    """``hedging`` reading its steps from ``pairs`` and its summaries from
    their table, which its one table builder makes."""
    return mock.patch.multiple(hedging, _PAIRS=pairs, _SUMMARY=hedging._summaries(pairs))


@settings(deadline=None, max_examples=25)
@given(
    delta=st.floats(0.01, 0.99),
    gamma=st.sampled_from((0.0, -0.0)) | st.floats(0.0, 0.99),
    max_steps=st.integers(4, 100_000),
    tolerance=st.sampled_from((1e-12, 1e-6, 1.0)),
)
@example(delta=0.7, gamma=-0.0, max_steps=100_000, tolerance=1e-6)
@example(delta=0.7, gamma=0.2, max_steps=52, tolerance=1e-12)
@example(delta=0.7, gamma=0.2, max_steps=53, tolerance=1e-12)
def test_the_summary_table_equals_the_multi_pass_summary_up_to_the_step_bound(
    delta, gamma, max_steps, tolerance
):
    """The row ``run_hedging`` reads is the summary of all its steps, at
    every bound, on either side of the fixed point."""
    trace = run_hedging(GameConfig(delta=delta, gamma=gamma), max_steps, tolerance)
    assert trace.summary == multi_pass_summary(trace.steps, tolerance)


@pytest.mark.parametrize("seed", [0.0, 0.25, 0.9])
def test_run_hedging_follows_the_recurrence_from_other_seeds(seed):
    """From another seed f(1) the recurrence stops at another step: at step
    2 from 0, and from 0.25 and 0.9 one step after the first repeat, where
    the listener settles before the speaker. The trace still equals the
    recurrence run to the end."""
    values = oracles.propensity_sequence(3000, seed)
    config = GameConfig(delta=0.7, gamma=0.2)
    with mock.patch.object(hedging, "HESITATION", seed):
        pairs = tuple(islice(hedging._propensities(), 3001))
    assert len(pairs) < 60
    # A trace reads its steps from the pairs at access, so it is read here;
    # the summary is read from the pairs' table, built as the module builds it.
    with patched_pairs(pairs):
        for max_steps in [*range(4, 121), 1000, 2999, 3000]:
            trace = run_hedging(config, max_steps)
            assert trace.steps == oracle_steps(config, max_steps, values)
            assert trace.summary == multi_pass_summary(trace.steps, trace.tolerance)


# The recurrence's pairs for 40 steps, whose summary flags are all true.
RECURRENCE = list(islice(hedging._propensities(), 41))


def nudged(pairs, index, d_speaker, d_listener):
    """``pairs`` with the pair at ``index`` moved by the two nudges."""
    speaker, listener = pairs[index]
    return [*pairs[:index], (speaker + d_speaker, listener + d_listener), *pairs[index + 1:]]


nudges = st.sampled_from((0.0, -0.1, -1e-9, -1e-13, 1e-13, 1e-9, 0.1)) | st.floats(-1.0, 1.0)


@st.composite
def nudged_propensities(draw):
    """The recurrence's pairs for 4 to 40 steps with one pair nudged, which
    can make a pair sum rise or fall just below 1, or an EU dip."""
    pairs = RECURRENCE[: draw(st.integers(5, len(RECURRENCE)))]
    return nudged(pairs, draw(st.integers(0, len(pairs) - 1)), draw(nudges), draw(nudges))


@settings(deadline=None)
@given(pairs=nudged_propensities(), tolerance=st.sampled_from((1e-12, 1e-6, 1.0)))
@example(pairs=nudged(RECURRENCE, 2, 0.0, -0.1), tolerance=1e-6)  # before the checks start
@example(pairs=nudged(RECURRENCE, 3, 0.0, -0.1), tolerance=1e-6)  # below 1 at the first check
@example(pairs=nudged(RECURRENCE, 40, 0.0, -1e-9), tolerance=1e-6)  # just below 1
@example(pairs=nudged(RECURRENCE, 40, 0.0, 1e-9), tolerance=1e-6)  # just rising
@example(pairs=nudged(RECURRENCE, 5, 0.0, -0.5), tolerance=1e-6)  # eu_a dips
@example(pairs=nudged(RECURRENCE, 5, 0.5, 0.0), tolerance=1e-6)  # eu_b dips
@example(pairs=nudged(RECURRENCE, 0, 1.0, 1.0), tolerance=1e-6)  # step 0 above every later step
def test_running_summary_equals_the_multi_pass_summary_on_other_propensities(pairs, tolerance):
    with patched_pairs(tuple(pairs)):
        trace = run_hedging(GameConfig(delta=0.7, gamma=0.2), len(pairs) - 1, tolerance)
        assert trace.summary == multi_pass_summary(trace.steps, tolerance)
    assert all(type(flag) is bool for flag in trace.summary[3:])


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
    # Its constants are the recurrence's pairs and one summary row per prefix of them.
    assert len(hedging._SUMMARY) == len(hedging._PAIRS) == 53


def test_run_hedging_retains_no_memory_once_dropped():
    config = GameConfig(delta=0.7, gamma=0.2)
    tracemalloc.start()
    try:
        run_hedging(config, max_steps=20_000)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1_000_000


def test_run_hedging_builds_no_step_and_peaks_under_100_kb_at_the_step_bound(monkeypatch):
    """The summary is a row of the constant table, and the trace holds no
    step, so ``run_hedging`` builds no step and peaks the same whatever N."""
    config = GameConfig(delta=0.7, gamma=0.2)
    run_hedging(config, max_steps=100_000)  # any first-call allocation
    peaks = []
    for max_steps in (60, 100_000):
        tracemalloc.start()
        try:
            run_hedging(config, max_steps=max_steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 100 * 1024, peaks
    built = []
    step = hedging._Steps._item
    monkeypatch.setattr(hedging._Steps, "_item", lambda self, n: built.append(n) or step(self, n))
    for max_steps in (4, 60, 100_000):
        run_hedging(config, max_steps=max_steps)
    assert built == []


# A trace past the fixed point and one short of it, with the tuples of their steps.
LONG = run_hedging(GameConfig(delta=0.7, gamma=0.2), max_steps=1000)
SHORT = run_hedging(GameConfig(delta=0.3, gamma=-0.0), max_steps=20)
LONG_STEPS = oracle_steps(LONG.config, 1000)
SHORT_STEPS = oracle_steps(SHORT.config, 20)


@pytest.mark.parametrize("trace, steps", [(LONG, LONG_STEPS), (SHORT, SHORT_STEPS)])
def test_trace_steps_read_as_the_tuple_of_their_steps(trace, steps):
    """Length, indexing from either end, slices and iteration read as the
    tuple's do; the steps past the fixed point repeat step 52 but for n."""
    assert len(trace.steps) == len(steps) == trace.max_steps + 1
    assert list(trace.steps) == list(steps)
    assert list(reversed(trace.steps)) == list(reversed(steps))
    for index in (0, 1, 51, 52, 53, len(steps) - 1, -1, -2, -len(steps)):
        if -len(steps) <= index < len(steps):
            assert trace.steps[index] == steps[index]
            assert type(trace.steps[index]) is HedgingStep
    for index in (len(steps), len(steps) + 1, -len(steps) - 1):
        with pytest.raises(IndexError):
            trace.steps[index]
    for cut in (slice(None), slice(3), slice(-3, None), slice(50, 60), slice(None, None, -7),
                slice(900, 10, -3), slice(5, 5), slice(-5000, 5000, 2)):
        assert type(trace.steps[cut]) is tuple
        assert trace.steps[cut] == steps[cut]
    assert steps[-1] in trace.steps and trace.steps.index(steps[-1]) == len(steps) - 1
    assert trace.steps.count(steps[0]) == 1


def test_trace_steps_take_no_assignment():
    with pytest.raises(TypeError):
        LONG.steps[3] = LONG_STEPS[3]
    with pytest.raises(TypeError):
        del LONG.steps[3]
    for name in ("_args", "extra"):
        with pytest.raises(AttributeError):
            setattr(LONG.steps, name, (0.0, 0.0, 0.0, 2))
        with pytest.raises(AttributeError):
            delattr(LONG.steps, name)
    assert len(LONG.steps) == 1001


@pytest.mark.parametrize("trace, steps", [(LONG, LONG_STEPS), (SHORT, SHORT_STEPS)])
def test_trace_steps_equal_and_hash_as_the_tuple_of_their_steps(trace, steps):
    """The decision: ``steps`` equals the tuple of the steps it reads, and any
    sequence of the same steps, with the tuple's hash; so a trace equals and
    hashes as the trace that holds that tuple."""
    assert trace.steps == steps and steps == trace.steps
    assert not trace.steps != steps
    assert hash(trace.steps) == hash(steps)
    held = trace._replace(steps=steps)
    assert trace == held and hash(trace) == hash(held)
    assert trace.steps == run_hedging(trace.config, trace.max_steps).steps
    assert trace.steps != steps[:-1] and trace.steps != (*steps[:-1], steps[-1]._replace(n=-1))
    assert trace.steps != list(steps)
    assert trace.steps != run_hedging(trace.config, trace.max_steps + 1).steps
    assert repr(trace.steps) == repr(steps)


def test_traces_survive_pickle_and_deepcopy():
    """A trace, alone or in a report, pickles and copies as the four numbers
    its steps are read from."""
    report = run_scenario(load_scenario(Path(__file__).parent / "data" / "canonical.scn"))
    for record in (LONG, SHORT, report):
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert twin == record
            trace = twin.hedging if record is report else twin
            assert type(trace.steps) is hedging._Steps
    assert len(pickle.dumps(LONG)) < 2048
