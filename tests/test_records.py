"""The record contract of every hedgesim record: named tuples built by
position or keyword, immutable, equal by value and hashed by value where
every field can be, with their fields in a fixed order; and the checked
records, which check their values however they are built."""

import copy
import math
import sys
from pathlib import Path

import pytest
from conftest import models
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgesim.assertion import CommonGround, SignalLikelihoods, initial_common_ground, update
from hedgesim.game import GameConfig, RegionReport, SweepRow, equilibrium_region, threshold_sweep
from hedgesim.hedging import HedgingStep, HedgingSummary, HedgingTrace, run_hedging
from hedgesim.scenario_io import DialogueStep, RunReport, Scenario, load_scenario, run_scenario
from hedgesim.semantics import STRENGTH_ORDER, FrameReport, Formula, check_frame, extension
from hedgesim.worlds import NOT_PHI, PHI, SoritesSeries, WorldModel, pool_states

CONFIG = GameConfig(0.7, 0.2)
TRACE = run_hedging(CONFIG, max_steps=4)
SERIES = SoritesSeries(5, {"S": 4, "L": 2})
MODEL = pool_states(SERIES)
REPORT = run_scenario(load_scenario(Path(__file__).parent / "data" / "canonical.scn"))
HEARD = update(initial_common_ground(MODEL), REPORT.signal)
LIKELIHOODS = SignalLikelihoods.for_common_ground(HEARD, 0.01, REPORT.signal)

# Each record type, its fields in order, the values it is built from, and a
# change that makes it unequal.
RECORDS = {
    GameConfig: (("delta", "gamma", "tau", "epsilon"), tuple(CONFIG), {"delta": 0.2}),
    RegionReport: (
        ("region", "eu_a", "eu_b", "gamma_bound_a", "gamma_bound_b", "listener_q_given_speaker_q"),
        tuple(equilibrium_region(CONFIG)),
        {"region": "none"},
    ),
    SweepRow: (
        ("delta", "gamma", "p_w1", "p_w2", "p_w3", "eu_a", "eu_b", "region"),
        tuple(threshold_sweep([0.7], [0.2])[0]),
        {"delta": 0.2},
    ),
    HedgingStep: (
        ("n", "p_speaker_a", "p_listener_a", "eu_a", "eu_b"), tuple(TRACE.steps[3]), {"n": 0}
    ),
    HedgingSummary: (
        ("even_tail", "odd_tail", "pair_sum_gap", "pair_sums_converged", "pair_sums_descending",
         "eu_never_below_step0"),
        tuple(TRACE.summary),
        {"even_tail": 0.5},
    ),
    HedgingTrace: (
        ("config", "max_steps", "tolerance", "steps", "summary"), tuple(TRACE), {"max_steps": 5}
    ),
    SoritesSeries: (("n", "flips"), tuple(SERIES), {"n": 6}),
    WorldModel: (
        ("agents", "worlds", "partitions", "valuation", "judgments", "members"),
        tuple(MODEL),
        {"members": None},
    ),
    CommonGround: (("time", "live", "model"), tuple(HEARD), {"time": 2}),
    SignalLikelihoods: (("designated", "epsilon"), tuple(LIKELIHOODS), {"epsilon": 0.2}),
    Scenario: (
        ("series", "canonical", "config", "speaker", "world", "steps", "tolerance"),
        tuple(REPORT.scenario),
        {"world": "w1"},
    ),
    DialogueStep: (
        ("time", "signal", "live", "posterior"), tuple(REPORT.dialogue[1]), {"time": 2}
    ),
    RunReport: (
        ("scenario", "model", "signal", "dialogue", "posterior", "region", "hedging",
         "public_belief_proposition", "public_belief_worlds", "public_belief"),
        tuple(REPORT),
        {"public_belief": True},
    ),
    FrameReport: (
        ("reflexive", "symmetric", "transitive", "witness"),
        tuple(check_frame(MODEL)),
        {"transitive": True},
    ),
}
# The records whose every field is hashable; the others hold a dict.
HASHABLE = {GameConfig, RegionReport, SweepRow, HedgingStep, HedgingSummary, HedgingTrace,
            FrameReport}


@pytest.mark.parametrize("record_type", RECORDS, ids=lambda t: t.__name__)
def test_fields_are_in_order(record_type):
    fields, _, _ = RECORDS[record_type]
    assert record_type._fields == fields


@pytest.mark.parametrize("record_type", RECORDS, ids=lambda t: t.__name__)
def test_positional_and_keyword_construction_agree(record_type):
    fields, values, _ = RECORDS[record_type]
    by_position = record_type(*values)
    by_keyword = record_type(**dict(zip(fields, values)))
    assert type(by_position) is type(by_keyword) is record_type
    assert tuple(by_position) == tuple(by_keyword) == values
    assert [getattr(by_keyword, name) for name in fields] == list(by_keyword)
    assert by_keyword._asdict() == dict(zip(fields, by_keyword))


@pytest.mark.parametrize("record_type", RECORDS, ids=lambda t: t.__name__)
def test_records_are_immutable(record_type):
    fields, values, _ = RECORDS[record_type]
    record = record_type(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")
    assert tuple(record) == values


@pytest.mark.parametrize("record_type", RECORDS, ids=lambda t: t.__name__)
def test_equality_and_hash_by_value(record_type):
    fields, values, change = RECORDS[record_type]
    first, second = record_type(*values), record_type(**dict(zip(fields, values)))
    assert first is not second
    assert first == second
    if record_type in HASHABLE:
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)
    changed = first._replace(**change)
    assert changed != first


MIGHTS = (Formula.MIGHT_PHI, Formula.MIGHT_NOT_PHI)
MIGHT_SETS = [{"w1", "w2"}, {"w2", "w3"}]


def test_the_model_is_rebuilt_not_given_its_might_sets():
    # A model is the six fields it is given; ``extension`` works out where
    # ``might`` holds, and the named tuple's own machinery builds the model.
    assert WorldModel(*MODEL) == MODEL
    assert not {"__new__", "_replace", "__replace__"} & WorldModel.__dict__.keys()
    assert [extension(MODEL, formula) for formula in MIGHTS] == MIGHT_SETS


# The named tuple's own error for a field it lacks: ValueError, and
# TypeError from Python 3.13 on.
UNKNOWN_FIELD = TypeError if sys.version_info >= (3, 13) else ValueError
UNEXPECTED = r"^Got unexpected field names: \['might'\]$"


def test_replace_rejects_the_derived_might_sets():
    empty = {PHI: frozenset(), NOT_PHI: frozenset()}
    for changes in ({"might": empty}, {"members": None, "might": empty}):
        with pytest.raises(UNKNOWN_FIELD, match=UNEXPECTED):
            MODEL._replace(**changes)
    assert MODEL._replace(members=None) == MODEL._make([*MODEL[:5], None])


@pytest.mark.skipif(not hasattr(copy, "replace"), reason="copy.replace is new in Python 3.13")
def test_copy_replace_rejects_the_derived_might_sets():
    with pytest.raises(UNKNOWN_FIELD, match=UNEXPECTED):
        copy.replace(MODEL, might={PHI: frozenset(), NOT_PHI: frozenset()})


def test_game_config_defaults():
    assert GameConfig(0.7, 0.2) == GameConfig(delta=0.7, gamma=0.2, tau=0.5, epsilon=0.01)
    assert GameConfig._field_defaults == {"tau": 0.5, "epsilon": 0.01}
    with pytest.raises(TypeError):
        GameConfig(0.7)
    with pytest.raises(TypeError):
        GameConfig._make([0.7, 0.2, 0.5])
    with pytest.raises(UNKNOWN_FIELD, match=r"^Got unexpected field names: \['payoffs'\]$"):
        CONFIG._replace(payoffs=None)


# The checks the dataclass ``GameConfig`` ran, written out on their own: each
# field in order, then tau/delta.
RANGES = {
    "delta": (lambda v: 0.0 < v < 1.0, "strictly between 0 and 1"),
    "gamma": (lambda v: 0.0 <= v < 1.0, "at least 0 and strictly below 1"),
    "tau": (lambda v: 0.0 < v < 1.0, "strictly between 0 and 1"),
    "epsilon": (lambda v: 0.0 <= v < 0.5, "in [0, 0.5)"),
}


def rejection(values: dict) -> str | None:
    """The message a config of ``values`` is rejected with, or None."""
    for name, (admits, words) in RANGES.items():
        value = values[name]
        if isinstance(value, bool) or not admits(value):
            return f"{name} must be {words}, got {value!r}"
    if not math.isfinite(values["tau"] / values["delta"]):
        return (
            f"delta must be large enough that tau/delta is finite (tau is {values['tau']!r}), "
            f"got {values['delta']!r}"
        )
    return None


values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 1.0),
    st.sampled_from((0.0, -0.0, 0.5, 1.0, 1e-320, 5e-324, 1e-300, math.nan, math.inf)),
    st.booleans(),
    st.integers(-2, 2),
)
configs = st.fixed_dictionaries({name: values for name in RANGES})


def outcome(build) -> str | None:
    try:
        config = build()
    except ValueError as exc:
        return str(exc)
    assert type(config) is GameConfig
    return None


@given(configs)
def test_construction_rejects_what_the_checks_reject(config):
    want = rejection(config)
    ordered = [config[name] for name in RANGES]
    assert outcome(lambda: GameConfig(**config)) == want
    assert outcome(lambda: GameConfig(*ordered)) == want
    assert outcome(lambda: GameConfig._make(iter(ordered))) == want


@given(configs, st.sets(st.sampled_from(tuple(RANGES)), min_size=1))
def test_replace_rejects_what_the_checks_reject(config, names):
    changes = {name: config[name] for name in names}
    start = GameConfig(0.7, 0.2)
    want = rejection({**start._asdict(), **changes})
    assert outcome(lambda: start._replace(**changes)) == want


# The records that check their values, other than ``GameConfig``: each
# drawn as a valid record and a change to some of its fields that may be
# rejected. ``outcome`` below tells a rejection by its type and message.
labels = st.sampled_from(("w1", "w2", "w3", "w9"))
worlds = st.lists(labels, max_size=4).map(tuple)
cells = st.frozensets(labels, max_size=3)
CHANGES = {
    SoritesSeries: (st.builds(SoritesSeries, st.integers(3, 8), st.just({"S": 3, "L": 2})), {
        "n": st.one_of(st.integers(-1, 9), st.sampled_from((True, 4.0, None, 100_001))),
        "flips": st.dictionaries(
            st.sampled_from("SLX"), st.one_of(st.integers(0, 9), st.just(2.5)), max_size=3
        ),
    }),
    WorldModel: (models, {
        "agents": st.lists(st.sampled_from(("S", "L", "a0", "a1")), max_size=3).map(tuple),
        "worlds": worlds,
        "partitions": st.dictionaries(
            st.sampled_from(("S", "L", "a0", "a1")), st.lists(cells, max_size=3).map(tuple)
        ),
        "valuation": st.dictionaries(st.sampled_from((PHI, NOT_PHI)), cells),
        "judgments": st.none(),
        "members": st.none(),
    }),
    CommonGround: (models.map(initial_common_ground), {
        "time": st.integers(-2, 3),
        "live": worlds,
        "model": models,
    }),
    SignalLikelihoods: (st.just(LIKELIHOODS), {
        "designated": st.dictionaries(labels, st.sampled_from(STRENGTH_ORDER), max_size=3),
        "epsilon": st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from((0.0, -0.0, 0.49, 0.5, True, 0, 1)),
        ),
    }),
}


def built(build):
    """The values of the record ``build`` returns, or its rejection's type and message."""
    try:
        return tuple(build())
    except (ValueError, KeyError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("record_type", CHANGES, ids=lambda t: t.__name__)
@settings(deadline=None)
@given(data=st.data())
def test_checked_records_reject_alike_however_built(record_type, data):
    starts, strategies = CHANGES[record_type]
    assert tuple(strategies) == record_type._fields
    start = data.draw(starts)
    names = data.draw(st.sets(st.sampled_from(tuple(strategies)), min_size=1))
    changes = {name: data.draw(strategies[name]) for name in names}
    given_values = {**dict(zip(strategies, start)), **changes}
    want = built(lambda: record_type(**given_values))
    assert built(lambda: record_type(*given_values.values())) == want
    assert built(lambda: record_type._make(given_values.values())) == want
    assert built(lambda: start._replace(**changes)) == want


@pytest.mark.parametrize("record_type", [GameConfig, *CHANGES], ids=lambda t: t.__name__)
def test_make_takes_exactly_one_value_per_field(record_type):
    fields, values, _ = RECORDS[record_type]
    record = record_type(*values)
    for wrong in (record[:-1], (*record, None)):
        with pytest.raises(TypeError, match=f"Expected {len(fields)} arguments, got {len(wrong)}"):
            record_type._make(wrong)
    assert record_type._make(record) == record


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace_runs_the_checks():
    swapped = copy.replace(MODEL, valuation={PHI: frozenset({"w3"}), NOT_PHI: frozenset({"w1"})})
    assert [extension(swapped, formula) for formula in MIGHTS] == MIGHT_SETS[::-1]
    with pytest.raises(ValueError, match=r"^n must be an integer in \[3, 100000\], got 2$"):
        copy.replace(SoritesSeries(5, {"S": 4}), n=2)
