"""The record contract of the game and hedging records: named tuples built
by position or keyword, immutable, equal and hashed by value, with their
fields in a fixed order; and a ``GameConfig`` that checks its values however
it is built."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hedgesim.game import GameConfig, RegionReport, SweepRow, equilibrium_region, threshold_sweep
from hedgesim.hedging import HedgingStep, HedgingSummary, HedgingTrace, run_hedging

CONFIG = GameConfig(0.7, 0.2)
TRACE = run_hedging(CONFIG, max_steps=4)

# Each record type, its fields in order, and one record's values.
RECORDS = {
    GameConfig: (("delta", "gamma", "tau", "epsilon"), tuple(CONFIG)),
    RegionReport: (
        ("region", "eu_a", "eu_b", "gamma_bound_a", "gamma_bound_b", "listener_q_given_speaker_q"),
        tuple(equilibrium_region(CONFIG)),
    ),
    SweepRow: (
        ("delta", "gamma", "p_w1", "p_w2", "p_w3", "eu_a", "eu_b", "region"),
        tuple(threshold_sweep([0.7], [0.2])[0]),
    ),
    HedgingStep: (("n", "p_speaker_a", "p_listener_a", "eu_a", "eu_b"), tuple(TRACE.steps[3])),
    HedgingSummary: (
        ("even_tail", "odd_tail", "pair_sum_gap", "pair_sums_converged", "pair_sums_descending",
         "eu_never_below_step0"),
        tuple(TRACE.summary),
    ),
    HedgingTrace: (("config", "max_steps", "tolerance", "steps", "summary"), tuple(TRACE)),
}


@pytest.mark.parametrize("record_type", RECORDS, ids=lambda t: t.__name__)
def test_fields_are_in_order(record_type):
    fields, _ = RECORDS[record_type]
    assert record_type._fields == fields


@pytest.mark.parametrize("record_type", RECORDS, ids=lambda t: t.__name__)
def test_positional_and_keyword_construction_agree(record_type):
    fields, values = RECORDS[record_type]
    by_position = record_type(*values)
    by_keyword = record_type(**dict(zip(fields, values)))
    assert type(by_position) is type(by_keyword) is record_type
    assert tuple(by_position) == tuple(by_keyword) == values
    assert [getattr(by_keyword, name) for name in fields] == list(values)
    assert by_keyword._asdict() == dict(zip(fields, values))


@pytest.mark.parametrize("record_type", RECORDS, ids=lambda t: t.__name__)
def test_records_are_immutable(record_type):
    fields, values = RECORDS[record_type]
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
    fields, values = RECORDS[record_type]
    first, second = record_type(*values), record_type(**dict(zip(fields, values)))
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1
    changed = first._replace(**{fields[0]: values[1]})
    assert changed != first


def test_game_config_defaults():
    assert GameConfig(0.7, 0.2) == GameConfig(delta=0.7, gamma=0.2, tau=0.5, epsilon=0.01)
    assert GameConfig._field_defaults == {"tau": 0.5, "epsilon": 0.01}
    with pytest.raises(TypeError):
        GameConfig(0.7)
    with pytest.raises(TypeError):
        GameConfig._make([0.7, 0.2, 0.5])
    with pytest.raises(ValueError, match="unexpected field names"):
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
