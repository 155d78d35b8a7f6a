"""The direct JSON writers against ``json.dumps``, and JSON float text."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgesim import scenario_io, writers
from hedgesim.game import GameConfig, grid, threshold_sweep
from hedgesim.hedging import run_hedging
from hedgesim.writers import (
    _SCENARIO_KEYS,
    _jnum_text,
    _json_record,
    render_hedging_json,
    render_sweep_json,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
deltas = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
gammas = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
taus = st.one_of(st.sampled_from((0.3, 0.5, 0.7)), deltas)


def repr_text(value: float) -> str:
    return repr(float(format(value, ".12g")))


@given(st.one_of(finite_floats, st.integers(-(10**15), 10**15).map(float)))
def test_jnum_text_is_the_repr_of_the_rounded_float(value):
    assert _jnum_text(value) == repr_text(value)


@pytest.mark.parametrize(
    "value",
    [-0.0, 0.0, 1.0, -3.0, 12345.0, 1e11, 1e12, 1e15, 1e16, 1e-4, 1e-5, 0.5599999999999999,
     1 / 3, 99999999999.9, 999999999999.5, 5e-324, 1.7976931348623157e308],
)
def test_jnum_text_cases(value):
    assert _jnum_text(value) == repr_text(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_jnum_text_rejects_non_finite(value):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        _jnum_text(value)


def hedging_payload(trace) -> dict:
    return {
        **_json_record(trace.config, _SCENARIO_KEYS["game"]),
        **_json_record(trace, ("max_steps", "tolerance", "hesitation")),
        "steps": [_json_record(step) for step in trace.steps],
        "summary": _json_record(trace.summary),
    }


@settings(deadline=None, max_examples=60)
@given(deltas, gammas, st.integers(4, 300))
def test_hedging_json_equals_json_dumps(delta, gamma, steps):
    trace = run_hedging(GameConfig(delta=delta, gamma=gamma), max_steps=steps)
    expected = json.dumps(hedging_payload(trace), indent=2, allow_nan=False) + "\n"
    assert render_hedging_json(trace) == expected


@settings(deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), taus)
def test_sweep_json_equals_json_dumps(delta_steps, gamma_steps, tau):
    rows = threshold_sweep(grid(delta_steps), grid(gamma_steps), tau=tau)
    expected = json.dumps([_json_record(row) for row in rows], indent=2, allow_nan=False) + "\n"
    assert render_sweep_json(rows) == expected


def test_empty_sweep_json_equals_json_dumps():
    assert render_sweep_json([]) == json.dumps([], indent=2) + "\n"


def test_scenario_io_re_exports_the_writers():
    for name in dir(writers):
        if name.startswith("render_"):
            assert getattr(scenario_io, name) is getattr(writers, name)
