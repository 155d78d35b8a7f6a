import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hedgesim
from hedgesim import game
from hedgesim.game import (
    ACTIONS,
    PLAYERS,
    GameConfig,
    SweepRow,
    brute_force_eu,
    equilibrium_region,
    expected_utility,
    grid,
    threshold_sweep,
    world_priors,
)
from hedgesim.worlds import CANONICAL_FLIPS, CANONICAL_N, Q, SoritesSeries, pool_states


def random_config(rng):
    return GameConfig(delta=rng.uniform(0.001, 0.999), gamma=rng.uniform(0.0, 0.999))


# --- validation -------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"delta": 0.0, "gamma": 0.1},
        {"delta": 1.0, "gamma": 0.1},
        {"delta": 0.5, "gamma": 1.0},
        {"delta": 0.5, "gamma": -0.1},
        {"delta": 0.5, "gamma": 0.1, "tau": 0.0},
        {"delta": 0.5, "gamma": 0.1, "tau": 1.0},
        {"delta": 0.5, "gamma": 0.1, "epsilon": 0.5},
        {"delta": 0.5, "gamma": 0.1, "epsilon": -0.01},
    ],
)
def test_config_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        GameConfig(**kwargs)


def test_config_rejects_a_delta_too_small_for_tau():
    with pytest.raises(ValueError) as excinfo:
        GameConfig(delta=1e-320, gamma=0.2)
    assert str(excinfo.value) == (
        "delta must be large enough that tau/delta is finite (tau is 0.5), got 1e-320"
    )
    report = equilibrium_region(GameConfig(delta=1e-320, gamma=0.2, tau=1e-300))
    assert math.isfinite(report.gamma_bound_a) and report.gamma_bound_a < -1e19


def test_config_has_no_payoffs_field():
    with pytest.raises(TypeError):
        GameConfig(delta=0.5, gamma=0.1, payoffs=None)
    assert not hasattr(game, "PayoffMatrix")
    assert "PayoffMatrix" not in hedgesim.__all__


# --- priors -----------------------------------------------------------------


def test_world_priors_examples():
    assert world_priors(GameConfig(delta=0.5, gamma=0.0)) == {
        "w1": 0.5,
        "w2": 0.0,
        "w3": 0.5,
    }
    prior = world_priors(GameConfig(delta=0.7, gamma=0.2))
    assert prior["w1"] == pytest.approx(0.56, abs=1e-15)
    assert prior["w2"] == 0.2
    assert prior["w3"] == pytest.approx(0.24, abs=1e-15)


def test_world_priors_sum_to_one_random():
    rng = random.Random(61)
    for _ in range(300):
        prior = world_priors(random_config(rng))
        assert abs(sum(prior.values()) - 1.0) <= 1e-12


# --- expected utility -------------------------------------------------------


def test_expected_utility_closed_forms():
    config = GameConfig(delta=0.7, gamma=0.2)
    for player in PLAYERS:
        assert expected_utility(config, player, "a") == 0.7 * (1 - 0.2)
        assert expected_utility(config, player, "b") == (1 - 0.7) * (1 - 0.2)
    flat = GameConfig(delta=0.5, gamma=0.5)
    assert expected_utility(flat, "S", "a") == 0.25
    assert expected_utility(flat, "S", "b") == 0.25
    no_borderline = GameConfig(delta=0.3, gamma=0.0)
    assert expected_utility(no_borderline, "L", "a") == 0.3
    assert expected_utility(no_borderline, "L", "b") == 0.7


def test_brute_force_examples():
    assert brute_force_eu(GameConfig(delta=0.7, gamma=0.2), "S", "a") == pytest.approx(0.56, abs=1e-15)
    assert brute_force_eu(GameConfig(delta=0.3, gamma=0.1), "L", "b") == pytest.approx(0.63, abs=1e-15)
    nearly_one = GameConfig(delta=0.5, gamma=0.999)
    assert brute_force_eu(nearly_one, "S", "a") == pytest.approx(0.001 * 0.5, abs=1e-12)


def test_canonical_march_pools_to_the_stated_profile():
    # S judges q at w1 and w2, L only at w1: the hedge's contested world is w2.
    judgments = pool_states(SoritesSeries(CANONICAL_N, CANONICAL_FLIPS)).judgments
    judges_q = {side: [w for w, value in judgments[side].items() if value == Q] for side in PLAYERS}
    assert judges_q == {"S": ["w1", "w2"], "L": ["w1"]}


def test_brute_force_eu_pools_the_canonical_march_once(monkeypatch):
    calls = []

    def counting(series):
        calls.append(series)
        return pool_states(series)

    monkeypatch.setattr("hedgesim.worlds.pool_states", counting)
    game._canonical_actions.cache_clear()
    try:
        config = GameConfig(delta=0.7, gamma=0.2)
        eus = [brute_force_eu(config, player, action) for player in PLAYERS for action in ACTIONS]
    finally:
        game._canonical_actions.cache_clear()
    assert eus == [0.7 * (1 - 0.2), (1 - 0.7) * (1 - 0.2)] * 2
    assert calls == [SoritesSeries(CANONICAL_N, CANONICAL_FLIPS)]


def test_game_keeps_no_profile_table():
    assert not hasattr(game, "_THINKS_Q")
    assert not hasattr(game, "_other")


def test_closed_form_matches_oracle_random():
    rng = random.Random(71)
    for _ in range(300):
        config = random_config(rng)
        for player in PLAYERS:
            for action in ACTIONS:
                closed = expected_utility(config, player, action)
                brute = brute_force_eu(config, player, action)
                assert abs(closed - brute) <= 1e-12


def test_player_symmetry_under_default_payoffs():
    rng = random.Random(91)
    for _ in range(200):
        config = random_config(rng)
        for action in ACTIONS:
            assert expected_utility(config, "S", action) == expected_utility(config, "L", action)


def test_eu_monotonicity():
    gammas = [0.0, 0.1, 0.3, 0.6]
    deltas = [0.1, 0.3, 0.5, 0.7, 0.9]
    for gamma in gammas:
        values = [expected_utility(GameConfig(delta=d, gamma=gamma), "S", "a") for d in deltas]
        assert all(earlier < later for earlier, later in zip(values, values[1:]))
    for delta in deltas:
        values = [expected_utility(GameConfig(delta=delta, gamma=g), "S", "a") for g in gammas]
        assert all(earlier > later for earlier, later in zip(values, values[1:]))


def test_eu_rejects_bad_labels():
    config = GameConfig(delta=0.5, gamma=0.1)
    with pytest.raises(ValueError):
        expected_utility(config, "X", "a")
    with pytest.raises(ValueError):
        expected_utility(config, "S", "c")


# --- equilibrium regions ----------------------------------------------------


def test_equilibrium_examples():
    report = equilibrium_region(GameConfig(delta=0.8, gamma=0.3))
    assert report.region == "AA"
    assert report.gamma_bound_a == pytest.approx(0.375, abs=1e-12)

    assert equilibrium_region(GameConfig(delta=0.5, gamma=0.0)).region == "none"
    assert equilibrium_region(GameConfig(delta=0.5, gamma=0.7)).region == "none"

    report = equilibrium_region(GameConfig(delta=0.2, gamma=0.1))
    assert report.region == "BB"
    assert report.gamma_bound_b == pytest.approx(0.375, abs=1e-12)

    assert equilibrium_region(GameConfig(delta=0.6, gamma=0.2)).region == "none"


def test_equilibrium_reports_quantities():
    report = equilibrium_region(GameConfig(delta=0.7, gamma=0.2))
    assert report.eu_a == pytest.approx(0.56, abs=1e-15)
    assert report.eu_b == pytest.approx(0.24, abs=1e-15)
    assert report.listener_q_given_speaker_q == pytest.approx(0.56 / 0.76, abs=1e-12)


def test_boundary_flip():
    for delta in (0.55, 0.6, 0.7, 0.8, 0.9, 0.99):
        bound = 1.0 - 0.5 / delta
        below = equilibrium_region(GameConfig(delta=delta, gamma=bound - 1e-9))
        above = equilibrium_region(GameConfig(delta=delta, gamma=bound + 1e-9))
        assert below.region == "AA"
        assert above.region == "none"


def test_boundary_flip_generalized_tau():
    delta, tau = 0.7, 0.3
    bound = 1.0 - tau / delta
    assert equilibrium_region(GameConfig(delta=delta, gamma=bound - 1e-9, tau=tau)).region == "AA"
    assert equilibrium_region(GameConfig(delta=delta, gamma=bound + 1e-9, tau=tau)).region == "none"


def test_a_tie_at_tau_is_no_region():
    # (1 - 0.25) * (1 - 0.6) is 0.3 exactly; in floats it is 0.30000000000000004.
    report = equilibrium_region(GameConfig(delta=0.25, gamma=0.6, tau=0.3))
    assert report.region == "none"
    assert threshold_sweep([0.25], [0.6], tau=0.3)[0].region == "none"
    ties = 0
    for tau in ("0.25", "0.3", "0.5", "0.6"):
        for row in threshold_sweep(grid(19), grid(19), tau=float(tau)):
            mass = max(Fraction(row.delta), 1 - Fraction(row.delta)) * (1 - Fraction(row.gamma))
            if abs(mass - Fraction(tau)) < Fraction(1, 10**12):
                ties += 1
                assert row.region == "none", row
    assert ties == 10


def exact_region(delta: Fraction, gamma: Fraction, tau: Fraction) -> str:
    """The region in exact arithmetic: the world of the majority unanimous
    judgment holds when its prior mass is above tau."""
    if delta == 1 - delta:
        return "none"
    side, share = ("AA", delta) if delta > 1 - delta else ("BB", 1 - delta)
    return side if share * (1 - gamma) > tau else "none"


def region_by_bounds(delta: float, gamma: float, report) -> str:
    """The region that a report's own gamma bounds give, under the tie rule."""
    if delta > 1.0 - delta and report.gamma_bound_a - gamma > game.ROUNDING:
        return "AA"
    if 1.0 - delta > delta and report.gamma_bound_b - gamma > game.ROUNDING:
        return "BB"
    return "none"


# Taus as decimal texts, and as i/(m+1) like the grids. With denominators
# this small, a row that is not an exact tie misses tau by far more than
# ROUNDING, so the float rule must give the exact answer everywhere.
rational_taus = st.one_of(
    st.sampled_from(("0.1", "0.25", "0.3", "0.5", "0.6", "0.7")).map(Fraction),
    st.integers(1, 120).flatmap(lambda m: st.integers(1, m).map(lambda i: Fraction(i, m + 1))),
)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 40), st.integers(1, 40), rational_taus)
def test_regions_on_rational_grids_equal_the_exact_answer(delta_steps, gamma_steps, tau):
    rows = threshold_sweep(grid(delta_steps), grid(gamma_steps), tau=float(tau))
    assert len(rows) == delta_steps * gamma_steps
    for index, row in enumerate(rows):
        i, j = divmod(index, gamma_steps)
        want = exact_region(Fraction(i + 1, delta_steps + 1), Fraction(j + 1, gamma_steps + 1), tau)
        report = equilibrium_region(GameConfig(delta=row.delta, gamma=row.gamma, tau=float(tau)))
        assert (row.region, report.region) == (want, want), row
        assert region_by_bounds(row.delta, row.gamma, report) == want


# --- sweeps -----------------------------------------------------------------


def test_sweep_shape_and_order():
    rows = threshold_sweep(grid(9), grid(9))
    assert len(rows) == 81
    assert rows[0].delta == pytest.approx(0.1)
    assert rows[0].gamma == pytest.approx(0.1)
    assert rows[1].gamma == pytest.approx(0.2)  # gamma-minor order
    middle = [row for row in rows if row.delta == 0.5]
    assert middle and all(row.region == "none" for row in middle)


def test_sweep_cells_match_direct_classification():
    for row in threshold_sweep(grid(9), grid(9), tau=0.5):
        config = GameConfig(delta=row.delta, gamma=row.gamma, tau=0.5)
        assert row.region == equilibrium_region(config).region
        prior = world_priors(config)
        assert row.p_w1 == prior["w1"]
        assert row.eu_a == expected_utility(config, "S", "a")


@pytest.mark.parametrize(
    "delta_grid,gamma_grid,tau,message",
    [
        ([], [0.5], 2.0, "tau must be strictly between 0 and 1, got 2.0"),
        ([0.5], [], math.nan, "tau must be strictly between 0 and 1, got nan"),
        ([0.5], [0.5], 0.0, "tau must be strictly between 0 and 1, got 0.0"),
        ([0.5, 1.5], [0.5], 0.5, "delta must be strictly between 0 and 1, got 1.5"),
        ([0.5, math.nan], [0.5], 0.5, "delta must be strictly between 0 and 1, got nan"),
        ([0.5], [0.5, -0.1], 0.5, "gamma must be at least 0 and strictly below 1, got -0.1"),
        ([0.5], [math.nan], 0.5, "gamma must be at least 0 and strictly below 1, got nan"),
    ],
)
def test_sweep_checks_every_grid_value_and_tau(delta_grid, gamma_grid, tau, message):
    with pytest.raises(ValueError) as excinfo:
        threshold_sweep(delta_grid, gamma_grid, tau=tau)
    assert str(excinfo.value) == message


def _row_from_public_functions(delta, gamma, tau):
    config = GameConfig(delta=delta, gamma=gamma, tau=tau)
    prior = world_priors(config)
    return SweepRow(
        delta=delta,
        gamma=gamma,
        p_w1=prior["w1"],
        p_w2=prior["w2"],
        p_w3=prior["w3"],
        eu_a=expected_utility(config, "S", "a"),
        eu_b=expected_utility(config, "S", "b"),
        region=equilibrium_region(config).region,
    )


@st.composite
def sweep_grids(draw):
    """A tau and grids holding 0.5, both signed zero gammas (``GAME_RANGES``
    admits -0.0) and gammas within 1e-9 of the region bounds."""
    tau = draw(st.floats(0.01, 0.99))
    deltas = draw(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=6)) + [0.5]
    gammas = draw(st.lists(st.floats(0.0, 0.999), max_size=6)) + [0.0, -0.0]
    for delta in deltas:
        for bound in (1.0 - tau / delta, 1.0 - tau / (1.0 - delta)):
            offset = draw(st.sampled_from((-1e-9, 0.0, 1e-9)))
            if 0.0 <= bound + offset < 1.0:
                gammas.append(bound + offset)
    return draw(st.permutations(deltas)), draw(st.permutations(gammas)), tau


def bits(rows) -> list[tuple]:
    """Each row's type and the ``repr`` of each field: unlike ``==``, this
    tells -0.0 from 0.0."""
    return [(type(row), *map(repr, row)) for row in rows]


@settings(deadline=None)
@given(sweep_grids())
def test_sweep_rows_equal_the_public_per_config_functions(grids):
    delta_grid, gamma_grid, tau = grids
    expected = [_row_from_public_functions(d, g, tau) for d in delta_grid for g in gamma_grid]
    assert bits(threshold_sweep(delta_grid, gamma_grid, tau=tau)) == bits(expected)


def test_sweep_reads_one_shot_grids_like_lists():
    expected = bits(threshold_sweep(grid(3), grid(3)))
    assert len(expected) == 9
    assert bits(threshold_sweep((d for d in grid(3)), grid(3))) == expected
    assert bits(threshold_sweep(grid(3), (g for g in grid(3)))) == expected
    assert bits(threshold_sweep(iter(grid(3)), iter(grid(3)))) == expected


def test_sweep_builds_no_config_or_prior_per_row(monkeypatch):
    deltas, gammas = grid(40), grid(30)
    counts = {"GameConfig": 0, "world_priors": 0, "check_parameter": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        game.GameConfig, "_checked", counting("GameConfig", game.GameConfig._checked)
    )
    for name in ("world_priors", "check_parameter"):
        monkeypatch.setattr(game, name, counting(name, getattr(game, name)))
    rows = threshold_sweep(deltas, gammas, tau=0.4)
    assert len(rows) == 40 * 30
    assert counts["GameConfig"] == counts["world_priors"] == 0
    assert counts["check_parameter"] <= len(deltas) + len(gammas) + 1


def test_grid_is_interior():
    values = grid(99)
    assert len(values) == 99
    assert values[0] == pytest.approx(0.01)
    assert values[-1] == pytest.approx(0.99)
    assert all(0.0 < v < 1.0 for v in values)
    with pytest.raises(ValueError):
        grid(0)
