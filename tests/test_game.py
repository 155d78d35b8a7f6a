import copy
import gc
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import exact_eu, exact_listener_q, exact_prior, exact_region, sweep_rows

import hedgesim
from hedgesim import game
from hedgesim.game import (
    GameConfig,
    SweepRow,
    brute_force_eu,
    equilibrium_region,
    expected_utility,
    grid,
    threshold_sweep,
    world_priors,
)
from hedgesim.params import ACTIONS, PLAYERS
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
        want, _ = exact_region(Fraction(i + 1, delta_steps + 1), Fraction(j + 1, gamma_steps + 1), tau)
        report = equilibrium_region(GameConfig(delta=row.delta, gamma=row.gamma, tau=float(tau)))
        assert (row.region, report.region) == (want, want), row
        assert region_by_bounds(row.delta, row.gamma, report) == want


@st.composite
def region_configs(draw):
    """A config drawn as ``sweep_grids`` draws its points: delta 0.5 among the
    deltas, both signed zero gammas (``GAME_RANGES`` admits -0.0) and gammas
    within 1e-9 of either region bound, with the taus of the rational grids."""
    tau = draw(st.floats(0.01, 0.99) | rational_taus.map(float))
    delta = draw(st.just(0.5) | st.floats(0.001, 0.999))
    near = [bound + offset for bound in (1.0 - tau / delta, 1.0 - tau / (1.0 - delta))
            for offset in (-1e-9, 0.0, 1e-9) if 0.0 <= bound + offset < 1.0]
    gammas = st.sampled_from((0.0, -0.0)) | st.floats(0.0, 0.999)
    gamma = draw(gammas | st.sampled_from(near) if near else gammas)
    return GameConfig(delta=delta, gamma=gamma, tau=tau)


def ulps(value: float, exact: Fraction) -> Fraction:
    """How far ``value`` is from ``exact``, in ulp of the float nearest it."""
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


# A bound on how far the float margin delta * (1 - gamma) - tau, or its
# mirror, lies from the exact one: each of its four roundings moves it by at
# most 2**-54, as every operand is at most 1, so 2**-50 leaves room.
MARGIN_ERROR = Fraction(2**-50)


@settings(deadline=None, max_examples=300)
@given(region_configs())
@example(GameConfig(delta=0.25, gamma=0.6, tau=0.3))  # ties in decimals, and floats
@example(GameConfig(delta=0.75, gamma=0.6, tau=0.3))  # put the mass 5.6e-17 above tau
@example(GameConfig(delta=0.2, gamma=0.25, tau=0.6))
@example(GameConfig(delta=0.8, gamma=0.25, tau=0.6))
@example(GameConfig(delta=0.4, gamma=0.5, tau=0.3))  # a tie in floats too
@example(GameConfig(delta=0.5, gamma=-0.0, tau=0.3))
def test_the_region_and_its_quantities_equal_the_exact_ones(config):
    """``equilibrium_region`` and the one-point ``threshold_sweep`` row against
    ``Fraction`` arithmetic on the config's exact values. The region is the
    exact one wherever the exact margin is not within the float margin's
    error of ``ROUNDING``: at an exact tie (margin 0) it is "none". The
    prior, the utilities and the listener's chance are within a few ulp, and
    each gamma bound 1 - tau/x within 2**-52 * (1 + tau/x), as that subtraction
    cancels."""
    delta, gamma, tau, _ = config
    report = equilibrium_region(config)
    (row,) = threshold_sweep([delta], [gamma], tau=tau)
    region, margin = exact_region(delta, gamma, tau)
    if margin is None or abs(margin - Fraction(game.ROUNDING)) > MARGIN_ERROR:
        assert (report.region, row.region) == (region, region), margin
    # From the roundings of each closed form: 2 ulp for delta * (1 - gamma), 3
    # for (1 - delta) * (1 - gamma) and 4 for p_w1 / (p_w1 + gamma), whose p_w1
    # error partly cancels. Over 200,000 configs with arbitrary mantissas the
    # worst were 1.46, 1.90 and 2.26 ulp.
    w1, w2, w3 = exact_prior(delta, gamma)
    assert ulps(row.p_w1, w1) <= 2
    assert Fraction(row.p_w2) == w2
    assert ulps(row.p_w3, w3) <= 3
    assert ulps(report.eu_a, exact_eu(delta, gamma, "a")) <= 2
    assert ulps(report.eu_b, exact_eu(delta, gamma, "b")) <= 3
    assert ulps(report.listener_q_given_speaker_q, exact_listener_q(delta, gamma)) <= 4
    assert (row.eu_a, row.eu_b) == (report.eu_a, report.eu_b)
    for bound, mass in ((report.gamma_bound_a, delta), (report.gamma_bound_b, 1 - Fraction(delta))):
        ratio = Fraction(tau) / Fraction(mass)
        assert abs(Fraction(bound) - (1 - ratio)) <= Fraction(2**-52) * (1 + ratio)


MIRROR = {"AA": "BB", "BB": "AA", "none": "none"}


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 120), rational_taus)
@example(199, Fraction(1, 2))
@example(400, Fraction(3, 10))
def test_the_sweep_mirrors_its_regions_across_delta_one_half(steps, tau):
    """On ``grid(K)`` x ``grid(K)`` the region at (delta_i, gamma_j) is the AA <-> BB
    mirror of the region at (delta_(K+1-i), gamma_j), though each row works out
    ``1 - delta`` in floats: the mirror's delta is (K+1-i)/(K+1), not 1 - i/(K+1)."""
    rows = threshold_sweep(grid(steps), grid(steps), tau=float(tau))
    regions = [row.region for row in rows]
    for i in range(steps):
        mirrored = regions[(steps - 1 - i) * steps:(steps - i) * steps]
        for j, (region, other) in enumerate(zip(regions[i * steps:(i + 1) * steps], mirrored)):
            assert region == MIRROR[other], (steps, tau, i + 1, j + 1, region, other)


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


# A sweep with repeated and signed-zero gammas, and the list of its rows.
SWEEP = threshold_sweep(grid(7), [0.0, 0.25, -0.0, 0.5, 0.25], tau=0.3)
SWEEP_ROWS = sweep_rows(game._sweep_runs(grid(7), [0.0, 0.25, -0.0, 0.5, 0.25], 0.3))


def test_sweep_reads_as_the_list_of_its_rows():
    """Length, indexing from either end, slices, which give lists, iteration,
    ``reversed``, ``in``, ``index`` and ``count`` read as the list's do."""
    rows = SWEEP_ROWS
    assert len(SWEEP) == len(rows) == 7 * 5
    assert bits(SWEEP) == bits(rows)
    assert bits(reversed(SWEEP)) == bits(reversed(rows))
    for index in (0, 1, 4, 5, 6, len(rows) - 1, -1, -5, -6, -len(rows)):
        assert bits([SWEEP[index]]) == bits([rows[index]])
    for index in (len(rows), len(rows) + 1, -len(rows) - 1):
        with pytest.raises(IndexError):
            SWEEP[index]
    for cut in (slice(None), slice(3), slice(-3, None), slice(4, 11), slice(None, None, -4),
                slice(30, 2, -3), slice(5, 5), slice(-500, 500, 2)):
        assert type(SWEEP[cut]) is list
        assert bits(SWEEP[cut]) == bits(rows[cut])
    for row in (rows[-1], rows[1], rows[2]):  # rows[2] holds -0.0, equal to rows[0]'s 0.0
        assert row in SWEEP
        assert SWEEP.index(row) == rows.index(row) < rows.index(row, rows.index(row) + 1)
        assert SWEEP.count(row) == rows.count(row) == 2
    assert SWEEP.index(rows[-2]) == len(rows) - 2 and SWEEP.count(rows[-2]) == 1
    assert rows[0]._replace(region="AB") not in SWEEP


def test_sweep_equals_the_list_of_its_rows_and_has_no_hash():
    """The decision: a sweep equals the list of the rows it reads, either way
    round, and any sweep of the same rows; like that list, it has no hash and
    takes its repr."""
    rows = SWEEP_ROWS
    assert SWEEP == rows and rows == SWEEP
    assert not SWEEP != rows and not rows != SWEEP
    assert SWEEP == threshold_sweep(grid(7), [0.0, 0.25, -0.0, 0.5, 0.25], tau=0.3)
    assert SWEEP == threshold_sweep(grid(7), [0.0, 0.25, 0.0, 0.5, 0.25], tau=0.3)
    assert SWEEP != rows[:-1] and SWEEP != [*rows[:-1], rows[-1]._replace(region="AB")]
    assert SWEEP != tuple(rows) and SWEEP != threshold_sweep(grid(7), [0.0], tau=0.3)
    assert threshold_sweep([], [0.5]) == [] == threshold_sweep([0.5], [])
    assert repr(SWEEP) == repr(rows)
    with pytest.raises(TypeError):
        hash(SWEEP)


def test_sweep_takes_no_assignment():
    with pytest.raises(TypeError):
        SWEEP[3] = SWEEP_ROWS[3]
    with pytest.raises(TypeError):
        del SWEEP[3]
    for name in ("_runs", "_k", "extra"):
        with pytest.raises(AttributeError):
            setattr(SWEEP, name, ())
        with pytest.raises(AttributeError):
            delattr(SWEEP, name)
    assert len(SWEEP) == 35


def test_sweep_survives_pickle_and_deepcopy():
    for twin in (pickle.loads(pickle.dumps(SWEEP)), copy.deepcopy(SWEEP)):
        assert type(twin) is type(SWEEP)
        assert bits(twin) == bits(SWEEP_ROWS)


signed_gammas = st.sampled_from((0.0, -0.0)) | st.floats(0.0, 1.0, exclude_max=True)


@settings(deadline=None)
@given(
    st.lists(st.floats(0.001, 0.999), max_size=5) | st.floats(0.001, 0.999).map(lambda d: [d] * 3),
    st.lists(signed_gammas, max_size=6),
    st.floats(0.01, 0.99),
)
@example([], [], 0.5)
@example([0.25] * 2, [0.0, -0.0], 0.2)
def test_sweep_rows_are_its_columns_zipped(delta_grid, gamma_grid, tau):
    """Every row a sweep reads, by iteration or by index, is the row zipped
    from its delta's columns, as ``_sweep_runs`` gives them, to the bit."""
    rows = threshold_sweep(delta_grid, gamma_grid, tau)
    expected = bits(sweep_rows(game._sweep_runs(delta_grid, gamma_grid, tau)))
    assert len(expected) == len(delta_grid) * len(gamma_grid) == len(rows)
    assert bits(rows) == bits(list(rows)) == bits(rows[:]) == expected
    assert bits(map(rows.__getitem__, range(len(rows)))) == expected


def test_sweep_builds_a_few_objects_per_grid_entry_not_per_row():
    """A 140 x 140 sweep holds each delta's columns, four tracked objects a
    delta, and no row: about 560 objects the collector tracks, against 19600
    rows."""
    deltas, gammas = grid(140), grid(140)
    threshold_sweep(deltas, gammas)  # any first-call allocation
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        rows = threshold_sweep(deltas, gammas)
        made = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert len(rows) == 140 * 140
    assert made <= 5 * (len(deltas) + len(gammas)), made


def test_grid_is_interior():
    values = grid(99)
    assert len(values) == 99
    assert values[0] == pytest.approx(0.01)
    assert values[-1] == pytest.approx(0.99)
    assert all(0.0 < v < 1.0 for v in values)
    with pytest.raises(ValueError):
        grid(0)
