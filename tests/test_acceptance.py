"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Random checks use fixed seeds so the suite is deterministic.
"""

import contextlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import oracles
from conftest import reported_recurrence

from hedgesim.assertion import (
    SignalLikelihoods,
    initial_common_ground,
    listener_posterior,
    speaker_signal,
    update,
)
from hedgesim.game import (
    ACTIONS,
    PLAYERS,
    GameConfig,
    brute_force_eu,
    expected_utility,
    grid,
    threshold_sweep,
)
from hedgesim.hedging import run_hedging
from hedgesim.semantics import Formula, check_frame, extension
from hedgesim.worlds import (
    NOT_PHI,
    Q,
    QBAR,
    SoritesSeries,
    common_belief,
    pool_states,
)

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
DATA_DIR = Path(__file__).parent / "data"
CANONICAL = DATA_DIR / "canonical.scn"


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL {label}")
        raise
    print(f"[criterion {number:02d}] PASS {label}")


def canonical_model():
    return pool_states(SoritesSeries(5, {"S": 4, "L": 2}))


def test_criterion_01_recurrence_reproduction():
    with criterion(1, "recurrence seeds exact, early values within 1e-3"):
        values = reported_recurrence(3)
        assert values[0] == 1.0
        assert values[1] == 0.5
        assert abs(values[2] - 0.666) <= 1e-3
        assert abs(values[3] - 0.428) <= 1e-3


def test_criterion_02_oscillation_bands():
    with criterion(2, "even/odd bands on [4,200], pair sums near 1 from 40"):
        values = reported_recurrence(200)
        for n in range(4, 201):
            if n % 2 == 0:
                assert 0.55 <= values[n] <= 0.70, f"even f({n})={values[n]}"
            else:
                assert 0.35 <= values[n] <= 0.50, f"odd f({n})={values[n]}"
        for n in range(40, 200):
            assert abs(values[n] + values[n + 1] - 1.0) <= 1e-2, f"pair sum at {n}"


def test_criterion_03_posterior_reproduction():
    with criterion(3, "hedge posterior: 1 exactly at eps=0, 0.99 at eps=0.01"):
        model = canonical_model()
        cg1 = update(initial_common_ground(model), Formula.MIGHT_PHI)
        assert cg1.live == ("w1", "w2")
        exact = listener_posterior(
            cg1, Formula.MIGHT_PHI, SignalLikelihoods.for_common_ground(cg1, 0.0, Formula.MIGHT_PHI)
        )
        assert exact["w2"] == 1.0
        noisy = listener_posterior(
            cg1, Formula.MIGHT_PHI, SignalLikelihoods.for_common_ground(cg1, 0.01, Formula.MIGHT_PHI)
        )
        assert abs(noisy["w2"] - 0.99) <= 1e-12


def test_criterion_04_closed_form_vs_oracle():
    with criterion(4, "closed form == brute force on 1000 random configs"):
        rng = random.Random(1404)
        for _ in range(1000):
            config = GameConfig(
                delta=rng.uniform(0.001, 0.999), gamma=rng.uniform(0.0, 0.999)
            )
            for player in PLAYERS:
                for action in ACTIONS:
                    closed = expected_utility(config, player, action)
                    brute = brute_force_eu(config, player, action)
                    assert abs(closed - brute) <= 1e-12
            assert expected_utility(config, "S", "a") == config.delta * (1.0 - config.gamma)
            assert expected_utility(config, "L", "a") == config.delta * (1.0 - config.gamma)
            assert expected_utility(config, "S", "b") == (1.0 - config.delta) * (1.0 - config.gamma)
            assert expected_utility(config, "L", "b") == (1.0 - config.delta) * (1.0 - config.gamma)


def test_criterion_05_threshold_frontier():
    with criterion(5, "99x99 sweep: AA iff delta>0.5 and gamma<1-1/(2 delta)"):
        points = grid(99)
        rows = threshold_sweep(points, points, tau=0.5)
        assert len(rows) == 99 * 99
        for row in rows:
            expected_aa = row.delta > 0.5 and row.gamma < 1.0 - 1.0 / (2.0 * row.delta)
            assert (row.region == "AA") == expected_aa, (row.delta, row.gamma, row.region)
        for delta in (0.55, 0.6, 0.75, 0.9):
            bound = 1.0 - 0.5 / delta
            assert threshold_sweep([delta], [bound - 1e-9], tau=0.5)[0].region == "AA"
            assert threshold_sweep([delta], [bound + 1e-9], tau=0.5)[0].region == "none"


def test_criterion_06_stepwise_monotonicity():
    with criterion(6, "eu^n >= eu^0 on a 20x20 grid up to n=100; n=3 value"):
        deltas = grid(20)
        gammas = grid(20)
        for delta in deltas:
            for gamma in gammas:
                steps = run_hedging(GameConfig(delta=delta, gamma=gamma), max_steps=100).steps
                for step in steps:
                    assert step.eu_a >= steps[0].eu_a
                    assert step.eu_b >= steps[0].eu_b
        n3 = run_hedging(GameConfig(delta=0.7, gamma=0.2), max_steps=4).steps[3].eu_a
        assert abs(n3 - (0.7 * 0.8 + 0.2 * 0.285)) <= 2e-3


def test_criterion_07_frame_properties():
    with criterion(7, "canonical frame reflexive, symmetric, non-transitive"):
        report = check_frame(canonical_model())
        assert report.reflexive is True
        assert report.symmetric is True
        assert report.transitive is False
        assert report.witness == ("w1", "w2", "w3")


def test_criterion_08_public_belief_dynamics():
    with criterion(8, "definite signal makes the far belief public; silent start does not"):
        model = canonical_model()
        all_qbar = model.valuation[NOT_PHI]
        assert common_belief(model, all_qbar) == frozenset()
        cg0 = initial_common_ground(model)
        signal = speaker_signal(model, "S", "w3")
        assert signal is Formula.NOT_PHI
        cg1 = update(cg0, signal)
        result = common_belief(model, all_qbar, cg1.live)
        assert "w3" in result


def test_criterion_09_pooling_soundness():
    with criterion(9, "1000 random marches: pools match judgment vectors; might-phi tracks q"):
        rng = random.Random(1409)
        for _ in range(1000):
            n = rng.randint(3, 50)
            agents = rng.randint(2, 5)
            flips = {f"a{i}": rng.randint(2, n) for i in range(agents)}
            series = SoritesSeries(n, flips)
            model = pool_states(series)
            lo, hi = min(flips.values()), max(flips.values())
            vectors = {t: oracles.judgment_vector(series, t) for t in series.states}
            all_q = {t for t in series.states if set(vectors[t]) == {Q}}
            all_qbar = {t for t in series.states if set(vectors[t]) == {QBAR}}
            # w1 pools exactly the unanimous-q states; w3 the unanimous-qbar
            # states except the last flip state, which the closed-interval
            # rule keeps in w2; w2 pools the rest.
            assert set(model.members["w1"]) == all_q
            expected_w3 = all_qbar - {hi}
            if "w3" in model.worlds:
                assert set(model.members["w3"]) == expected_w3
            else:
                assert not expected_w3
            assert set(model.members["w2"]) == set(series.states) - all_q - expected_w3
            if agents == 2:
                middle_vectors = {vectors[t] for t in model.members["w2"] if t != hi}
                assert len(middle_vectors) <= 1
            # might-phi holds exactly where some agent judges q
            someone_q = frozenset(
                w
                for w in model.worlds
                if any(model.judgments[a][w] == Q for a in model.agents)
            )
            assert extension(model, Formula.MIGHT_PHI) == someone_q


def test_criterion_10_cli_golden(tmp_path):
    with criterion(10, "simulate golden: signal, trajectory, posterior, byte-stable"):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        outputs = []
        for name in ("one.json", "two.json"):
            target = tmp_path / name
            result = subprocess.run(
                [sys.executable, "-m", "hedgesim", "simulate", str(CANONICAL), "--out", str(target)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["signal"] == "might phi"
        assert [step["live"] for step in payload["dialogue"]] == [
            ["w1", "w2", "w3"],
            ["w1", "w2"],
        ]
        epsilon = payload["scenario"]["epsilon"]
        assert math.isclose(payload["posterior"]["w2"], 1.0 - epsilon, abs_tol=1e-12)
        golden = (Path(__file__).parent / "golden" / "canonical_simulate.json").read_bytes()
        assert outputs[0] == golden
