"""The benchmark's three workloads: seeded inputs, one operation, output checks.

Inputs come in blocks. A ``sweep_grid`` or ``cli_hedge`` block holds a fixed
ladder of sizes in a seeded order, and a run always ends on a block
boundary, so every run does the same work per block whatever its seed and
its throughput does not depend on which sizes the seed happened to draw.

The checks recompute the closed forms (prior, region, recurrence, expected
utility) from the generated inputs with code of their own, so they do not
trust the program they check. They read the rendered outputs, which later
changes must keep byte-identical, rather than in-memory result objects.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace

import proc

TAU = 0.5  # scenario_mix leaves tau at the scenario format's default
SCENARIO_BLOCK = 500
SWEEP_SIZES = tuple(range(60, 141, 10))
HEDGE_SIZES = tuple(range(500, 2501, 250))
FORMATS = ("csv", "json")


def close(actual: float, expected: float) -> bool:
    # Outputs carry 12 significant digits.
    return math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-12)


def recurrence(last: int, hesitation: float = 0.5) -> list[float]:
    """f(0)=1, f(1)=h, f(n)=f(n-2)/(f(n-1)+f(n-2)) for n up to ``last``."""
    values = [1.0, hesitation]
    for n in range(2, last + 1):
        values.append(values[n - 2] / (values[n - 1] + values[n - 2]))
    return values


def propensities(values: list[float], n: int) -> tuple[float, float]:
    """(speaker, listener) propensity for action a after n steps."""
    if n == 0:
        return 1.0, 0.0
    return values[n - n % 2], values[n - 1 + n % 2]


def hedged_eu(delta: float, gamma: float, speaker: float, listener: float) -> tuple[float, float]:
    """The sender's (eu_a, eu_b) under coordination payoffs once a hedge has
    revealed the split: the unanimous worlds pay as before and the contested
    world pays when both sides happen to take the same action."""
    eu_a = delta * (1.0 - gamma) + gamma * speaker * listener
    eu_b = (1.0 - delta) * (1.0 - gamma) + gamma * (1.0 - speaker) * (1.0 - listener)
    return eu_a, eu_b


def expected_region(delta: float, gamma: float, tau: float) -> str | None:
    """AA, BB or none from the prior, or None where a coordinated outcome's
    probability lies within rounding of tau and either answer is right."""
    p_aa, p_bb = delta * (1.0 - gamma), (1.0 - delta) * (1.0 - gamma)
    if min(abs(p_aa - tau), abs(p_bb - tau)) <= 1e-9:
        return None
    if delta > 0.5 and p_aa > tau:
        return "AA"
    if delta < 0.5 and p_bb > tau:
        return "BB"
    return "none"


def csv_records(text: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _draw_unit(rng: random.Random, low: int = 1) -> float:
    """A parameter in (0, 1) (or [0, 1) with ``low=0``) with four decimals."""
    return rng.randint(low, 9999) / 10000


class Workload:
    """What the worker needs of a workload besides its inputs, op and check."""

    name: str
    why: str
    in_process: bool
    tail_percentile: float  # fixed per workload, see README.md

    def bind(self, hs) -> None:
        self.hs = hs

    def setup_checks(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# scenario_mix


@dataclass(frozen=True)
class ScenarioInput:
    n: int
    flip_s: int
    flip_l: int
    delta: float
    gamma: float
    epsilon: float
    speaker: str
    world: str
    steps: int

    @property
    def text(self) -> str:
        return (
            f"[series]\nn = {self.n}\nflip.S = {self.flip_s}\nflip.L = {self.flip_l}\n\n"
            f"[game]\ndelta = {self.delta}\ngamma = {self.gamma}\nepsilon = {self.epsilon}\n\n"
            f"[run]\nspeaker = {self.speaker}\nworld = {self.world}\nsteps = {self.steps}\n"
        )


def draw_scenario(rng: random.Random, max_steps: int = 60) -> ScenarioInput:
    n = rng.randint(3, 12)
    flip_s, flip_l = rng.randint(2, n), rng.randint(2, n)
    # Pooling keeps w1 (states before the first flip) and w2 (first through
    # last flip) always, and w3 only when some state follows the last flip.
    worlds = ("w1", "w2", "w3") if max(flip_s, flip_l) < n else ("w1", "w2")
    return ScenarioInput(
        n=n,
        flip_s=flip_s,
        flip_l=flip_l,
        delta=_draw_unit(rng),
        gamma=_draw_unit(rng, low=0),
        epsilon=rng.randint(0, 4999) / 10000,
        speaker=rng.choice(("S", "L")),
        world=rng.choice(worlds),
        steps=rng.randint(4, max_steps),
    )


class ScenarioMix(Workload):
    name = "scenario_mix"
    why = (
        "one distinct scenario per op through parse, pool, signal, update, posterior, "
        "equilibrium, short cache-warm hedging and every render; short runs show here"
    )
    in_process = True
    tail_percentile = 99.0

    def __init__(self, smoke: bool):
        self.max_steps = 10 if smoke else 60
        self.block_size = 20 if smoke else SCENARIO_BLOCK

    def blocks(self, rng: random.Random):
        while True:
            yield [draw_scenario(rng, self.max_steps) for _ in range(self.block_size)]

    def warmup_inputs(self, rng: random.Random) -> list[ScenarioInput]:
        # One scenario per step count, so every hedging length is cached
        # before timing: this workload measures the cache-warm path.
        return [replace(draw_scenario(rng), steps=steps) for steps in range(4, self.max_steps + 1)]

    def setup_checks(self) -> list[str]:
        tests = proc.ROOT / "tests"
        text = (tests / "data" / "canonical.scn").read_text(encoding="utf-8")
        golden = (tests / "golden" / "canonical_simulate.json").read_text(encoding="utf-8")
        sio = self.hs.scenario_io
        if sio.render_report_json(sio.run_scenario(sio.parse_scenario(text))) != golden:
            return ["the canonical scenario no longer renders byte-equal to its golden file"]
        return []

    def run(self, inp: ScenarioInput):
        sio = self.hs.scenario_io
        report = sio.run_scenario(sio.parse_scenario(inp.text))
        rendered = (
            sio.render_report_json(report),
            sio.render_report_csv(report),
            sio.render_dialogue_jsonl(report),
        )
        return rendered, self.hs.semantics.check_frame(report.model)

    @staticmethod
    def output_bytes(result) -> bytes:
        return "".join(result[0]).encode()

    def check(self, inp: ScenarioInput, result) -> list[str]:
        (report_json, report_csv, dialogue_jsonl), frame = result
        payload = json.loads(report_json)
        problems = []
        dialogue = payload["dialogue"]
        live = set(dialogue[-1]["live"])
        posterior = payload["posterior"]
        if not set(posterior) <= live or abs(sum(posterior.values()) - 1.0) > 1e-9:
            problems.append(f"posterior {posterior} is not a distribution over {sorted(live)}")
        game = self.hs.game
        config = game.GameConfig(delta=inp.delta, gamma=inp.gamma, epsilon=inp.epsilon)
        for player in ("S", "L"):
            for action in ("a", "b"):
                closed = game.expected_utility(config, player, action)
                oracle = game.brute_force_eu(config, player, action)
                if not close(closed, oracle):
                    problems.append(f"EU({player},{action}) {closed} != brute force {oracle}")
        problems += self._check_region(inp, payload["equilibrium"])
        hedging = payload["hedging"]
        if hedging["eu_never_below_step0"] is not True:
            problems.append("hedging reports EU below its step-0 value")
        speaker, listener = propensities(recurrence(inp.steps), inp.steps)
        want_a, want_b = hedged_eu(inp.delta, inp.gamma, speaker, listener)
        if not (close(hedging["final_eu_a"], want_a) and close(hedging["final_eu_b"], want_b)):
            problems.append(
                f"final EU ({hedging['final_eu_a']}, {hedging['final_eu_b']}) != "
                f"recurrence ({want_a}, {want_b})"
            )
        if len(csv_records(report_csv)) != len(dialogue):
            problems.append("CSV rows differ from the dialogue steps")
        if [json.loads(line) for line in dialogue_jsonl.splitlines()] != dialogue:
            problems.append("JSON-lines trace differs from the report's dialogue")
        if not (frame.reflexive and frame.symmetric):
            problems.append(f"frame is not reflexive and symmetric: {frame}")
        return problems

    @staticmethod
    def _check_region(inp: ScenarioInput, eq: dict) -> list[str]:
        d, g = inp.delta, inp.gamma
        problems = []
        if not close(eq["gamma_bound_a"], 1.0 - TAU / d) or not close(
            eq["gamma_bound_b"], 1.0 - TAU / (1.0 - d)
        ):
            problems.append(f"gamma bounds {eq['gamma_bound_a']}, {eq['gamma_bound_b']} are off")
        if not close(eq["eu_a"], d * (1.0 - g)) or not close(eq["eu_b"], (1.0 - d) * (1.0 - g)):
            problems.append(f"sender EUs {eq['eu_a']}, {eq['eu_b']} are off")
        want = expected_region(d, g, TAU)
        if want is None:
            return problems
        by_bounds = (
            "AA" if d > 0.5 and g < eq["gamma_bound_a"]
            else "BB" if d < 0.5 and g < eq["gamma_bound_b"]
            else "none"
        )
        if eq["region"] != want or by_bounds != want:
            problems.append(f"region {eq['region']} (bounds say {by_bounds}), expected {want}")
        return problems


# ---------------------------------------------------------------------------
# sweep_grid


@dataclass(frozen=True)
class SweepInput:
    k: int
    tau: float
    fmt: str


class SweepGrid(Workload):
    name = "sweep_grid"
    why = (
        "K x K threshold sweeps with K in [60,140] and a CSV or JSON render: bulk game "
        "and rendering work, peak memory tracks the rows held"
    )
    in_process = True
    tail_percentile = 70.0

    def __init__(self, smoke: bool):
        self.sizes = (3, 5) if smoke else SWEEP_SIZES

    def blocks(self, rng: random.Random):
        while True:
            block = [
                SweepInput(k=k, tau=rng.choice((0.3, 0.5, 0.7)), fmt=fmt)
                for k in self.sizes
                for fmt in FORMATS
            ]
            rng.shuffle(block)
            yield block

    def warmup_inputs(self, rng: random.Random) -> list[SweepInput]:
        return [SweepInput(k=4, tau=0.5, fmt=fmt) for fmt in FORMATS]

    def run(self, inp: SweepInput) -> str:
        game, sio = self.hs.game, self.hs.scenario_io
        rows = game.threshold_sweep(game.grid(inp.k), game.grid(inp.k), tau=inp.tau)
        render = sio.render_sweep_csv if inp.fmt == "csv" else sio.render_sweep_json
        return render(rows)

    @staticmethod
    def output_bytes(result: str) -> bytes:
        return result.encode()

    @staticmethod
    def check(inp: SweepInput, result: str) -> list[str]:
        rows = csv_records(result) if inp.fmt == "csv" else json.loads(result)
        k = inp.k
        if len(rows) != k * k:
            return [f"{len(rows)} rows, expected {k * k}"]
        for index, row in enumerate(rows):
            delta = (index // k + 1) / (k + 1)
            gamma = (index % k + 1) / (k + 1)
            if not (close(float(row["delta"]), delta) and close(float(row["gamma"]), gamma)):
                return [f"row {index} is ({row['delta']}, {row['gamma']}), expected ({delta}, {gamma})"]
            total = float(row["p_w1"]) + float(row["p_w2"]) + float(row["p_w3"])
            if abs(total - 1.0) > 1e-9:
                return [f"row {index} prior sums to {total}"]
            want = expected_region(delta, gamma, inp.tau)
            if want is not None and row["region"] != want:
                return [f"row {index} region {row['region']}, expected {want}"]
        return []


# ---------------------------------------------------------------------------
# cli_hedge


@dataclass(frozen=True)
class HedgeInput:
    steps: int
    delta: float
    gamma: float
    fmt: str

    @property
    def argv(self) -> list[str]:
        return [
            "hedge",
            *("--delta", repr(self.delta), "--gamma", repr(self.gamma)),
            *("--steps", str(self.steps), "--format", self.fmt),
        ]


CLI_MODULE = ["-m", "hedgesim"]
TRACED_HEDGE = [str(proc.HERE / "traced_hedge.py")]
CHILD_TIMEOUT_S = 60.0


class CliHedge(Workload):
    name = "cli_hedge"
    why = (
        "one fresh `python -m hedgesim hedge` per op, N in [500,2500]: start-up, import and "
        "the cold quadratic recurrence build that an in-process loop would hide"
    )
    in_process = False
    tail_percentile = 75.0

    def __init__(self, smoke: bool):
        self.sizes = (8, 16) if smoke else HEDGE_SIZES
        self.prefix = CLI_MODULE

    def blocks(self, rng: random.Random):
        # Formats alternate along the size ladder from a seeded start, so
        # every block renders about half of its steps in each format.
        first = rng.randrange(2)
        formats = {n: FORMATS[(i + first) % 2] for i, n in enumerate(self.sizes)}
        while True:
            block = [
                HedgeInput(steps=n, delta=_draw_unit(rng), gamma=_draw_unit(rng, low=0), fmt=formats[n])
                for n in self.sizes
            ]
            rng.shuffle(block)
            yield block

    def warmup_inputs(self, rng: random.Random) -> list[HedgeInput]:
        return [HedgeInput(steps=4, delta=0.7, gamma=0.2, fmt="csv")]

    def run(self, inp: HedgeInput) -> proc.Finished:
        return proc.run_child([*self.prefix, *inp.argv], CHILD_TIMEOUT_S)

    @staticmethod
    def output_bytes(result: proc.Finished) -> bytes:
        return result.stdout

    @staticmethod
    def check(inp: HedgeInput, result: proc.Finished) -> list[str]:
        if result.returncode != 0:
            return [f"exit {result.returncode}: {result.stderr.decode(errors='replace')[-300:]}"]
        text = result.stdout.decode()
        rows = csv_records(text) if inp.fmt == "csv" else json.loads(text)["steps"]
        if len(rows) != inp.steps + 1:
            return [f"{len(rows)} rows, expected {inp.steps + 1}"]
        values = recurrence(inp.steps)
        for n, row in enumerate(rows):
            speaker, listener = propensities(values, n)
            eu_a, eu_b = hedged_eu(inp.delta, inp.gamma, speaker, listener)
            got = [float(row[key]) for key in ("n", "p_speaker_a", "p_listener_a", "eu_a", "eu_b")]
            if got[0] != n or not all(
                close(a, b) for a, b in zip(got[1:], (speaker, listener, eu_a, eu_b))
            ):
                return [f"step {n}: {got[1:]} != recurrence {[speaker, listener, eu_a, eu_b]}"]
        return []


WORKLOADS = {w.name: w for w in (ScenarioMix, SweepGrid, CliHedge)}
