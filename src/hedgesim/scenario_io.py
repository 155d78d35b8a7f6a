"""Scenario files and end-to-end runs.

Scenario format: three sections (``[series]``, ``[game]``, ``[run]``) of
``key = value`` lines; ``#`` starts a comment, blank lines are ignored.

    [series]            # either `canonical = true` or an explicit march
    n = 5
    flip.S = 4
    flip.L = 2

    [game]
    delta = 0.7         # required
    gamma = 0.2         # required
    tau = 0.5           # optional, default game.DEFAULT_TAU
    epsilon = 0.01      # optional, default game.DEFAULT_EPSILON

    [run]
    speaker = S         # required, one of the series' agents
    world = w2          # required, a world of the pooled model
    steps = 50          # optional, default hedging.DEFAULT_STEPS
    tolerance = 1e-6    # optional, default hedging.DEFAULT_TOLERANCE

Unknown sections or keys, duplicates, bad values, and range violations are
errors that name the offending key and line. Ranges are checked by the
objects that own them (GameConfig, run_hedging, SoritesSeries), and number
text is read by ``game.parse_number``, as the CLI flags read it, so a bad
value gets the same message here as from the API and the flags.

The CSV and JSON text of a run lives in ``writers``. This module re-exports
only the seven ``render_*`` functions the benchmark reads through it (the
same objects, not wrappers); everything else is imported from ``writers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .assertion import (
    SignalLikelihoods,
    base_rate,
    initial_common_ground,
    listener_posterior,
    speaker_signal,
    update,
)
from .game import (
    GAME_RANGES,
    GameConfig,
    RegionReport,
    check_parameter,
    equilibrium_region,
    parse_number,
)
from .hedging import (
    DEFAULT_STEPS,
    DEFAULT_TOLERANCE,
    HEDGING_RANGES,
    HedgingTrace,
    run_hedging,
)
from .semantics import Formula, extension
from .worlds import (
    SoritesSeries,
    WorldModel,
    check_flip,
    check_states,
    common_belief,
    pool_states,
    world_pools,
)
# The render_* names are the writers the benchmark reads through this module.
from .writers import (  # noqa: F401  (re-exported)
    _SCENARIO_KEYS,
    render_dialogue_jsonl,
    render_hedging_csv,
    render_hedging_json,
    render_report_csv,
    render_report_json,
    render_sweep_csv,
    render_sweep_json,
)

CANONICAL_N = 5
CANONICAL_FLIPS = {"S": 4, "L": 2}


class ScenarioParseError(ValueError):
    """A scenario file problem, carrying the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class ReportAuditError(RuntimeError):
    """A run report failed its internal consistency audit."""


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: the march, the game parameters, and the run plan."""

    series: SoritesSeries
    canonical: bool
    config: GameConfig
    speaker: str
    world: str
    steps: int = DEFAULT_STEPS
    tolerance: float = DEFAULT_TOLERANCE


_FIXED_KEYS = {"series": ("n", "canonical"), **_SCENARIO_KEYS}

_Entry = tuple[str, int]  # raw value, line number


def _tokenize(text: str) -> dict[str, dict[str, _Entry]]:
    entries: dict[str, dict[str, _Entry]] = {name: {} for name in _FIXED_KEYS}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioParseError("unterminated section header", lineno)
            name = line[1:-1].strip().lower()
            if name not in _FIXED_KEYS:
                raise ScenarioParseError(f"unknown section [{name}]", lineno)
            section = name
            continue
        if "=" not in line:
            raise ScenarioParseError(f"expected `key = value`, got {line!r}", lineno)
        if section is None:
            raise ScenarioParseError("key before any [section] header", lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        if not key:
            raise ScenarioParseError("empty key", lineno)
        if not value:
            raise ScenarioParseError(f"missing value for key {key!r}", lineno)
        is_flip = section == "series" and key.startswith("flip.") and len(key) > len("flip.")
        if key not in _FIXED_KEYS[section] and not is_flip:
            raise ScenarioParseError(f"unknown key {key!r} in [{section}]", lineno)
        if key in entries[section]:
            raise ScenarioParseError(f"duplicate key {key!r}", lineno)
        entries[section][key] = (value, lineno)
    return entries


def _number(key: str, entry: _Entry, kind: type, ranges: Mapping | None = None) -> int | float:
    """Convert a value and, given the ``ranges`` of its owner, check it there."""
    value, lineno = entry
    number = _owned(lineno, parse_number, key, value, kind)
    if ranges is None:
        return number
    return _owned(lineno, check_parameter, ranges, key, number)


def _owned(lineno: int | None, check: Callable, *args, **kwargs):
    """Call a value's owning validator; its ValueError becomes a parse error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioParseError(str(exc), lineno) from None


def _bool_value(key: str, entry: _Entry) -> bool:
    value, lineno = entry
    lowered = value.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ScenarioParseError(f"{key} must be true or false, got {value!r}", lineno)


def _require(section: Mapping[str, _Entry], name: str, key: str) -> _Entry:
    if key not in section:
        raise ScenarioParseError(f"missing required key {key!r} in [{name}]")
    return section[key]


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; see the module docstring for the grammar."""
    entries = _tokenize(text)
    series_entries, game_entries, run_entries = (
        entries["series"],
        entries["game"],
        entries["run"],
    )

    canonical = False
    if "canonical" in series_entries:
        canonical = _bool_value("canonical", series_entries["canonical"])
    if canonical:
        extras = [key for key in series_entries if key != "canonical"]
        if extras:
            raise ScenarioParseError(
                f"canonical series takes no other [series] keys, got {extras[0]!r}",
                series_entries[extras[0]][1],
            )
        series = SoritesSeries(n=CANONICAL_N, flips=dict(CANONICAL_FLIPS))
    else:
        n_entry = _require(series_entries, "series", "n")
        n = _number("n", n_entry, int)
        _owned(n_entry[1], check_states, n)
        flips: dict[str, int] = {}
        for key, entry in series_entries.items():
            if key.startswith("flip."):
                agent = key[len("flip."):]
                flips[agent] = _number(key, entry, int)
                _owned(entry[1], check_flip, agent, flips[agent], n)
        series = _owned(None, SoritesSeries, n, flips)

    delta_entry = _require(game_entries, "game", "delta")
    _require(game_entries, "game", "gamma")
    game = {key: _number(key, entry, float, GAME_RANGES) for key, entry in game_entries.items()}
    # Each value is in range, so GameConfig can only reject a delta too small for tau.
    config = _owned(delta_entry[1], GameConfig, **game)

    speaker_entry = _require(run_entries, "run", "speaker")
    speaker = speaker_entry[0]
    world_entry = _require(run_entries, "run", "world")
    world = world_entry[0]
    run = {}
    for key, kind in (("steps", int), ("tolerance", float)):
        if key in run_entries:
            run[key] = _number(key, run_entries[key], kind, HEDGING_RANGES)

    if speaker not in series.flips:
        raise ScenarioParseError(
            f"speaker {speaker!r} is not an agent of the series "
            f"(agents: {', '.join(series.agents)})",
            speaker_entry[1],
        )
    worlds = world_pools(series)
    if world not in worlds:
        raise ScenarioParseError(
            f"world {world!r} not in the pooled model (worlds: {', '.join(worlds)})",
            world_entry[1],
        )
    return Scenario(
        series=series,
        canonical=canonical,
        config=config,
        speaker=speaker,
        world=world,
        **run,
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


@dataclass(frozen=True)
class DialogueStep:
    """One conversation step: what was said and where belief stands after it."""

    time: int
    signal: Formula | None
    live: tuple[str, ...]
    posterior: Mapping[str, float]


@dataclass(frozen=True)
class RunReport:
    """Everything a single end-to-end run produced."""

    scenario: Scenario
    model: WorldModel
    signal: Formula
    dialogue: tuple[DialogueStep, ...]
    posterior: Mapping[str, float]
    region: RegionReport
    hedging: HedgingTrace
    public_belief_proposition: frozenset[str]
    public_belief_worlds: frozenset[str]
    public_belief: bool


def run_scenario(scenario: Scenario) -> RunReport:
    """Deterministic end-to-end run: pool, signal, update, infer, classify, hedge.

    The public-belief flag reports whether the asserted polarity's unanimous
    worlds are publicly believed once the common ground has been updated.
    """
    model = pool_states(scenario.series)
    if len(model.agents) != 2:
        raise ValueError(
            f"the game stage needs exactly two agents, got {len(model.agents)}"
        )
    cg0 = initial_common_ground(model)
    signal = speaker_signal(model, scenario.speaker, scenario.world)
    cg1 = update(cg0, signal)
    likelihoods = SignalLikelihoods.for_common_ground(
        cg1,
        scenario.config.epsilon,
        repertoire=(Formula.PHI, Formula.NOT_PHI, signal),
    )
    posterior = listener_posterior(cg1, signal, likelihoods)
    dialogue = (
        DialogueStep(time=cg0.time, signal=None, live=cg0.live, posterior=base_rate(cg0)),
        DialogueStep(time=cg1.time, signal=signal, live=cg1.live, posterior=posterior),
    )
    proposition = model.valuation[signal.atom.text]
    public_worlds = common_belief(model, proposition, cg1.live)
    report = RunReport(
        scenario=scenario,
        model=model,
        signal=signal,
        dialogue=dialogue,
        posterior=posterior,
        region=equilibrium_region(scenario.config),
        hedging=run_hedging(
            scenario.config, max_steps=scenario.steps, tolerance=scenario.tolerance
        ),
        public_belief_proposition=proposition,
        public_belief_worlds=public_worlds,
        public_belief=bool(public_worlds),
    )
    audit_report(report)
    return report


def audit_report(report: RunReport) -> None:
    """Internal consistency: the signal holds at the actual world and at every
    surviving world, and the posterior is a distribution over the survivors."""
    signal_worlds = extension(report.model, report.signal)
    if report.scenario.world not in signal_worlds:
        raise ReportAuditError("signal is not true at the actual world")
    final_live = set(report.dialogue[-1].live)
    if not final_live <= signal_worlds:
        raise ReportAuditError("a surviving world falsifies the applied signal")
    support = {w for w, p in report.posterior.items() if p > 0.0}
    if not support <= final_live:
        raise ReportAuditError("posterior support leaks outside the common ground")
    total = sum(report.posterior.values())
    if abs(total - 1.0) > 1e-12:
        raise ReportAuditError(f"posterior sums to {total!r}, not 1")
