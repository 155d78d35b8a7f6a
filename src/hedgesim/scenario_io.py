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

One table, ``_READERS``, gives each key its reader: the canonical flag,
plain text, or number text read by ``game.parse_number`` (as the CLI flags
read it) and checked by its owner (``GAME_RANGES``, ``HEDGING_RANGES`` or
``check_states``), so a bad value gets the API's and the flags' message.
Values are read line by line: of several faults, the first faulty line is
reported, with its key and line. The checks that span keys come after, by
section: canonical extras, missing keys, flips against n, delta against
tau, speaker and world. A file is read as UTF-8, with or without a BOM.

The CSV and JSON text of a run lives in ``writers``. This module re-exports
only the seven ``render_*`` functions the benchmark reads through it (the
same objects, not wrappers); everything else is imported from ``writers``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Mapping

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
    check_parameter,
    equilibrium_region,
    parse_number,
)
from .hedging import (
    DEFAULT_STEPS,
    DEFAULT_TOLERANCE,
    HEDGING_RANGES,
    run_hedging,
)
from .semantics import extension
from .worlds import (
    CANONICAL_FLIPS,
    CANONICAL_N,
    SoritesSeries,
    check_flip,
    check_states,
    common_belief,
    pool_states,
    world_pools,
)
from .writers import _SCENARIO_KEYS
from .writers import (  # noqa: F401  (re-exported)
    render_dialogue_jsonl,
    render_hedging_csv,
    render_hedging_json,
    render_report_csv,
    render_report_json,
    render_sweep_csv,
    render_sweep_json,
)

class ScenarioParseError(ValueError):
    """A scenario file problem, carrying the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class ReportAuditError(RuntimeError):
    """A run report failed its internal consistency audit."""


class Scenario(namedtuple(
    "Scenario", "series canonical config speaker world steps tolerance",
    defaults=(DEFAULT_STEPS, DEFAULT_TOLERANCE),
)):
    """A parsed scenario: the ``SoritesSeries`` and whether it is the
    canonical one, the ``GameConfig``, and the run plan."""

    __slots__ = ()


def _ranged(ranges: Mapping, kind: type = float) -> Callable[[str, str], int | float]:
    """A reader of number text whose owner checks it against ``ranges``."""
    return lambda key, text: check_parameter(ranges, key, parse_number(key, text, kind))


def _flag(key: str, text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"{key} must be true or false, got {text!r}")


# Each key's reader, which returns its value or raises ValueError; ``flip.<agent>`` reads any flip.
_READERS = {
    "series": {
        "n": lambda key, text: check_states(parse_number(key, text, int)),
        "canonical": _flag,
        "flip.<agent>": lambda key, text: parse_number(key, text, int),
    },
    "game": dict.fromkeys(_SCENARIO_KEYS["game"], _ranged(GAME_RANGES)),
    "run": {
        **dict.fromkeys(("speaker", "world"), lambda key, text: text),
        "steps": _ranged(HEDGING_RANGES, int),
        "tolerance": _ranged(HEDGING_RANGES),
    },
}


def _owned(lineno: int | None, check: Callable, *args, **kwargs):
    """Call a value's owning validator; its ValueError becomes a parse error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioParseError(str(exc), lineno) from None


def _read(text: str) -> tuple[dict[str, dict], dict[str, dict[str, int]]]:
    """Each section's values, read as their lines are met, and their lines."""
    values: dict[str, dict] = {name: {} for name in _READERS}
    lines: dict[str, dict[str, int]] = {name: {} for name in _READERS}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioParseError("unterminated section header", lineno)
            section = line[1:-1].strip().lower()
            if section not in _READERS:
                raise ScenarioParseError(f"unknown section [{section}]", lineno)
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
        pattern = "flip.<agent>" if key.startswith("flip.") and key != "flip." else key
        reader = _READERS[section].get(pattern)
        if reader is None:
            raise ScenarioParseError(f"unknown key {key!r} in [{section}]", lineno)
        if key in values[section]:
            raise ScenarioParseError(f"duplicate key {key!r}", lineno)
        values[section][key] = _owned(lineno, reader, key, value)
        lines[section][key] = lineno
    return values, lines


def _require(values: Mapping[str, Mapping], section: str, *keys: str) -> None:
    for key in keys:
        if key not in values[section]:
            raise ScenarioParseError(f"missing required key {key!r} in [{section}]")


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; see the module docstring for the grammar."""
    values, lines = _read(text)
    march, game, run = values["series"], values["game"], values["run"]
    canonical = march.get("canonical", False)
    if canonical:
        extras = [key for key in march if key != "canonical"]
        if extras:
            raise ScenarioParseError(
                f"canonical series takes no other [series] keys, got {extras[0]!r}",
                lines["series"][extras[0]],
            )
        series = SoritesSeries(CANONICAL_N, CANONICAL_FLIPS)
    else:
        _require(values, "series", "n")
        flips = {key[len("flip."):]: flip for key, flip in march.items() if key.startswith("flip.")}
        for agent, flip in flips.items():
            _owned(lines["series"]["flip." + agent], check_flip, agent, flip, march["n"])
        series = _owned(None, SoritesSeries, march["n"], flips)

    _require(values, "game", "delta", "gamma")
    # Each value is in range, so GameConfig can only reject a delta too small for tau.
    config = _owned(lines["game"]["delta"], GameConfig, **game)

    _require(values, "run", "speaker", "world")
    if run["speaker"] not in series.flips:
        raise ScenarioParseError(
            f"speaker {run['speaker']!r} is not an agent of the series "
            f"(agents: {', '.join(series.agents)})",
            lines["run"]["speaker"],
        )
    worlds = world_pools(series)
    if run["world"] not in worlds:
        raise ScenarioParseError(
            f"world {run['world']!r} not in the pooled model (worlds: {', '.join(worlds)})",
            lines["run"]["world"],
        )
    return Scenario(series, canonical, config, **run)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_scenario(handle.read())


class DialogueStep(namedtuple("DialogueStep", "time signal live posterior")):
    """One conversation step: what was said (a ``Formula``, None before the
    first assertion) and where belief stands after it."""

    __slots__ = ()


class RunReport(namedtuple(
    "RunReport",
    "scenario model signal dialogue posterior region hedging "
    "public_belief_proposition public_belief_worlds public_belief",
)):
    """Everything a single end-to-end run produced: the ``Scenario``, the
    pooled ``WorldModel``, the ``Formula`` asserted, the ``DialogueStep``
    tuple, the listener posterior, the ``RegionReport``, the
    ``HedgingTrace``, and the public-belief proposition, the worlds where it
    is public, and whether there are any."""

    __slots__ = ()


def run_scenario(scenario: Scenario) -> RunReport:
    """Deterministic end-to-end run: pool, signal, update, infer, classify, hedge.

    Each stage is its module's public function, called once: speaker_signal,
    update, SignalLikelihoods.for_common_ground, listener_posterior and
    audit_report. A stage that needs a sentence's extension asks
    ``extension``, which visits no world. The public-belief flag reports
    whether the asserted polarity's unanimous worlds are publicly believed
    once the common ground has been updated.
    """
    model = pool_states(scenario.series)
    if len(model.agents) != 2:
        raise ValueError(
            f"the game stage needs exactly two agents, got {len(model.agents)}"
        )
    cg0 = initial_common_ground(model)
    signal = speaker_signal(model, scenario.speaker, scenario.world)
    cg1 = update(cg0, signal)
    likelihoods = SignalLikelihoods.for_common_ground(cg1, scenario.config.epsilon, signal)
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
