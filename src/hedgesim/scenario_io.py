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
    tau = 0.5           # optional, default params.DEFAULT_TAU
    epsilon = 0.01      # optional, default params.DEFAULT_EPSILON

    [run]
    speaker = S         # required, one of the series' agents
    world = w2          # required, a world of the pooled model
    steps = 50          # optional, default hedging.DEFAULT_STEPS
    tolerance = 1e-6    # optional, default hedging.DEFAULT_TOLERANCE

One table, ``_READERS``, gives each key its reader: the canonical flag,
plain text, or number text read by ``params.parse_number`` (as the CLI flags
read it) and checked by its owner (``GAME_RANGES``, ``HEDGING_RANGES`` or
``check_states``), so a bad value gets the API's and the flags' message.
Values are read line by line: of several faults, the first faulty line is
reported, with its key and line. The checks that span keys come after, by
section: canonical extras, missing keys, flips against n, delta against
tau, speaker and world. A file is read as UTF-8, with or without a BOM.

The report, dialogue and frame writers live here, on the layout of
``writers``; their keys and headers are the records' fields. This module
re-exports the four sweep and hedging writers that the benchmark reads
through it (the same objects, not wrappers).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Mapping

from . import writers
from .assertion import (
    SignalLikelihoods,
    base_rate,
    initial_common_ground,
    listener_posterior,
    speaker_signal,
    update,
)
from .game import RegionReport, equilibrium_region
from .game import render_sweep_csv, render_sweep_json  # noqa: F401  (re-exported)
from .hedging import DEFAULT_STEPS, DEFAULT_TOLERANCE, HEDGING_RANGES, HedgingSummary, run_hedging
from .hedging import render_hedging_csv, render_hedging_json  # noqa: F401  (re-exported)
from .params import GAME_RANGES, ROUNDING, GameConfig, check_parameter, parse_number
from .semantics import FrameReport, extension
from .worlds import (
    CANONICAL_FLIPS,
    CANONICAL_N,
    SoritesSeries,
    WorldModel,
    check_flip,
    check_states,
    common_belief,
    pool_states,
    world_pools,
)
from .writers import _OBJECT, _bool_text, _float_fields, _jnum_text, _list, _template, fmt_float


class Scenario(namedtuple(
    "Scenario", "series canonical config speaker world steps tolerance",
    defaults=(DEFAULT_STEPS, DEFAULT_TOLERANCE),
)):
    """A parsed scenario: the ``SoritesSeries`` and whether it is the
    canonical one, the ``GameConfig``, and the run plan."""

    __slots__ = ()


# The [game] keys are the GameConfig fields and the [run] keys the Scenario
# fields after ``config``, in the order files and reports list them.
_SCENARIO_KEYS = {"game": tuple(GAME_RANGES), "run": Scenario._fields[3:]}


class ScenarioParseError(ValueError):
    """A scenario file problem, carrying the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class ReportAuditError(RuntimeError):
    """A run report failed its internal consistency audit."""


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
    if abs(total - 1.0) > ROUNDING:
        raise ReportAuditError(f"posterior sums to {total!r}, not 1")


def _object(keys, texts, depth: int | None) -> str:
    """A JSON object of the text ``keys`` and their value ``texts``."""
    texts = [f"{writers._quote(key)}: {text}" for key, text in zip(keys, texts)]
    return _list(texts, depth, _OBJECT)


# The fixed blocks are written out; the rest are one slot each. A dialogue
# step has one in the report (depth 2) and one as a JSON line (None).
_REPORT_JSON = _template({
    "scenario": ("canonical", "n", "flips", *_SCENARIO_KEYS["game"], *_SCENARIO_KEYS["run"]),
    **dict.fromkeys(("model", "signal", "dialogue", "posterior")),
    "equilibrium": RegionReport._fields,
    "hedging": ("max_steps", "tolerance", *HedgingSummary._fields, "final_eu_a", "final_eu_b"),
    "public_belief": ("proposition", "worlds", "holds"),
}) + "\n"
_FRAME_JSON = _template(dict.fromkeys((*FrameReport._fields, "summary"))) + "\n"
_DIALOGUE_JSON = {d: _template(dict.fromkeys(DialogueStep._fields), d) for d in (2, None)}


def _worlds_json(model: WorldModel, worlds, depth: int | None) -> str:
    """A world subset as a JSON list in the model's world order."""
    return _list([writers._quote(w) for w in model.worlds if w in worlds], depth)


def _model_json(model: WorldModel) -> str:
    """The model block, with the pooling provenance it has."""
    blocks = {
        "agents": _list(list(map(writers._quote, model.agents)), 2),
        "worlds": _list(list(map(writers._quote, model.worlds)), 2),
        "partitions": _object(model.partitions, [
            _list([_worlds_json(model, cell, 4) for cell in cells], 3)
            for cells in model.partitions.values()
        ], 2),
        "valuation": _object(model.valuation, [
            _worlds_json(model, worlds, 3) for worlds in model.valuation.values()
        ], 2),
    }
    if model.judgments is not None:
        blocks["judgments"] = _object(model.judgments, [
            _object(judged, map(writers._quote, judged.values()), 3)
            for judged in model.judgments.values()
        ], 2)
    if model.members is not None:
        blocks["members"] = _object(model.members, [
            _list(list(map(str, states)), 3) for states in model.members.values()
        ], 2)
    return _object(blocks, blocks.values(), 1)


def _dialogue_json(step: DialogueStep, depth: int | None) -> str:
    """A dialogue step as a JSON object at nesting ``depth``; ``None`` is one line."""
    inner = None if depth is None else depth + 1
    return _DIALOGUE_JSON[depth] % (
        step.time, "null" if step.signal is None else writers._quote(step.signal.text),
        _list(list(map(writers._quote, step.live)), inner),
        _object(step.posterior, map(_jnum_text, step.posterior.values()), inner),
    )


def render_report_json(report: RunReport) -> str:
    scenario, model, hedging = report.scenario, report.model, report.hedging
    flips, posterior, last = scenario.series.flips, report.posterior, hedging.steps[-1]
    return _REPORT_JSON % (
        _bool_text(scenario.canonical), scenario.series.n,
        _object(flips, map(str, flips.values()), 2), *_float_fields(scenario.config),
        writers._quote(scenario.speaker), writers._quote(scenario.world), scenario.steps,
        _jnum_text(scenario.tolerance),
        _model_json(model),
        writers._quote(report.signal.text),
        _list([_dialogue_json(step, 2) for step in report.dialogue], 1),
        _object(posterior, map(_jnum_text, posterior.values()), 1),
        *_float_fields(report.region),
        hedging.max_steps, _jnum_text(hedging.tolerance),
        *_float_fields(hedging.summary), _jnum_text(last.eu_a), _jnum_text(last.eu_b),
        _worlds_json(model, report.public_belief_proposition, 2),
        _worlds_json(model, report.public_belief_worlds, 2),
        _bool_text(report.public_belief),
    )


def render_report_csv(report: RunReport) -> str:
    """The dialogue trace as CSV: one row per conversation step."""
    lines = [",".join(DialogueStep._fields)]
    for step in report.dialogue:
        posterior = ";".join(fmt_float(step.posterior[w]) for w in step.live)
        signal = "" if step.signal is None else step.signal.text
        lines.append(f"{step.time},{signal},{';'.join(step.live)},{posterior}")
    return "\n".join(lines) + "\n"


def render_dialogue_jsonl(report: RunReport) -> str:
    """The dialogue trace as JSON lines: one record per step."""
    return "".join(_dialogue_json(step, None) + "\n" for step in report.dialogue)

def render_frame_csv(frame: FrameReport) -> str:
    """The flags as ``true`` or ``false``, and the witness unquoted as
    ``(u,v,x)``, or empty when there is none."""
    witness = "" if frame.witness is None else "({})".format(",".join(frame.witness))
    return ",".join(frame._fields) + "\n" + ",".join((*map(_bool_text, frame[:3]), witness)) + "\n"


def render_frame_json(frame: FrameReport) -> str:
    witness = "null" if frame.witness is None else _list(
        list(map(writers._quote, frame.witness)), 1)
    return _FRAME_JSON % (*map(_bool_text, frame[:3]), witness, writers._quote(frame.summary()))
