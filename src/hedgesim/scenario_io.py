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
Lines end where ``open`` ends them, at ``\n``, ``\r\n`` or ``\r`` only;
any other separator ``str.splitlines`` knows stays inside its line.

The report, dialogue and frame writers live here, on the layout of
``writers``; their keys and headers are the records' fields. This module
re-exports the four sweep and hedging writers that the benchmark reads
through it (the same objects, not wrappers).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Mapping
from functools import partial

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
from .writers import _LIST, _OBJECT, _bool_text, _float_fields, _jnum_text, _list, _template, fmt_float


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


def _flag(key: str, text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"{key} must be true or false, got {text!r}")


# Each key's value kind and its owner's check, which raises ValueError: ``bool`` is the flag,
# ``str`` the text itself, a number is read by ``parse_number``; ``flip.<agent>`` reads any flip.
_READERS = {
    "series": {"n": (int, check_states), "canonical": (bool, None), "flip.<agent>": (int, None)},
    "game": {key: (float, partial(check_parameter, GAME_RANGES, key)) for key in _SCENARIO_KEYS["game"]},
    "run": {"speaker": (str, None), "world": (str, None), **{
        key: (kind, partial(check_parameter, HEDGING_RANGES, key))
        for key, kind in (("steps", int), ("tolerance", float))
    }},
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
    readers = None
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line[0] == "[":
            if line[-1] != "]":
                raise ScenarioParseError("unterminated section header", lineno)
            section = line[1:-1].strip().lower()
            readers = _READERS.get(section)
            if readers is None:
                raise ScenarioParseError(f"unknown section [{section}]", lineno)
            continue
        key, equals, value = line.partition("=")
        if not equals:
            raise ScenarioParseError(f"expected `key = value`, got {line!r}", lineno)
        if readers is None:
            raise ScenarioParseError("key before any [section] header", lineno)
        key, value = key.strip(), value.strip()
        if not key:
            raise ScenarioParseError("empty key", lineno)
        if not value:
            raise ScenarioParseError(f"missing value for key {key!r}", lineno)
        reader = readers.get("flip.<agent>" if key[:5] == "flip." and key != "flip." else key)
        if reader is None:
            raise ScenarioParseError(f"unknown key {key!r} in [{section}]", lineno)
        if key in values[section]:
            raise ScenarioParseError(f"duplicate key {key!r}", lineno)
        kind, check = reader
        try:
            value = value if kind is str else _flag(key, value) if kind is bool else parse_number(key, value, kind)
            if check is not None:
                check(value)
        except ValueError as exc:
            raise ScenarioParseError(str(exc), lineno) from None
        values[section][key] = value
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


def _quoted(model: WorldModel) -> dict[str, str]:
    """Each agent's and world's JSON text: a report quotes each label once."""
    labels = model.agents + model.worlds
    return dict(zip(labels, map(writers._quote, labels)))


def _model_json(model: WorldModel, quoted: Mapping[str, str]) -> str:
    """The model block, with the pooling provenance it has, each world subset in world order.
    The model's checks leave no agent, world or cell list empty: those are joined in place."""
    worlds = model.worlds
    (open2, sep2, close2), (open3, sep3, close3), (open4, sep4, close4) = _LIST[2], _LIST[3], _LIST[4]
    blocks = [
        f'"agents": {open2}' + sep2.join([quoted[agent] for agent in model.agents]) + close2,
        f'"worlds": {open2}' + sep2.join([quoted[w] for w in worlds]) + close2,
        '"partitions": ' + _list([f"{quoted[agent]}: {open3}" + sep3.join([
            open4 + sep4.join([quoted[w] for w in worlds if w in cell]) + close4 for cell in cells
        ]) + close3 for agent, cells in model.partitions.items()], 2, _OBJECT),
        '"valuation": ' + _list([
            f"{writers._quote(key)}: " + _list([quoted[w] for w in worlds if w in subset], 3)
            for key, subset in model.valuation.items()
        ], 2, _OBJECT),
    ]
    if model.judgments is not None:
        blocks.append('"judgments": ' + _list([f"{quoted[agent]}: " + _list(
            [f"{quoted[w]}: {writers._quote(value)}" for w, value in judged.items()], 3, _OBJECT
        ) for agent, judged in model.judgments.items()], 2, _OBJECT))
    if model.members is not None:
        blocks.append('"members": ' + _list([
            f"{quoted[w]}: " + _list(list(map(str, states)), 3) for w, states in model.members.items()
        ], 2, _OBJECT))
    return _list(blocks, 1, _OBJECT)


def _dialogue_json(step: DialogueStep, depth: int | None, quoted: Mapping[str, str]) -> str:
    """A dialogue step as a JSON object at nesting ``depth`` (``None``: one line); a
    common ground is never empty, so its list and the posterior over it are joined in place."""
    inner = None if depth is None else depth + 1
    (opening, separator, closing), (left, _, right) = _LIST[inner], _OBJECT[inner]
    return _DIALOGUE_JSON[depth] % (
        step.time, "null" if step.signal is None else writers._quote(step.signal.text),
        opening + separator.join([quoted[w] for w in step.live]) + closing,
        left + separator.join([f"{quoted[w]}: {_jnum_text(p)}" for w, p in step.posterior.items()]) + right,
    )


def render_report_json(report: RunReport) -> str:
    scenario, model, hedging = report.scenario, report.model, report.hedging
    flips, posterior, last = scenario.series.flips, report.posterior, hedging.steps[-1]
    quoted = _quoted(model)
    return _REPORT_JSON % (
        _bool_text(scenario.canonical), scenario.series.n,
        _list([f"{quoted[agent]}: {flip}" for agent, flip in flips.items()], 2, _OBJECT),
        *_float_fields(scenario.config),
        quoted[scenario.speaker], quoted[scenario.world], scenario.steps,
        _jnum_text(scenario.tolerance),
        _model_json(model, quoted),
        writers._quote(report.signal.text),
        _list([_dialogue_json(step, 2, quoted) for step in report.dialogue], 1),
        _list([f"{quoted[w]}: {_jnum_text(p)}" for w, p in posterior.items()], 1, _OBJECT),
        *_float_fields(report.region),
        hedging.max_steps, _jnum_text(hedging.tolerance),
        *_float_fields(hedging.summary), _jnum_text(last.eu_a), _jnum_text(last.eu_b),
        _list([quoted[w] for w in model.worlds if w in report.public_belief_proposition], 2),
        _list([quoted[w] for w in model.worlds if w in report.public_belief_worlds], 2),
        _bool_text(report.public_belief),
    )


def render_report_csv(report: RunReport) -> str:
    """The dialogue trace as CSV: one row per conversation step."""
    lines = [",".join(DialogueStep._fields)]
    for step in report.dialogue:
        posterior = ";".join(map(fmt_float, [step.posterior[w] for w in step.live]))
        signal = "" if step.signal is None else step.signal.text
        lines.append(f"{step.time},{signal},{';'.join(step.live)},{posterior}")
    return "\n".join(lines) + "\n"


def render_dialogue_jsonl(report: RunReport) -> str:
    """The dialogue trace as JSON lines: one record per step."""
    quoted = _quoted(report.model)
    return "".join([_dialogue_json(step, None, quoted) + "\n" for step in report.dialogue])


def render_frame_csv(frame: FrameReport) -> str:
    """The flags as ``true`` or ``false``, and the witness unquoted as
    ``(u,v,x)``, or empty when there is none."""
    witness = "" if frame.witness is None else "({})".format(",".join(frame.witness))
    return ",".join(frame._fields) + "\n" + ",".join((*map(_bool_text, frame[:3]), witness)) + "\n"


def render_frame_json(frame: FrameReport) -> str:
    witness = "null" if frame.witness is None else _list(
        list(map(writers._quote, frame.witness)), 1)
    return _FRAME_JSON % (*map(_bool_text, frame[:3]), witness, writers._quote(frame.summary()))
