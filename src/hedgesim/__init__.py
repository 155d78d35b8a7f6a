"""hedgesim: signalling-game simulation of coordination under vagueness.

Builds partitioned possible-worlds models from forced-march judgment data,
evaluates a four-sentence signal language (including an epistemic "might"),
runs assertion dynamics with Bayesian listener inference, classifies
coordination equilibria under a two-parameter prior, and traces the
iterated hedging recurrence that lifts expected utility after a hedged
assertion.

Names and submodules load on first use (PEP 562), so ``import hedgesim``
imports none of the submodules and each use pays only for what it reads.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it owns.
_EXPORTS = {
    "assertion": (
        "AbsurdUpdateError",
        "CommonGround",
        "NoAssertableSignalError",
        "SignalLikelihoods",
        "UnexpectedSignalError",
        "base_rate",
        "initial_common_ground",
        "listener_posterior",
        "speaker_signal",
        "update",
    ),
    "game": (
        "RegionReport",
        "SweepRow",
        "brute_force_eu",
        "equilibrium_region",
        "grid",
        "threshold_sweep",
        "world_priors",
    ),
    "hedging": ("HedgingStep", "HedgingSummary", "HedgingTrace", "run_hedging"),
    "params": ("GameConfig", "expected_utility"),
    "scenario_io": (
        "ReportAuditError",
        "RunReport",
        "Scenario",
        "ScenarioParseError",
        "audit_report",
        "load_scenario",
        "parse_scenario",
        "run_scenario",
    ),
    "semantics": ("Formula", "FrameReport", "check_frame", "extension"),
    "worlds": (
        "InvalidSeriesError",
        "SoritesSeries",
        "UnknownLabelError",
        "WorldModel",
        "accessible",
        "common_belief",
        "everyone_thinks",
        "judgment_proposition",
        "pool_states",
    ),
    "writers": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
