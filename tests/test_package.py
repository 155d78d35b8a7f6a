"""The package surface, resolved lazily, and what each CLI command imports."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hedgesim

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
SCENARIO = str(Path(__file__).resolve().parent / "data" / "canonical.scn")
SUBMODULES = ("assertion", "game", "hedging", "scenario_io", "semantics", "worlds", "writers")

# The public names: the pipeline's, and the oracles the tests check it with.
PUBLIC = [
    "AbsurdUpdateError", "CommonGround", "Formula", "FrameReport", "GameConfig", "HedgingStep",
    "HedgingSummary", "HedgingTrace", "InvalidSeriesError", "NoAssertableSignalError",
    "RegionReport", "ReportAuditError", "RunReport", "Scenario", "ScenarioParseError",
    "SignalLikelihoods", "SoritesSeries", "SweepRow", "TruthValue", "UnexpectedSignalError",
    "UnknownLabelError", "WorldModel", "accessible", "audit_report", "base_rate",
    "brute_force_eu", "check_frame", "common_belief", "equilibrium_region", "evaluate",
    "everyone_thinks", "expected_utility", "extension", "grid", "initial_common_ground",
    "judgment_proposition", "listener_posterior", "load_scenario", "parse_scenario",
    "pool_states", "propensities_at_step", "propensity_sequence", "run_hedging", "run_scenario",
    "speaker_signal", "stepwise_eu", "thinks", "threshold_sweep", "update", "world_priors",
]
# Names the package once exported and has deleted, with no alias left behind.
REMOVED = [
    "PayoffMatrix", "WorldPrior", "JudgmentProposition", "build_forced_march", "propensity",
    "render_scenario", "ideal_signal",
]


def run_python(code: str, *flags: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_public_names_are_unchanged():
    assert hedgesim.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_its_home_module_object(name):
    value = getattr(hedgesim, name)
    assert value.__module__.startswith("hedgesim.")
    assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hedgesim import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert namespace["run_hedging"] is importlib.import_module("hedgesim.hedging").run_hedging


def test_unknown_names_raise_attribute_error():
    for name in REMOVED:
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(hedgesim, name)
        assert name not in dir(hedgesim)
    assert not hasattr(hedgesim, "cli_main")


def test_bare_import_loads_nothing_and_resolves_on_use():
    code = """
import json, sys
import hedgesim
loaded = sorted(m for m in sys.modules if m.startswith("hedgesim."))
listed = dir(hedgesim)
game, sio = hedgesim.game, hedgesim.scenario_io
print(json.dumps([loaded, listed, game.__name__, sio.__name__]))
"""
    loaded, listed, game, sio = json.loads(run_python(code))
    assert loaded == []
    assert set(PUBLIC) | set(SUBMODULES) <= set(listed)
    assert (game, sio) == ("hedgesim.game", "hedgesim.scenario_io")


# The modules that ``dataclasses`` and ``inspect`` bring in, which no
# command may load at all, and ``typing``, which a command may load only
# where the interpreter's own start-up does (this ``site`` may).
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
TYPING = {"typing", "_typing"}
# What ``json`` brings in, which only a JSON render may load.
JSON = {"json", "json.decoder", "json.scanner", "json.encoder", "_json"}
PRINT_MODULES = "print(' '.join(sorted(sys.modules)))"
# The modules ``sweep`` and ``hedge`` run on, and the rest of the package,
# which the commands that read a scenario also load.
COLD = {"hedgesim", "hedgesim.cli", "hedgesim.game", "hedgesim.hedging", "hedgesim.writers"}
EVERY = COLD | {f"hedgesim.{name}" for name in ("assertion", "scenario_io", "semantics", "worlds")}


@pytest.mark.parametrize(
    "arguments, modules",
    [
        (["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "5"], COLD),
        (["sweep", "--delta-steps", "3", "--gamma-steps", "3"], COLD),
        (["simulate", SCENARIO], EVERY),
        (["frame-check", SCENARIO], EVERY),
    ],
    ids=["hedge", "sweep", "simulate", "frame-check"],
)
def test_commands_import_only_what_they_run(tmp_path, arguments, modules):
    # Started like the command children, so it loads what start-up loads.
    baseline = set(run_python(f"import sys; {PRINT_MODULES}").split())
    assert not baseline & (HEAVY | JSON)
    for fmt in ("csv", "json"):
        argv = [*arguments, "--format", fmt, "--out", str(tmp_path / fmt)]
        if arguments[0] == "simulate" and fmt == "json":
            argv += ["--trace", str(tmp_path / "trace")]
        code = f"import sys\nfrom hedgesim.cli import main\nassert main({argv!r}) == 0\n{PRINT_MODULES}"
        loaded = set(run_python(code).split())
        assert {m for m in loaded if m.startswith("hedgesim")} == modules
        assert not loaded & HEAVY, fmt
        assert loaded & TYPING <= baseline, fmt
        if fmt == "csv":
            assert not loaded & JSON
        assert (tmp_path / fmt).stat().st_size > 0
    if arguments[0] == "simulate":
        assert (tmp_path / "trace").stat().st_size > 0


def test_library_loads_no_record_or_enum_machinery():
    # Without ``site`` the interpreter's start-up loads none of these, so any
    # found here came with the package: ``dataclasses`` brings all the others
    # but ``typing``, which brings ``re`` and ``enum``.
    code = f"import sys, hedgesim.scenario_io, hedgesim.semantics\n{PRINT_MODULES}"
    loaded = set(run_python(code, "-S").split())
    assert not loaded & {"dataclasses", "inspect", "enum", "typing", "re"}
