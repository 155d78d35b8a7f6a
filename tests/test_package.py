"""The package surface, resolved lazily, and what each CLI command imports."""

import ast
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
ORACLES = Path(__file__).resolve().parent / "oracles.py"
SUBMODULES = (
    "assertion", "game", "hedging", "params", "scenario_io", "semantics", "worlds", "writers",
)

# The public names: the pipeline's stages, their records and errors, and the
# brute-force game oracle, which ``perfbench`` also calls.
PUBLIC = [
    "AbsurdUpdateError", "CommonGround", "Formula", "FrameReport", "GameConfig", "HedgingStep",
    "HedgingSummary", "HedgingTrace", "InvalidSeriesError", "NoAssertableSignalError",
    "RegionReport", "ReportAuditError", "RunReport", "Scenario", "ScenarioParseError",
    "SignalLikelihoods", "SoritesSeries", "SweepRow", "UnexpectedSignalError",
    "UnknownLabelError", "WorldModel", "accessible", "audit_report", "base_rate",
    "brute_force_eu", "check_frame", "common_belief", "equilibrium_region",
    "everyone_thinks", "expected_utility", "extension", "grid", "initial_common_ground",
    "judgment_proposition", "listener_posterior", "load_scenario", "parse_scenario",
    "pool_states", "run_hedging", "run_scenario", "speaker_signal", "threshold_sweep",
    "update", "world_priors",
]
# Names the package once exported and has deleted, with no alias left behind.
# The per-world and per-step definitions among them live in ``tests/oracles.py``.
REMOVED = [
    "PayoffMatrix", "WorldPrior", "JudgmentProposition", "build_forced_march", "propensity",
    "render_scenario", "ideal_signal", "evaluate", "TruthValue", "thinks",
    "propensity_sequence", "propensities_at_step", "stepwise_eu",
]


def run_python(code: str, *flags: str, path: tuple = ()) -> str:
    """Run ``code`` in a child interpreter that finds the package, and the
    directories ``path`` after it; return the last line it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_DIR), *map(str, path), env.get("PYTHONPATH", "")])
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


def test_the_oracles_are_not_shipped():
    worlds, hedging = hedgesim.worlds, hedgesim.hedging
    assert not {"judgment", "judgment_vector"} & set(dir(worlds.SoritesSeries))
    assert not hasattr(worlds.WorldModel, "sort_worlds")
    assert set(hedging.HEDGING_RANGES) == {"steps", "tolerance"}


def test_the_oracles_take_only_records_and_constants_from_the_package():
    # An oracle that called the function it is compared with would check
    # nothing, so ``tests/oracles.py`` may import classes and constants from
    # ``hedgesim``, but no function and no module to reach one through.
    taken = []
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.partition(".")[0] == "hedgesim"]
        elif isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] == "hedgesim":
            module = importlib.import_module(node.module)
            taken += [(node.module, a.name, getattr(module, a.name)) for a in node.names]
    assert taken
    for module, name, value in taken:
        assert module != "hedgesim" or name not in SUBMODULES, name
        assert isinstance(value, type) or not callable(value), (module, name)


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


# The modules that ``dataclasses`` and ``inspect`` bring in, and ``typing``,
# none of which a command may load beyond what the interpreter's start-up
# loads (some start-ups, such as Python 3.13.13's, load all but ``typing``).
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
TYPING = {"typing", "_typing"}
# What ``json`` brings in, which only a JSON render may load.
JSON = {"json", "json.decoder", "json.scanner", "json.encoder", "_json"}
# What no command needs: the CLI writes its files through ``open``.
PATHLIB = {"pathlib"}
# What argparse brings in (``locale`` with the parser's first message), which
# a plain command line, read from the CLI's own table, does not load.
ARGPARSE = {"argparse", "gettext", "locale"}
PRINT_MODULES = "print(' '.join(sorted(sys.modules)))"
# The modules each command runs on: ``hedge`` its own, ``sweep`` those and
# ``game``, and the commands that read a scenario the whole package.
HEDGE = {"hedgesim", "hedgesim.cli", "hedgesim.hedging", "hedgesim.params", "hedgesim.writers"}
SWEEP = HEDGE | {"hedgesim.game"}
EVERY = SWEEP | {f"hedgesim.{name}" for name in ("assertion", "scenario_io", "semantics", "worlds")}
COMMANDS = {
    "hedge": (["hedge", "--delta", "0.7", "--gamma", "0.2", "--steps", "5"], HEDGE),
    "sweep": (["sweep", "--delta-steps", "3", "--gamma-steps", "3"], SWEEP),
    "simulate": (["simulate", SCENARIO], EVERY),
    "frame-check": (["frame-check", SCENARIO], EVERY),
}
# What ``hedge`` never runs, so none of its modules may define it: the region
# rule, the sweep with its row record and writer, the brute-force oracle and
# the report, dialogue and frame writers.
NOT_HEDGE = {
    "equilibrium_region", "threshold_sweep", "_sweep_runs", "brute_force_eu", "render_report_json",
    "render_report_csv", "render_dialogue_jsonl", "render_frame_csv", "render_frame_json",
    "SweepRow", "_SWEEP", "_sweep_chunks", "_sweep_text", "render_sweep_csv", "render_sweep_json",
}


def check_imports(tmp_path, arguments, modules, path=(), flags=()):
    """Run a plain command line in both formats, in children started like
    the command's own (with ``path`` on ``PYTHONPATH`` and the interpreter
    ``flags``), and check what it loads beyond what a bare child loads."""
    baseline = set(run_python(f"import sys; {PRINT_MODULES}", *flags, path=path).split())
    for fmt in ("csv", "json"):
        argv = [*arguments, "--format", fmt, "--out", str(tmp_path / fmt)]
        if arguments[0] == "simulate" and fmt == "json":
            argv += ["--trace", str(tmp_path / "trace")]
        code = f"import sys\nfrom hedgesim.cli import main\nassert main({argv!r}) == 0\n{PRINT_MODULES}"
        loaded = set(run_python(code, *flags, path=path).split())
        assert {m for m in loaded if m.startswith("hedgesim")} == modules
        added = loaded - baseline
        assert not added & (HEAVY | TYPING | PATHLIB | ARGPARSE), fmt
        if fmt == "csv":
            assert not added & JSON
        assert (tmp_path / fmt).stat().st_size > 0
    if arguments[0] == "simulate":
        assert (tmp_path / "trace").stat().st_size > 0
    return baseline


@pytest.mark.parametrize("arguments, modules", COMMANDS.values(), ids=list(COMMANDS))
def test_commands_import_only_what_they_run(tmp_path, arguments, modules):
    check_imports(tmp_path, arguments, modules)


@pytest.mark.parametrize("arguments, modules", COMMANDS.values(), ids=list(COMMANDS))
def test_commands_import_only_what_they_run_without_site(tmp_path, arguments, modules):
    # ``site`` may load ``pathlib`` itself (through a ``.pth`` file), which
    # would hide the command's own import from the check above.
    baseline = check_imports(tmp_path, arguments, modules, flags=("-S",))
    assert not baseline & PATHLIB


def test_commands_pass_the_import_check_where_start_up_loads_heavy_modules(tmp_path):
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text("import ast, dis, inspect, tokenize\n", encoding="utf-8")
    for name, (arguments, modules) in COMMANDS.items():
        (tmp_path / name).mkdir()
        baseline = check_imports(tmp_path / name, arguments, modules, path=(site,))
        assert {"ast", "dis", "inspect", "tokenize"} <= baseline, name


def test_the_modules_hedge_loads_hold_nothing_it_does_not_run():
    # The package's own names resolve lazily, from the submodules.
    for name in sorted(HEDGE - {"hedgesim"}):
        assert not NOT_HEDGE & set(vars(importlib.import_module(name))), name


def imported_names(module: str) -> list[tuple[str, str]]:
    """(module, name) of each import in the source of ``hedgesim.<module>``,
    at any depth, with each relative module under ``hedgesim.``."""
    tree = ast.parse((SRC_DIR / "hedgesim" / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            source = ("hedgesim." if node.level else "") + (node.module or "")
            found += [(source, alias.name) for alias in node.names]
    return found


def test_the_layering_of_the_writers():
    # ``writers`` is the layout every text home shares, and imports none of them.
    assert not [m for m, _ in imported_names("writers") if m.partition(".")[0] == "hedgesim"]
    # ``cli`` hands each command's text over in one call; it builds no trace
    # and chains no rows of its own.
    taken = {name for _, name in imported_names("cli")}
    assert not taken & {"run_hedging", "HedgingTrace", "_sweep_runs", "_sweep_chunks",
                        "_hedging_pieces", "chain"}


def test_no_module_imports_the_quote_wrapper_by_name():
    # ``writers._quote`` rebinds only its own module's name to the encoder on
    # its first call; a module that bound the name itself would keep the
    # wrapper, whose import runs on every call. Callers read it as
    # ``writers._quote``.
    for path in sorted((SRC_DIR / "hedgesim").glob("*.py")):
        assert ("hedgesim.writers", "_quote") not in imported_names(path.stem), path.name
    from hedgesim import game, writers

    writers._quote("AA")
    assert "_quote" not in vars(game)


def test_library_loads_no_record_or_enum_machinery():
    # Without ``site`` the interpreter's start-up loads none of these, so any
    # found here came with the package: ``dataclasses`` brings all the others
    # but ``typing``, which brings ``re`` and ``enum``.
    code = f"import sys, hedgesim.scenario_io, hedgesim.semantics\n{PRINT_MODULES}"
    loaded = set(run_python(code, "-S").split())
    assert not loaded & {"dataclasses", "inspect", "enum", "typing", "re"}
