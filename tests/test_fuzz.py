"""Mutated scenario files through the CLI: every run exits 0 or 1, a failure
is one `error: ` line, and no output writes NaN or Infinity.

A guard, not a known bug: each copy of a ``tests/data`` file gets one to
three mutations (a value replaced by a hostile literal, a line dropped,
doubled or cut short, or a stray section header) and then goes through
``simulate --format json`` and ``frame-check`` in process. One SHA-256 over
every run's command, exit code, stdout and stderr pins the corpus's exact
outcomes, so a reader rewrite keeps every message and line number.
"""

import hashlib
import random

from conftest import DATA_DIR

from hedgesim.cli import main

SEED = 20240917
COPIES = 500
VALUES = ("NaN", "nan", "inf", "-inf", "+inf", "1e309", "-1e309", "4e-324", "True", "0x10", "1_0", "٣", "", "-1", "0.5")
SECTIONS = ("[series]", "[game]", "[run]", "[stray]", "[]", "[series")
OUTCOMES_SHA256 = "2c87cbf60445c29d474013fd960bc4a7957c30aa88143d07dd44f088816548c3"


def mutate(rng, lines):
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        if kind == 0:
            assignments = [i for i, line in enumerate(lines) if "=" in line]
            if assignments:
                i = rng.choice(assignments)
                lines[i] = f"{lines[i].split('=', 1)[0].rstrip()} = {rng.choice(VALUES)}"
        elif kind == 4 or not lines:
            lines.insert(rng.randint(0, len(lines)), rng.choice(SECTIONS))
        else:
            i = rng.randrange(len(lines))
            if kind == 1:
                del lines[i]
            elif kind == 2:
                lines.insert(i, lines[i])
            else:
                lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    return lines


def test_mutated_scenarios_fail_cleanly(tmp_path, capsys):
    rng = random.Random(SEED)
    originals = [path.read_text(encoding="utf-8").splitlines() for path in sorted(DATA_DIR.glob("*.scn"))]
    assert len(originals) == 7
    exits = []
    outcomes = hashlib.sha256()
    for copy in range(COPIES):
        path = tmp_path / f"copy{copy}.scn"
        text = "\n".join(mutate(rng, rng.choice(originals))) + "\n"
        path.write_text(text, encoding="utf-8")
        for argv in (["simulate", str(path), "--format", "json"], ["frame-check", str(path)]):
            code = main(argv)
            out, err = capsys.readouterr()
            context = (argv[0], text, err)
            assert code in (0, 1), context
            if code == 1:
                assert err.startswith("error: ") and err.count("\n") == 1, context
            assert "NaN" not in out and "Infinity" not in out, context
            exits.append(code)
            for field in (argv[0], str(code), out, err):
                outcomes.update(field.encode() + b"\0")
    assert {0, 1} <= set(exits)
    assert outcomes.hexdigest() == OUTCOMES_SHA256
