"""The README's library quick tour runs and gives the values its comments
state, and the README's public surface, fixed pair and parameter ranges
are the package's."""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest
from test_hedging import FIXED_PAIR
from test_package import REMOVED

import hedgesim
from hedgesim import Formula, GameConfig, SoritesSeries, grid, run_hedging

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour_source():
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_tour_matches_its_comments():
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(quick_tour_source(), str(README), "exec"), namespace)
    assert namespace["signal"] is Formula.MIGHT_PHI
    assert namespace["cg1"].live == ("w1", "w2")
    assert namespace["posterior"] == pytest.approx({"w1": 0.01, "w2": 0.99}, abs=1e-12)
    even_tail, odd_tail = map(float, printed.getvalue().split())
    assert even_tail == pytest.approx(0.5916, abs=5e-5)
    assert odd_tail == pytest.approx(0.4084, abs=5e-5)


def test_readme_lists_the_public_surface():
    section = README.read_text(encoding="utf-8").split("## Public surface", 1)[1]
    exported = section.split("The tests own", 1)[0]
    assert f"`hedgesim.__all__` holds {len(hedgesim.__all__)} names" in exported
    assert sorted(re.findall(r"`(\w+)`", exported)) == hedgesim.__all__


def test_readme_lists_every_removed_name():
    words = " ".join(README.read_text(encoding="utf-8").split())
    sentence = words.split("these names left the package with no alias:", 1)[1]
    listed = re.findall(r"`(\w+)`", sentence.split(", and the methods", 1)[0])
    assert sorted(listed) == sorted(REMOVED)


def test_readme_states_the_fixed_pair_the_trace_reaches():
    # test_hedging checks that run_hedging reaches FIXED_PAIR at step 51.
    words = " ".join(README.read_text(encoding="utf-8").split())
    assert f"from step 51 on every (speaker, listener) pair is {FIXED_PAIR}" in words


# Each range the README states, with the object that owns it and the kind
# of its values.
RANGE_OWNERS = {
    "n": (int, lambda n: SoritesSeries(n, {"S": 2})),
    "delta": (float, lambda v: GameConfig(delta=v, gamma=0.5)),
    "gamma": (float, lambda v: GameConfig(delta=0.5, gamma=v)),
    "tau": (float, lambda v: GameConfig(delta=0.5, gamma=0.5, tau=v)),
    "epsilon": (float, lambda v: GameConfig(delta=0.5, gamma=0.5, epsilon=v)),
    "steps": (int, lambda v: run_hedging(GameConfig(0.7, 0.2), max_steps=v)),
    "tolerance": (float, lambda v: run_hedging(GameConfig(0.7, 0.2), max_steps=4, tolerance=v)),
    "grid size": (int, grid),
}
INTERVAL = r"([\[(])(\S+), (\S+?)([\])])"


def stated_ranges():
    """Each interval the scenario-file block and the grid flags' text state,
    as (closed at lo, lo, hi, closed at hi) in text."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Scenario files", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    ranges = {}
    for line in block.splitlines():
        key, _, comment = line.partition("#")
        found = re.search(f"in {INTERVAL}", comment)
        if "positive and finite" in comment:
            ranges[key.partition("=")[0].strip()] = ("(", "0", "inf", ")")
        elif found:
            ranges[key.partition("=")[0].strip()] = found.groups()
    words = " ".join(text.split())
    flags = re.search(f"`--delta-steps` and `--gamma-steps` are each an integer in {INTERVAL}", words)
    ranges["grid size"] = flags.groups()
    return ranges


def test_readme_ranges_are_the_owners_ranges():
    ranges = stated_ranges()
    assert set(ranges) == set(RANGE_OWNERS)
    for key, (opening, lo, hi, closing) in ranges.items():
        kind, owner = RANGE_OWNERS[key]
        for end, closed, outward in ((kind(lo), opening == "[", -1), (kind(hi), closing == "]", 1)):
            beyond = end
            if closed:
                owner(end)
                beyond = end + outward if kind is int else math.nextafter(end, outward * math.inf)
            with pytest.raises(ValueError, match=f"^{re.escape(key)} must be"):
                owner(beyond)
