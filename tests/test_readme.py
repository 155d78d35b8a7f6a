"""The README's library quick tour runs and gives the values its comments
state, and the README's public surface and fixed pair are the package's."""

import contextlib
import io
import re
from pathlib import Path

import pytest
from test_hedging import FIXED_PAIR

import hedgesim
from hedgesim import Formula

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


def test_readme_states_the_fixed_pair_the_trace_reaches():
    # test_hedging checks that run_hedging reaches FIXED_PAIR at step 51.
    words = " ".join(README.read_text(encoding="utf-8").split())
    assert f"from step 51 on every (speaker, listener) pair is {FIXED_PAIR}" in words
