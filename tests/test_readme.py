"""The README's library quick tour runs and gives the values its comments state."""

import contextlib
import io
import re
from pathlib import Path

import pytest

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
