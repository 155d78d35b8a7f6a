"""The repository's pytest settings: a failing property test is reported, not fatal."""

import subprocess
import sys
import textwrap
from pathlib import Path

INI = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY_FILE = textwrap.dedent(
    """
    from hypothesis import given, strategies as st

    @given(st.integers())
    def test_fails(x):
        assert x < 5

    def test_passes():
        assert True
    """
)


def test_failing_property_test_reports_a_failure(tmp_path):
    # Hypothesis's failure reporter may import libcst, which warns about a
    # deprecated mypy_extensions name; under `filterwarnings = error` that
    # warning once stopped the session with INTERNALERROR (exit 3).
    (tmp_path / "test_property.py").write_text(PROPERTY_FILE, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(INI),
         "--rootdir", str(tmp_path), "test_property.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
