import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hedgesim.worlds import SoritesSeries, pool_states  # noqa: E402

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture
def canonical_model():
    """The canonical pooled model: S flips at 4, L at 2, five states."""
    return pool_states(SoritesSeries(5, {"S": 4, "L": 2}))


@pytest.fixture
def canonical_scenario_path():
    return DATA_DIR / "canonical.scn"
