import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hedgesim.game import GameConfig  # noqa: E402
from hedgesim.hedging import run_hedging  # noqa: E402
from hedgesim.worlds import NOT_PHI, PHI, SoritesSeries, WorldModel, pool_states  # noqa: E402

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture
def canonical_model():
    """The canonical pooled model: S flips at 4, L at 2, five states."""
    return pool_states(SoritesSeries(5, {"S": 4, "L": 2}))


@pytest.fixture
def canonical_scenario_path():
    return DATA_DIR / "canonical.scn"


def reported_recurrence(last):
    """f(0..last) as ``run_hedging`` reports it: each step's speaker value
    at an even step and its listener value at an odd one."""
    steps = run_hedging(GameConfig(delta=0.7, gamma=0.2), max_steps=max(last, 4)).steps
    return [step[1 + n % 2] for n, step in enumerate(steps[: last + 1])]


def random_series(rng, max_n=50, max_agents=5):
    """A forced march of 3..max_n states with 2..max_agents agents a0, a1, ..."""
    n = rng.randint(3, max_n)
    agents = rng.randint(2, max_agents)
    flips = {f"a{i}": rng.randint(2, n) for i in range(agents)}
    return SoritesSeries(n, flips)


def random_model(rng, max_n=20, max_agents=4):
    """The pooled model of a :func:`random_series`."""
    return pool_states(random_series(rng, max_n, max_agents))


@st.composite
def marches(draw):
    """Forced marches of 3..20 states with 1..4 agents."""
    n = draw(st.integers(3, 20))
    flips = draw(st.lists(st.integers(2, n), min_size=1, max_size=4))
    return SoritesSeries(n, {f"a{i}": flip for i, flip in enumerate(flips)})


def draw_partitions(draw, worlds, agents):
    """One partition of ``worlds`` per agent, each into any number of cells."""
    per_world = st.lists(st.integers(0, len(worlds) - 1), min_size=len(worlds), max_size=len(worlds))
    partitions = {}
    for agent in agents:
        cells = {}
        for world, label in zip(worlds, draw(per_world)):
            cells.setdefault(label, set()).add(world)
        partitions[agent] = tuple(frozenset(cell) for cell in cells.values())
    return partitions


@st.composite
def hand_built_models(draw):
    """Models that pooling never builds: 1..6 worlds, 1..3 agents, each with
    a partition into any number of cells, and disjoint atoms with gaps."""
    worlds = tuple(f"w{i}" for i in range(1, draw(st.integers(1, 6)) + 1))
    partitions = draw_partitions(draw, worlds, [f"a{i}" for i in range(draw(st.integers(1, 3)))])
    atoms = draw(st.lists(st.sampled_from((PHI, NOT_PHI, None)), min_size=len(worlds), max_size=len(worlds)))
    return WorldModel(
        agents=tuple(partitions),
        worlds=worlds,
        partitions=partitions,
        valuation={key: frozenset(w for w, atom in zip(worlds, atoms) if atom == key) for key in (PHI, NOT_PHI)},
    )


#: Pooled and hand-built models alike.
models = st.one_of(marches().map(pool_states), hand_built_models())
