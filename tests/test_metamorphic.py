"""Metamorphic relations: two runs whose reports must agree, checked with no
formula for the values in them.

Each property draws a two-agent forced march of 3 to 8 states, a world of its
pool, a speaker and a game config, with gamma 0.0 and -0.0 among the draws,
and compares the two runs' JSON reports, parsed, block by block. A failure
names the march's shape.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hedgesim.game import GameConfig
from hedgesim.scenario_io import Scenario, render_report_json, run_scenario
from hedgesim.worlds import SoritesSeries, world_pools

OTHER = {"S": "L", "L": "S"}


@st.composite
def runs(draw):
    """(n, (flip.S, flip.L), speaker, world, config, steps) of a run."""
    n = draw(st.integers(3, 8))
    flips = (draw(st.integers(2, n)), draw(st.integers(2, n)))
    world = draw(st.sampled_from(tuple(world_pools(SoritesSeries(n, dict(zip("SL", flips)))))))
    config = GameConfig(
        delta=draw(st.floats(0.01, 0.99)),
        gamma=draw(st.sampled_from((0.0, -0.0)) | st.floats(0.0, 1.0, exclude_max=True)),
        tau=draw(st.floats(0.01, 0.99)),
        epsilon=draw(st.floats(0.0, 0.5, exclude_max=True)),
    )
    return n, flips, draw(st.sampled_from("SL")), world, config, draw(st.integers(4, 12))


def report(n, flips, speaker, world, config, steps) -> dict:
    """The JSON report of a run on the march of ``n`` states with these flips."""
    scenario = Scenario(SoritesSeries(n, dict(zip("SL", flips))), False, config, speaker, world, steps)
    return json.loads(render_report_json(run_scenario(scenario)))


CANONICAL_RUN = (5, (4, 2), "S", "w2", GameConfig(delta=0.7, gamma=0.2), 50)

# The blocks that relabelling the agents keeps.
BLOCKS = ("signal", "posterior", "equilibrium", "hedging", "public_belief")


@settings(deadline=None)
@given(runs())
@example(CANONICAL_RUN)
def test_swapping_the_agents_flips_and_the_speaker_keeps_the_run(run):
    """The same march with the agents' labels swapped: the other agent speaks
    from the same judgments, so the outcome blocks stay equal."""
    n, (flip_s, flip_l), speaker, world, config, steps = run
    original = report(n, (flip_s, flip_l), speaker, world, config, steps)
    swapped = report(n, (flip_l, flip_s), OTHER[speaker], world, config, steps)
    for block in BLOCKS:
        assert original[block] == swapped[block], (block, n, (flip_s, flip_l), speaker, world)


@settings(deadline=None)
@given(runs())
@example(CANONICAL_RUN)
def test_stuttering_the_first_state_keeps_the_run(run):
    """The march with its first state doubled (n + 1 states, every flip one
    later) pools to the same worlds: only the scenario and the states each
    world holds change."""
    n, flips, speaker, world, config, steps = run
    original = report(n, flips, speaker, world, config, steps)
    stuttered = report(n + 1, tuple(flip + 1 for flip in flips), speaker, world, config, steps)
    for text in (original, stuttered):
        del text["scenario"], text["model"]["members"]
    assert original == stuttered, (n, flips, speaker, world)


def test_swapping_the_agents_keeps_every_shapes_run(two_agent_shapes):
    """The relabelling above over each of the 738 shapes up to n = 8, at the
    canonical config: every shape whose blocks differ is listed."""
    config, steps = CANONICAL_RUN[4:]
    failed = []
    for march, world, speaker in two_agent_shapes:
        flips = (march.flips["S"], march.flips["L"])
        original = report(march.n, flips, speaker, world, config, steps)
        swapped = report(march.n, flips[::-1], OTHER[speaker], world, config, steps)
        failed += [(block, march.n, flips, speaker, world) for block in BLOCKS
                   if original[block] != swapped[block]]
    assert not failed, f"{len(failed)} shapes: {failed}"


def test_stuttering_the_first_state_keeps_every_shapes_run(two_agent_shapes):
    """The stuttering above over each of the 738 shapes up to n = 8, at the
    canonical config: every shape whose run changes is listed."""
    config, steps = CANONICAL_RUN[4:]
    failed = []
    for march, world, speaker in two_agent_shapes:
        flips = (march.flips["S"], march.flips["L"])
        original = report(march.n, flips, speaker, world, config, steps)
        stuttered = report(march.n + 1, tuple(flip + 1 for flip in flips), speaker, world, config,
                           steps)
        for text in (original, stuttered):
            del text["scenario"], text["model"]["members"]
        if original != stuttered:
            failed.append((march.n, flips, speaker, world))
    assert not failed, f"{len(failed)} shapes: {failed}"
