"""Width-scaling guards: a run's work and a fold's memory grow about linearly
in team width.

The first counts Python `call` and `c_call` profile events, not time, so the
bound is deterministic on one interpreter version. An O(W^2) path in the plan
step, the message buffer or the task roll-up pushes the 256W/64W ratio well
past 4; with all of them linear it is about 3. A call count does not see data
movement, a slice or a dict display, so two more guards look at the data: the
contexts of a step share one busy set, and a `MetricsFold` holds memory
linear in the team (a dense sender x recipient grid holds about 16x from 64W
to 256W).
"""

import dataclasses
import sys
import tracemalloc

from teamsim import engine
from teamsim.config import parse_scenario_text
from teamsim.engine import Simulation
from teamsim.metrics import MetricsFold

MAX_RATIO_256_OVER_64 = 3.4
MAX_FOLD_RATIO_256_OVER_64 = 5


def _scenario(team: str):
    text = (
        "name: width\n"
        f"team: {team}\n"
        "skill_pool: [backend, api, authentication, oauth, testing, documentation]\n"
        "tasks:\n"
        '  - description: "Generated root task 1 over 5 skills."\n'
        "    hours: 24.0\n"
        "    skills: [backend, api, authentication, oauth, testing]\n"
    )
    return dataclasses.replace(parse_scenario_text(text), policy_name="c2c_heuristic")


def _calls(team: str) -> int:
    simulation = Simulation(_scenario(team))
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        simulation.run()
    finally:
        sys.setprofile(None)
    return count


def test_calls_grow_about_linearly_with_team_width():
    narrow = _calls("1M+64W")
    wide = _calls("1M+256W")
    assert wide <= MAX_RATIO_256_OVER_64 * narrow, (
        f"256W run makes {wide} calls, {wide / narrow:.2f}x the 64W run's {narrow}")


def test_every_context_of_a_step_holds_the_steps_busy_set(monkeypatch):
    built = []
    build_context = engine.build_context

    def recording(world, agent_id, busy):
        context = build_context(world, agent_id, busy)
        built.append((world.clock.step, busy, context))
        return context

    monkeypatch.setattr(engine, "build_context", recording)
    Simulation(_scenario("1M+64W")).run()
    assert built
    busy_of_step = {}
    for step, busy, context in built:
        assert context.busy is busy
        assert busy_of_step.setdefault(step, busy) is busy


def _fold_bytes(team: str) -> int:
    """Bytes a fresh `MetricsFold` holds, after a first one warmed the caches."""
    scenario = _scenario(team)
    MetricsFold(scenario)
    tracemalloc.start()
    try:
        fold = MetricsFold(scenario)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fold.event_count == 0
    return held


def test_fold_memory_grows_about_linearly_with_team_width():
    narrow = _fold_bytes("1M+64W")
    wide = _fold_bytes("1M+256W")
    assert wide <= MAX_FOLD_RATIO_256_OVER_64 * narrow, (
        f"a 256W fold holds {wide} bytes, {wide / narrow:.2f}x the 64W fold's {narrow}")
