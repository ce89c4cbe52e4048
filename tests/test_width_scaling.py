"""Width-scaling guard: a run's interpreter work grows about linearly in team width.

Counts Python `call` and `c_call` profile events, not time, so the bound is
deterministic on one interpreter version. An O(W^2) path in the plan step,
the message buffer or the task roll-up pushes the 256W/64W ratio well past 4;
with all of them linear it is about 3.
"""

import dataclasses
import sys

from teamsim.config import parse_scenario_text
from teamsim.engine import Simulation

MAX_RATIO_256_OVER_64 = 3.4


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
