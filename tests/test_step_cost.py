"""A guard on the interpreter work one agent-step costs.

The simulator asks every idle agent for an intention at every step, so its
cost is agent-steps x the cost of one agent-step. This test counts the
bytecode instructions `Simulation.run()` executes on the shipped `medium`
scenario under `c2c_heuristic` and divides by the agent-steps (one `action`
event each). Unlike a wall-clock figure, the count is exact: it does not
depend on the host's load or on `PYTHONHASHSEED` (the same count was read
with seeds 0, 1, 2 and 12345).

Calibrated on CPython 3.11.7: 1,460.7 instructions per agent-step (394,389
over 270 agent-steps) before the policy value types became named tuples and
each message's words were counted once; 1,125.0 (303,753) after. The bound
sits between the two. Other interpreters execute other instruction
sequences, so the guard runs only on the calibrating minor version.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from teamsim.config import parse_scenario
from teamsim.engine import Simulation

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

OPCODES_PER_AGENT_STEP_BOUND = 1300


def count_opcodes(call):
    """`call()`'s result and the bytecode instructions it executed, in every
    frame it ran."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        result = call()
    finally:
        sys.settrace(None)
    return result, count


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="bound calibrated on CPython 3.11")
def test_opcodes_per_agent_step_stay_under_the_bound():
    scenario = dataclasses.replace(parse_scenario(SCENARIOS / "medium.yaml"),
                                   policy_name="c2c_heuristic")
    result, opcodes = count_opcodes(Simulation(scenario).run)
    agent_steps = len(result.trace.of_kind("action"))
    assert agent_steps == 270
    assert opcodes / agent_steps < OPCODES_PER_AGENT_STEP_BOUND, \
        f"{opcodes} opcodes over {agent_steps} agent-steps"
