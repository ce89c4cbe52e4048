"""Guards on the interpreter work one agent-step costs.

The simulator asks every idle agent for an intention at every step, so its
cost is agent-steps x the cost of one agent-step. These tests count the
bytecode instructions `Simulation.run()` executes and divide by the
agent-steps (one `action` event each). Unlike a wall-clock figure, the count
is exact: it does not depend on the host's load or on `PYTHONHASHSEED` (the
same count was read with seeds 0, 1, 2 and 12345).

Calibrated on CPython 3.11.7. Shipped `medium` under `c2c_heuristic`:
1,460.7 instructions per agent-step (394,389 over 270 agent-steps) before the
policy value types became named tuples and each message's words were counted
once; 1,125.0 (303,753) after; 1,035.9 (279,704) once `World` kept each
agent's active and report-due task and policies stopped rescanning their task
views; 1,026.2 (277,079) once each event became one record, which the default
`TraceLog` sink keeps as it is given instead of wrapping it in a `TraceEvent`;
1,010.0 (272,701) once every context shared the step's team tuple instead of
slicing out its own entry; 978.0 (264,071) once contexts stopped copying the
agent's inbox, `World` kept per-type delivery counts instead, and actions
carried one typed `Outgoing` value instead of a payload dict; 974.2 (263,023)
once a thread and a meeting held their root message instead of copies of its
fields, and no message stored its delivery step; 910.9 (245,950) once a
context read each field from `World` only when a policy read it, `World` kept
each agent's active task as an id re-picked only when readiness changes, and
task views and last actions were built as tuples without their Python-level
`__new__`. The bound is that last figure, rounded up past 911.1: the count
reads 38 instructions (0.14 per agent-step) higher after the hypothesis tests
of `tests/test_world_indexes.py` have run in the same process, at the parent
commit too.

The same shipped `medium` run under the two baselines, which read few context
fields: `no_comm` 875.5 (354,585 over 405 agent-steps) and `fixed_steps`
991.6 (307,381 over 310) with every field read up front; 578.2 (234,160) and
766.2 (237,527) with fields read on demand. Their bounds are 600 and 850.

1M+16W teams under `c2c_heuristic`, run to completion, 4 and 16 roots: before
`World` kept those two tasks, 1,414.3 (2,211,997 over 1,564) and 1,750.5
(11,189,500 over 6,392), a ratio of 1.24, because every decision rescanned
every held task view; after, 1,198.1 (1,873,880) and 1,195.0 (7,638,484), a
ratio of 1.00; with one record per event, 1,187.1 (1,856,550) and 1,184.1
(7,568,489), a ratio of 1.00; with one shared team tuple, 1,172.3 (1,833,415)
and 1,169.2 (7,473,524), a ratio of 1.00; without inbox copies and with
typed actions, 1,141.9 (1,785,896) and 1,139.1 (7,281,403), a ratio of 1.00;
with threads and meetings reading their root message, 1,135.8 (1,776,331) and
1,133.2 (7,243,456), a ratio of 1.00; with fields read on demand, 1,071.7 and
1,069.2, a ratio of 1.00.
The ratio bound, 1.10, lets an agent-step grow a little with the tasks an
agent holds, not in proportion to them.

Other interpreters execute other instruction sequences, so the guards run
only on the calibrating minor version.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from teamsim.config import expand_team_shorthand, parse_scenario
from teamsim.engine import Simulation
from teamsim.model import Scenario, order_key, validate_scenario

from conftest import COMPLEX_TASK, MEDIUM_TASK, SIMPLE_TASK, SKILL_POOL, of_kind

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Per policy on shipped `medium`: (agent-steps, opcodes per agent-step bound).
OPCODES_PER_AGENT_STEP_BOUND = {
    "no_comm": (405, 600),
    "fixed_steps": (310, 850),
    "c2c_heuristic": (270, 912),
}
# Opcodes per agent-step at 16 roots over the same at 4 roots.
ROOTS_RATIO_BOUND = 1.10

calibrated = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                reason="bounds calibrated on CPython 3.11")


def count_opcodes(call):
    """`call()`'s result and the bytecode instructions it executed, in every
    frame it ran. `order_key` starts with an empty memo, so the count does not
    depend on which tests ran before."""
    order_key.cache_clear()
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


def opcodes_per_agent_step(simulation: Simulation) -> float:
    result, opcodes = count_opcodes(simulation.run)
    assert result.completed
    return opcodes / len(of_kind(result.trace, "action"))


def roots_scenario(roots: int) -> Scenario:
    """`roots` shipped-size roots on a 1M+16W team under the heuristic
    policy, built as conftest's `eight_roots_scenario` is."""
    return validate_scenario(Scenario(
        name=f"roots_{roots}", team=expand_team_shorthand("1M+16W", SKILL_POOL),
        tasks=[MEDIUM_TASK, SIMPLE_TASK, COMPLEX_TASK, MEDIUM_TASK] * (roots // 4),
        policy_name="c2c_heuristic", skill_pool=tuple(SKILL_POOL),
        team_label="1M+16W",
    ))


@calibrated
@pytest.mark.parametrize("policy", sorted(OPCODES_PER_AGENT_STEP_BOUND))
def test_opcodes_per_agent_step_stay_under_the_bound(policy):
    expected_steps, bound = OPCODES_PER_AGENT_STEP_BOUND[policy]
    scenario = dataclasses.replace(parse_scenario(SCENARIOS / "medium.yaml"),
                                   policy_name=policy)
    result, opcodes = count_opcodes(Simulation(scenario).run)
    agent_steps = len(of_kind(result.trace, "action"))
    assert agent_steps == expected_steps
    assert opcodes / agent_steps <= bound, \
        f"{opcodes} opcodes over {agent_steps} agent-steps"


@calibrated
def test_agent_step_cost_is_flat_in_tasks_held():
    """Four times the roots puts four times the tasks in each worker's hands;
    an agent-step must not cost much more for it."""
    few, many = (opcodes_per_agent_step(Simulation(roots_scenario(roots),
                                                   max_steps=2000))
                 for roots in (4, 16))
    assert many / few <= ROOTS_RATIO_BOUND, \
        f"{many:.1f} opcodes per agent-step at 16 roots, {few:.1f} at 4"
