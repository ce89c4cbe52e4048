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
`__new__`; 851.2 (229,826) once `World` stopped caching task views and each
context field built only the views it returns; 835.6 (225,616) once a
CONTINUE_TASK went straight to the work fallback instead of passing every
other intention kind's test. The bound is that last figure rounded up to a
whole instruction, 836, past the in-suite reading of 835.755: the count reads
38 instructions (0.14 per agent-step) higher once other tests have run in the
same process, as the files before this one in the suite or the hypothesis
tests of `tests/test_world_indexes.py` do.

The same shipped `medium` run under the two baselines, which read few context
fields: `no_comm` 875.5 (354,585 over 405 agent-steps) and `fixed_steps`
991.6 (307,381 over 310) with every field read up front; 578.2 (234,160) and
766.2 (237,527) with fields read on demand; 562.9 (227,959) and 748.3
(231,960) without the view cache; 545.4 (220,871) and 733.0 (227,228) with
CONTINUE_TASK routed straight to work. Their bounds are those figures rounded
up to a whole instruction, 546 and 734, past the in-suite readings of 545.454
and 733.116 to 733.239 (38, and 38 to 76, instructions higher, by which tests
ran before).

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
1,069.2, a ratio of 1.00; without the view cache, 1,011.2 (1,581,533) and
1,006.7 (6,434,842), a ratio of 1.00; with CONTINUE_TASK routed straight to
work, 997.9 and 993.3, a ratio of 1.00.
The ratio bound, 1.10, lets an agent-step grow a little with the tasks an
agent holds, not in proportion to them.

`teamsim report` reads a trace through `TraceLog.stream`, which checks each
event against its kind's schema. Over the trace of the shipped `medium` run
under `c2c_heuristic` (525 lines, 62,355 bytes) it executed, per line, 271.8
instructions (142,690) under the orjson codec, which checked a record and then
walked its float fields again, and 261.8 (137,454) under the standard-library
codec, while each line was checked by itself in Python; 8.8 (4,628) and 70.8
(37,178) once the stream decodes a chunk of lines (32 KiB, two chunks here)
and checks it column by column in C-level passes, leaving per line only the
yield and, under the standard library, its Python-level JSON decoder. Under
`python -X dev -m pytest` as CI runs it, they read 8.989 and 70.916 over the
whole suite (8.916 and 70.916 for this file alone). The bounds are those
readings rounded up to a whole instruction, and one more where that would
leave fewer than 100 instructions over the trace to spare: 10 and 72.

Other interpreters execute other instruction sequences, so the guards run
only on the calibrating minor version.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from teamsim import trace
from teamsim.config import expand_team_shorthand, parse_scenario
from teamsim.engine import Simulation
from teamsim.model import Scenario, order_key, validate_scenario
from teamsim.trace import TraceLog

from conftest import (COMPLEX_TASK, MEDIUM_TASK, SIMPLE_TASK, SKILL_POOL, of_kind,
                      trace_codecs)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Per policy on shipped `medium`: (agent-steps, opcodes per agent-step bound).
OPCODES_PER_AGENT_STEP_BOUND = {
    "no_comm": (405, 546),
    "fixed_steps": (310, 734),
    "c2c_heuristic": (270, 836),
}
# Opcodes per agent-step at 16 roots over the same at 4 roots.
ROOTS_RATIO_BOUND = 1.10
# Per trace codec: opcodes per line of `TraceLog.stream` over the shipped
# `medium` trace under `c2c_heuristic`.
STREAM_OPCODES_PER_LINE_BOUND = {"orjson": 10, "stdlib": 72}

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


@calibrated
@pytest.mark.parametrize("codec", [name for name, _ in trace_codecs()])
def test_opcodes_per_trace_line_read_stay_under_the_bound(tmp_path, monkeypatch,
                                                          codec):
    monkeypatch.setattr(trace, "_codec", dict(trace_codecs())[codec])
    scenario = dataclasses.replace(parse_scenario(SCENARIOS / "medium.yaml"),
                                   policy_name="c2c_heuristic")
    path = Simulation(scenario).run().trace.write(tmp_path / "trace.jsonl")
    records, opcodes = count_opcodes(lambda: list(TraceLog.stream(path)))
    assert len(records) == 525
    assert opcodes / len(records) <= STREAM_OPCODES_PER_LINE_BOUND[codec], \
        f"{opcodes} opcodes over {len(records)} lines"
