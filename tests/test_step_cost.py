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
other intention kind's test. Those counts ran a garbage collection's
callbacks too, and hypothesis adds one to `gc.callbacks`, so they read 38
instructions (0.14 per agent-step) higher once other tests had run in the
same process. `count_opcodes` now turns the collector off, and a count reads
the same alone and in the suite: 834.1 (225,202) for the code above, and
831.6 (224,536) once the even plan left every placement to `assign`; 830.0
(224,092) once a message's word count was taken without composing its text;
775.1 (209,268) once `World` kept each agent's open-request set instead of
rebuilding it at every read, the heuristic policy read it only for an active
task with a low alignment, a work step looked its task up once and shared
one last action per kind, `seq` came from an `itertools.count` and the trace
writer found a kind's float fields in a plain dict; 764.2 (206,337) once the
engine queued each step's events and handed them to its sink in one batch
instead of calling the sink once per event; 740.3 (199,869) once each step's
contexts shared one set of busy agents instead of a tuple of teammate views,
the step grid became one module constant instead of a clock field, and the
action loop and the work step lost checks no run reaches; 603.5 (162,936)
once the heuristic policy read the agent's facts in its own frame from
`World`'s per-agent tables (inbox lists, meeting starts, the active task's
id, alignment and stats, the open-request, organized and due sets and the
blocked map) instead of through context properties that built task views,
the run loop's all-roots-done test compared a count of finished roots with
the root count instead of scanning every root, and message, thread and
meeting ids came from `itertools.count` maps; 455.04 (122,862) once a step
decided and resolved each idle agent in one loop over a list of contexts,
without its three per-agent dicts, a work step ran in the action loop's own
frame, calling only `effective_progress` and `TaskGraph.record_work`, the
`action` and `progress` records went onto the step's batch without `emit`,
and actions became named tuples built by position; 396.4 (107,037) once a
work step below its task's mark added the hours and compared the progress
with the mark, leaving `TaskGraph.reach` to the steps that cross a milestone
or may finish the task, and `World` built each agent's work action where it
picks the active task; 391.7 (105,768) once the plan step built, placed
and armed each root's subtasks in one pass each and `order_key` made a key
with one split and one slice assignment instead of a generator and a regex
looked up at each call; 379.3 (102,405), with `message_price`'s memo
emptied before counting, once a message's start built its one task view in
its own frame and took its price from that memo, a send and a delivery
appended their records to the step's batch without helper frames or
`emit`, and an inbox check read the first live entry of each inbox list
instead of sorting every actionable item; 375.7 (101,431) once `World`
counted deliveries by type only for a policy that reads them and the
decides asked `World.oldest_unanswered` whether a request waits instead of
filtering and copying the inbox list. The bound is the last figure rounded
up to a whole instruction: 376.

The same shipped `medium` run under the two baselines, which read few context
fields: `no_comm` 875.5 (354,585 over 405 agent-steps) and `fixed_steps`
991.6 (307,381 over 310) with every field read up front; 578.2 (234,160) and
766.2 (237,527) with fields read on demand; 562.9 (227,959) and 748.3
(231,960) without the view cache; 545.4 (220,871) and 733.0 (227,228) with
CONTINUE_TASK routed straight to work; with the collector off while
counting, 544.9 (220,703) and 731.2 (226,664), then 543.3 (220,037) and
729.0 (225,998) with every even-split subtask placed by `assign` alone;
543.1 (219,956) and 726.3 (225,156) without composing message text; 507.0
(205,351) and 694.7 (215,350) with the kept open-request set, the one-lookup
work step, the shared last actions and the counted `seq`; 504.6 (204,361)
and 681.2 (211,165) with the events handed on in batches; 480.2 (194,499)
and 657.9 (203,961) with the busy set, the one step grid and the dead checks
gone; 477.6 (193,417) and 618.3 (191,658) with `fixed_steps` reading its
inbox lists and last action from `World`'s tables in its own frame, the
counted finished roots and the counted ids; 320.4 (129,779) and 474.9
(147,232) with decide and resolve in one loop, the work step in the action
loop's frame, the `action` and `progress` records batched without `emit` and
actions as tuples; 254.2 (102,957) and 423.0 (131,137) with a work step
below its task's mark one add and one compare, and each agent's work action
built once per active task; 251.1 (101,688) and 418.9 (129,868) with the
one-pass plan step and the one-split `order_key`; 251.1 and 399.7 (123,914)
with the one-frame message path; 251.1 and 394.9 (122,408) with deliveries
counted only for a policy that reads them and the inbox asked for its
oldest open request. Their bounds are those last figures rounded up to a
whole instruction: 252 and 395.

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
work, 997.9 and 993.3, a ratio of 1.00; with every even-split subtask placed
by `assign` alone, 983.3 and 978.9, a ratio of 1.00; without composing
message text, 978.3 (1,530,114) and 974.5 (6,229,030), a ratio of 1.00; with
the kept open-request set, the one-lookup work step, the shared last actions
and the counted `seq`, 916.3 (1,433,022) and 913.0 (5,835,741), a ratio of
1.00; 899.3 and 896.4 (5,729,970), a ratio of 1.00, once a request thread
held only its root and its open and answered flags (read before the next
change, not recorded with it); with the events handed on in batches, 889.2
(1,390,723) and 886.5 (5,666,815), a ratio of 1.00; with the busy set, the
one step grid and the dead checks gone, 868.4 (1,358,202) and 865.8
(5,534,215), a ratio of 1.00; with the heuristic reading `World`'s tables
in its own frame, the counted finished roots and the counted ids, 714.5
(1,117,475) and 708.9 (4,531,488), a ratio of 0.99; with decide and resolve
in one loop, the work step in the action loop's frame, the hot records
batched without `emit` and actions as tuples, 563.2 (880,817) and 558.5
(3,569,683), a ratio of 0.99; with the work step one add and one compare
below the mark and the work actions built once per active task, 508.3
(794,900) and 504.2 (3,223,121), a ratio of 0.99; with the one-pass plan
step and the one-split `order_key`, 489.6 (765,789) and 485.0 (3,100,308), a
ratio of 0.99; with the one-frame message path, 446.0 (697,582) and 441.7
(2,823,331), a ratio of 0.99; with deliveries counted only for a policy
that reads them and the inbox asked for its oldest open request, 433.1 and
428.9 (2,741,233), a ratio of 0.99. The ratio bound, 1.10,
lets an agent-step grow a little with the tasks an agent holds, not in
proportion to them. The 16-root run is also the shape of the benchmark's
`many_roots` workload, so its own reading is bounded too, rounded up to a
whole instruction: 429.

The same 16-root run as `teamsim run` drives it, every event written by a
`TraceWriter` and folded by the `MetricsFold` behind it: 1,153.1 (7,370,346
over 6,392 agent-steps) under the orjson codec and 1,252.4 (8,005,071) under
the standard library's while each event went on its own through `World.emit`,
`TraceWriter.append` (with the codec's float guard looping over the kind's
float fields) and `MetricsFold.append`; 1,054.1 (6,737,614) and 1,172.3
(7,493,559) once the engine handed each step's events on in one batch, the
writer checked the batch's kinds and float fields and wrote its lines in one
call and the fold took the batch in one loop with its final step in a local;
1,033.9 (6,608,922) and 1,151.6 (7,360,943) with the busy set, the one step
grid and the dead checks gone, and the orjson codec's per-record fallback
replaced by the standard library writing a whole batch that orjson might
write otherwise (here only step 0's, whose `init` alignment events hold
None); 877.1 (5,606,235) and 994.7 (6,358,256) with the heuristic reading
`World`'s tables in its own frame, the counted finished roots and ids, and
the trace file removed before the writer opens it; 726.6 (4,644,430) and
844.3 (5,396,451) with decide and resolve in one loop, the work step in the
action loop's frame, the hot records batched without `emit` and actions as
tuples; 672.4 (4,297,868) and 790.0 (5,049,889), where the same code had
read 725.2 (4,635,686) and 842.9 (5,387,707) the step before, once a work
step below its task's mark was one add and one compare and each agent's
work action was built once per active task; 651.6 (4,164,748) and 770.8
(4,927,076) with the one-pass plan step and the one-split `order_key`, when
the orjson codec also wrote step 0's batch itself, since a null float field
no longer sends a batch to the standard library; 608.2 (3,887,771) and
727.5 (4,650,099) with the one-frame message path; 595.4 (3,805,673) and
714.6 (4,568,001) with deliveries counted only for a policy that reads them
and the inbox asked for its oldest open request. The bounds are those last
readings rounded up to a whole instruction: 596 and 715.

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
whole suite (8.916 and 70.916 for this file alone, and everywhere once the
collector is off while counting). Then 6.0 (3,166) and 31.0 (16,291), read
the same way, once `stream` became the flattening of the chunk reader, which
yields each checked chunk as a list, and the standard-library codec read
each line through `json`'s C scanner instead of the Python-level
`JSONDecoder.decode` and `raw_decode`. The bounds are those readings rounded
up to a whole instruction, and one more where that would leave fewer than
100 instructions over the trace to spare: 7 and 32.

Team set-up, on a 1M+256W team with one medium root under `no_comm`, parsed
from YAML text after one untimed pass, so that no count holds a
one-time cost such as compiling a pattern: the parse cost 250.7 instructions
per worker (64,173), `Simulation()` 183.9 per agent (47,250) and step 0, the
plan, 1,671.0 per subtask (427,764) while the even planner suggested an
assignee for every subtask, `validate_scenario` rebuilt each agent through
`_replace` and `World` built each teammate view through its Python-level
`__new__`; 148.2 (37,935), 164.9 (42,367) and 1,408.9 (360,674) once the
even plan left every placement to `assign`, which scores a skill set's
workers only to build its heap, and agents, skill rotations and teammate
views were each built once, by position; 148.2, 148.8 (38,231) and 1,393.9
(356,840) once `World` filled its per-agent tables in one pass over the
agents, with `agent_order` read off the profile table, instead of a
comprehension per table, and the event `seq` came from an
`itertools.count`; 148.2, 148.8 (38,234) and 1,357.5 (347,522) once the
plan's alignment events were handed to the sink in one batch; 148.5
(38,019), 123.7 (31,800) and 1,341.4 (343,388) once the parse refused a key
a scenario level does not hold, `World` stopped building two teammate views
per agent and the step grid became one constant; 148.9 (38,113), 123.8
(31,827) and 1,341.4 (343,388) once the loader also refused a key given
twice at one level, one C-level pass per mapping in the common case, and
`World` made its three id factories as `itertools.count` maps; the parse
cost 71.4 (18,285) once it read each level against its table of fields and
`validate_scenario` checked the team in C-level passes instead of
rebuilding every agent to lowercase its skills again, when `Simulation()`
read 123.8 (31,827) and the plan step 1,218.1 (311,822), not the 1,341.4 of
its bound; 123.9 (31,839) and 1,234.1 (315,928) once `World` built each
agent's work action where it picks the active task; `Simulation()` 68.9
(17,699) and the plan step 647.3 (165,714) once `order_key` made a key with
one split and one slice assignment, the even planner built each distinct
skill bundle and label once per root, `add_subtasks` built each node READY
or PENDING in one pass and checked only the edges there are, `assign`
grouped the workers by skill set so that one capped through one skill set
left every heap at once, and `World.place` gave each placement its
alignment, stats and event in one walk; `Simulation()` 68.8 (17,694) once
`World` kept no per-type delivery counts for a policy that does not read
them; the parse 53.7 (13,758) once `config` read the text, written in the
hand-written style with a single-quoted description, line by line itself
instead of through libyaml and PyYAML's Python constructor (71.5 before).
The same figures read in the whole suite under `python -X dev -m pytest`.
The bounds are those readings rounded up to a whole instruction: 54, 69 and
648.

A message's own cost, on the same 1M+256W team under `c2c_heuristic`, run to
completion: 256 requests for clarification, 256 progress reports and one
reply, 513 messages. Counting only the instructions run in and below a
message's start (`_start_communication`, `_start_check_messages`), its send
(`_complete_send`, `_complete_reply`) and its deliveries (`World.deliver`),
a message cost 726.6 (372,748) while a start built its views through
`World.task_view` and priced the message at each call, a send and a
delivery traced through helper frames and `emit`, and the manager's one
inbox check gathered and sorted all 256 requests it held; 505.8 (259,456)
once each end was one frame; 485.8 (249,196) once `World` counted
deliveries by type only for a policy that reads the counts, and then in
place, instead of copying the recipient's counts at every delivery. The bound is that reading rounded up to a
whole instruction: 486.

Other interpreters execute other instruction sequences, so the guards run
only on the calibrating minor version.
"""

import dataclasses
import gc
import sys
from pathlib import Path

import pytest
import yaml

from teamsim import config, trace
from teamsim.config import expand_team_shorthand, parse_scenario, parse_scenario_text
from teamsim.engine import Simulation, World, message_price
from teamsim.metrics import MetricsFold
from teamsim.model import Scenario, order_key, validate_scenario
from teamsim.trace import TraceLog, TraceWriter

from conftest import (COMPLEX_TASK, MEDIUM_TASK, SIMPLE_TASK, SKILL_POOL, of_kind,
                      trace_codecs)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Per policy on shipped `medium`: (agent-steps, opcodes per agent-step bound).
OPCODES_PER_AGENT_STEP_BOUND = {
    "no_comm": (405, 252),
    "fixed_steps": (310, 395),
    "c2c_heuristic": (270, 376),
}
# Opcodes per agent-step at 16 roots over the same at 4 roots.
ROOTS_RATIO_BOUND = 1.10
# Opcodes per agent-step at 16 roots.
ROOTS_16_BOUND = 429
# Per trace codec: opcodes per agent-step of the 16-root run through `teamsim
# run`'s sink chain, a `TraceWriter` that hands each batch to a `MetricsFold`.
SINK_CHAIN_BOUND = {"orjson": 596, "stdlib": 715}
# Per trace codec: opcodes per line of `TraceLog.stream` over the shipped
# `medium` trace under `c2c_heuristic`.
STREAM_OPCODES_PER_LINE_BOUND = {"orjson": 7, "stdlib": 32}
# Team set-up on a 1M+256W team with one root under `no_comm`: opcodes of the
# parse per worker, of `Simulation()` per agent and of step 0 (the plan) per
# subtask.
SETUP_OPCODES_BOUND = {"parse": 54, "simulation": 69, "plan_step": 648}
WIDE_WORKERS = 256
# Opcodes per message sent on the same team under `c2c_heuristic`, counted in
# the message path's frames and below them.
OPCODES_PER_MESSAGE_BOUND = 486

calibrated = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                reason="bounds calibrated on CPython 3.11")


def count_opcodes(call, within=()):
    """`call()`'s result and the bytecode instructions it executed, in every
    frame it ran, or, given functions `within`, only while one of them runs:
    in its frame and every frame below it. `order_key` and `message_price`
    start with empty memos and the cyclic garbage collector is off, so the
    count does not depend on which tests ran before: a collection runs the
    Python-level callbacks other tests leave in `gc.callbacks` (hypothesis
    registers one)."""
    order_key.cache_clear()
    message_price.cache_clear()
    collecting = gc.isenabled()
    gc.disable()
    codes = {function.__code__ for function in within}
    count = 0
    # How many frames of `within` are running.
    inside = 0

    def local(frame, event, arg):
        nonlocal count, inside
        if event == "opcode":
            count += 1
        elif event == "return" and frame.f_code in codes:
            inside -= 1
        return local

    def on_call(frame, event, arg):
        nonlocal inside
        if frame.f_code in codes:
            inside += 1
        elif codes and not inside:
            return None
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        result = call()
    finally:
        sys.settrace(None)
        if collecting:
            gc.enable()
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
    assert many <= ROOTS_16_BOUND, f"{many:.1f} opcodes per agent-step at 16 roots"


@calibrated
@pytest.mark.parametrize("codec", [name for name, _ in trace_codecs()])
def test_sink_chain_opcodes_per_agent_step_stay_under_the_bound(tmp_path, monkeypatch,
                                                                codec):
    """The 16-root run as `teamsim run` drives it: every event is encoded and
    written by a `TraceWriter` and folded by the `MetricsFold` behind it."""
    monkeypatch.setattr(trace, "_codec", dict(trace_codecs())[codec])
    scenario = roots_scenario(16)
    path = tmp_path / "trace.jsonl"
    with TraceWriter(path, MetricsFold(scenario)) as writer:
        simulation = Simulation(scenario, max_steps=2000, trace=writer)
        result, opcodes = count_opcodes(simulation.run)
    assert result.completed
    agent_steps = len(of_kind(TraceLog.read(path), "action"))
    assert agent_steps == 6392
    assert opcodes / agent_steps <= SINK_CHAIN_BOUND[codec], \
        f"{opcodes} opcodes over {agent_steps} agent-steps"


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


def wide_team_text() -> str:
    """A 1M+256W scenario with one medium root under `no_comm`, as YAML."""
    return "\n".join([
        "name: wide",
        f"team: 1M+{WIDE_WORKERS}W",
        "policy: no_comm",
        f"skill_pool: [{', '.join(SKILL_POOL)}]",
        "tasks:",
        f"  - description: {MEDIUM_TASK.description!r}",
        f"    hours: {MEDIUM_TASK.estimated_hours}",
        f"    skills: [{', '.join(sorted(MEDIUM_TASK.required_skills))}]",
    ]) + "\n"


@calibrated
@pytest.mark.skipif(config._pyyaml()[0].__bases__ != (getattr(yaml, "CSafeLoader", None),),
                    reason="calibrated with libyaml's loader")
def test_team_setup_opcodes_stay_under_the_bounds():
    """Parsing, building the `Simulation` and the plan step each cost a
    bounded number of instructions per agent or subtask: nothing per agent is
    built twice, and the even plan's subtasks are placed by `assign` alone."""
    text = wide_team_text()
    Simulation(parse_scenario_text(text)).step()
    scenario, parse_opcodes = count_opcodes(lambda: parse_scenario_text(text))
    simulation, build_opcodes = count_opcodes(lambda: Simulation(scenario))
    _, plan_opcodes = count_opcodes(simulation.step)
    subtasks = len(simulation.world.graph.nodes) - 1
    assert len(scenario.team) == WIDE_WORKERS + 1 and subtasks == WIDE_WORKERS
    readings = {"parse": parse_opcodes / WIDE_WORKERS,
                "simulation": build_opcodes / len(scenario.team),
                "plan_step": plan_opcodes / subtasks}
    for name, bound in SETUP_OPCODES_BOUND.items():
        assert readings[name] <= bound, f"{name}: {readings[name]:.2f} opcodes"


@calibrated
def test_message_path_opcodes_per_message_stay_under_the_bound():
    """On the wide team under `c2c_heuristic` every worker asks the manager
    for clarification and reports progress once: a message's start, its send
    and its deliveries cost a bounded number of instructions, whatever the
    team's width."""
    text = wide_team_text().replace("policy: no_comm", "policy: c2c_heuristic")
    simulation = Simulation(parse_scenario_text(text))
    result, opcodes = count_opcodes(simulation.run, within=(
        Simulation._start_communication, Simulation._start_check_messages,
        Simulation._complete_send, Simulation._complete_reply, World.deliver))
    assert result.completed
    sent = len(of_kind(result.trace, "message_sent"))
    assert sent == 2 * WIDE_WORKERS + 1
    assert opcodes / sent <= OPCODES_PER_MESSAGE_BOUND, \
        f"{opcodes} opcodes over {sent} messages"
