"""The World's incremental indexes answer exactly what a full scan answers.

Each oracle below is the scan a query used before the index replaced it. The
property drives `Simulation.step` by hand over generated scenarios and, after
every step, compares each indexed query with its oracle for every agent. The
inbox scans read a delivery log that the harness records by wrapping
`World.deliver`, since `World` keeps no inbox, and the replies sent, read off
the trace. The busy set the engine gives a step's contexts is compared with
the agents the trace shows busy as the step starts.
"""

import dataclasses
import random
from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from teamsim import engine
from teamsim.comms import Message, MessageType, MeetingStatus, REQUEST_TYPES
from teamsim.config import expand_team_shorthand
from teamsim.engine import Simulation, World
from teamsim.model import Scenario, TaskSpec, order_key, validate_scenario
from teamsim.policy import (FixedStepsPolicy, HeuristicPolicy, Intention,
                            IntentionKind, TaskAssignmentView, build_context)
from teamsim.taskgraph import TaskStatus

from conftest import (SKILL_POOL, ChainPlanner, RandomDagPlanner,
                      chain_scenario, eight_roots_scenario, log_deliveries, of_kind,
                      watch_task_views)


class NoisyHeuristicPolicy(HeuristicPolicy):
    """The heuristic, but some decisions are replaced by a random intention.

    The noise reaches what the plain heuristic rarely does: ignored invites
    and cancelled meetings, replies dropped on closed threads, requests about
    arbitrary own tasks.
    """

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed

    def decide(self, context):
        rng = random.Random(f"{self.seed}:{context.agent.agent_id}:{context.step}")
        if rng.random() < 0.6:
            return super().decide(context)
        hint = rng.choice(context.assigned).task_id if context.assigned else None
        return Intention(rng.choice(list(IntentionKind)), task_hint=hint)


# -- oracles: the pre-index scans -------------------------------------------


def oracle_assigned_tasks(world: World, agent_id: str) -> list[str]:
    return sorted((n.task_id for n in world.graph.nodes.values()
                   if n.parent_id is not None and n.assignee == agent_id),
                  key=order_key)


def oracle_unanswered_inbound(world: World, agent_id: str, inbox: list[Message],
                              replied: set[tuple[str, str]]) -> tuple[str, ...]:
    """`replied` holds (sender, thread id) of every reply sent so far."""
    found = []
    for msg in inbox:
        if msg.message_type not in REQUEST_TYPES:
            continue
        thread = world.threads.get(msg.thread_id)
        if thread is None or not thread.open:
            continue
        if msg.from_agent == agent_id:
            continue
        if (agent_id, msg.thread_id) in replied:
            continue
        found.append((msg.sent_step + 1, msg.message_id, msg.thread_id))
    found.sort()
    return tuple(tid for _, _, tid in found)


def oracle_open_outbound_tasks(world: World, agent_id: str) -> set[str]:
    return {t.root.about_task for t in world.threads.values()
            if t.open and t.root.from_agent == agent_id and t.root.about_task}


def oracle_pending_invites(world: World, agent_id: str,
                           inbox: list[Message]) -> list[tuple[int, str, str]]:
    out = []
    for msg in inbox:
        if msg.message_type is not MessageType.MEETING_INVITE:
            continue
        meeting = world.meetings.get(msg.meeting_id or "")
        if meeting is None or meeting.status is not MeetingStatus.PENDING:
            continue
        if agent_id in meeting.attending:
            continue
        out.append((msg.sent_step + 1, msg.message_id, msg.meeting_id))
    out.sort()
    return out


def oracle_has_meeting_start(agent_id: str, inbox: list[Message],
                             inbox_read: dict[str, int]) -> bool:
    """A `MEETING_START` delivered after the step of the agent's last
    CHECK_MESSAGES that found nothing actionable."""
    read_at = inbox_read.get(agent_id, -1)
    return any(m.message_type is MessageType.MEETING_START
               and m.sent_step + 1 > read_at
               for m in inbox)


def oracle_blocked_collaborators(world: World, agent_id: str) -> dict:
    result = {}
    for task_id in oracle_assigned_tasks(world, agent_id):
        node = world.graph.node(task_id)
        if node.done or node.parent_id is None:
            continue
        blocked = set()
        for sibling in world.graph.children(node.parent_id):
            if (
                task_id in sibling.dependencies
                and not sibling.done
                and sibling.status.value == "pending"
                and sibling.assignee
                and sibling.assignee != agent_id
            ):
                blocked.add(sibling.assignee)
        if blocked:
            result[task_id] = tuple(sorted(blocked, key=order_key))
    return result


def oracle_assigned(world: World, agent_id: str) -> tuple[TaskAssignmentView, ...]:
    views = []
    for task_id in oracle_assigned_tasks(world, agent_id):
        node = world.graph.node(task_id)
        views.append(TaskAssignmentView(
            task_id=task_id,
            description=node.description,
            estimated_hours=node.estimated_hours,
            required_skills=node.required_skills,
            af=world.alignment.get(agent_id, task_id),
            hours_worked=world.stats[agent_id, task_id].hours_worked,
            progress=min(1.0, node.accumulated_effective_hours / node.estimated_hours),
            done=node.status is TaskStatus.DONE,
        ))
    return tuple(views)


def oracle_active_task(world: World, agent_id: str) -> str | None:
    for task_id in oracle_assigned_tasks(world, agent_id):
        if world.graph.node(task_id).status in (TaskStatus.READY, TaskStatus.IN_PROGRESS):
            return task_id
    return None


def oracle_due(world: World, agent_id: str) -> list[str]:
    """The agent's tasks with a milestone to report, in id order."""
    return [task_id for task_id in oracle_assigned_tasks(world, agent_id)
            if world.stats[agent_id, task_id].pending_milestone is not None]


def oracle_busy(in_flight: set[str], step_events: list[dict]) -> frozenset[str]:
    """The agents with an action in flight before a step's intentions are
    resolved: those whose `action` event of the step before left steps to run
    (`in_flight`), and the attendees of a meeting that convened at the step's
    start, read off the step's events."""
    return frozenset(in_flight).union(*(
        record["to"] for record in step_events
        if record["kind"] == "message_sent" and record["type"] == "MEETING_START"))


def oracle_pending_meetings(world: World) -> list[str]:
    return [m for m in sorted(world.meetings, key=order_key)
            if world.meetings[m].status is MeetingStatus.PENDING]


def oracle_organized_meeting_tasks(world: World, agent_id: str) -> set:
    return {m.invite.about_task for m in world.meetings.values()
            if m.invite.from_agent == agent_id}


def check_indexes(world: World, busy: frozenset[str], done_at: dict[str, int],
                  inbox_read: dict[str, int],
                  delivered: dict[str, list[Message]],
                  replied: set[tuple[str, str]]) -> None:
    """Every per-agent table the deterministic policies read, and every
    `World` query, against its full scan."""
    for agent_id in world.agent_order:
        inbox = delivered[agent_id]
        assert world.assigned_tasks(agent_id) == oracle_assigned_tasks(world, agent_id)
        # An inbox list may hold stale entries, never miss a live one: a
        # policy filters it only when it is non-empty.
        unanswered = oracle_unanswered_inbound(world, agent_id, inbox, replied)
        assert set(unanswered) <= {e[2] for e in world.inbound_requests[agent_id]}
        assert world.unanswered_inbound(agent_id) == unanswered
        invites = oracle_pending_invites(world, agent_id, inbox)
        assert set(invites) <= set(world.invites[agent_id])
        assert world.pending_invites(agent_id) == invites
        assert world.has_unprocessed_invite(agent_id) == bool(invites)
        assert (agent_id in world.meeting_started) == \
            oracle_has_meeting_start(agent_id, inbox, inbox_read)
        # A stale entry is None until the query rebuilds it.
        outbound = oracle_open_outbound_tasks(world, agent_id)
        assert world.outbound[agent_id] in (None, outbound)
        assert world.open_outbound_tasks(agent_id) == outbound
        assert world.outbound[agent_id] == outbound
        blocked = oracle_blocked_collaborators(world, agent_id)
        assert world.blocked[agent_id] in (None, blocked)
        assert world.blocked_collaborators(agent_id) == blocked
        assert world.blocked[agent_id] == blocked
        context = build_context(world, agent_id, busy)
        # The step's one set, not a copy.
        assert context.busy is busy
        assigned = oracle_assigned(world, agent_id)
        assert context.assigned == assigned
        # The active task, whose alignment the view of it shows.
        active = oracle_active_task(world, agent_id)
        assert world.active_task_id[agent_id] == active
        if active is not None:
            view = next(v for v in assigned if v.task_id == active)
            assert world.alignment.values[agent_id, active] == view.af
        due = oracle_due(world, agent_id)
        assert world.due[agent_id] == set(due)
        assert (min(world.due[agent_id], key=order_key) if due else None) == \
            (due[0] if due else None)
        assert world.organized[agent_id] == oracle_organized_meeting_tasks(world, agent_id)
    assert list(world.pending_meetings) == oracle_pending_meetings(world)
    # A task that finishes closes every request thread about it sent before
    # that step; a request sent later about the finished task may stay open.
    for thread in world.threads.values():
        root = thread.root
        if thread.open and root.about_task in done_at:
            assert root.sent_step >= done_at[root.about_task]
    for node in world.graph.nodes.values():
        # Readiness is refreshed whenever a dependency finishes.
        if node.status in (TaskStatus.PENDING, TaskStatus.READY):
            deps_done = all(world.graph.node(d).done for d in node.dependencies)
            assert (node.status is TaskStatus.READY) == deps_done


class Spec(NamedTuple):
    """One generated run: the team's worker count, each root's skills and
    hours, and the planner and policy, with the seed they draw from."""

    workers: int
    roots: tuple[tuple[frozenset[str], float], ...]
    seed: int
    planner: str  # "chain" or "dag"
    policy: str  # "heuristic", "fixed" or "noisy"


def build_simulation(spec: Spec, parallel_decide: bool = False,
                     simulation: type[Simulation] = Simulation) -> Simulation:
    tasks = [TaskSpec(f"generated root {i + 1}", hours, skills)
             for i, (skills, hours) in enumerate(spec.roots)]
    scenario = validate_scenario(Scenario(
        name="generated", team=expand_team_shorthand(f"1M+{spec.workers}W", SKILL_POOL),
        tasks=tasks, policy_name="c2c_heuristic", skill_pool=tuple(SKILL_POOL),
    ))
    planner = ChainPlanner() if spec.planner == "chain" else RandomDagPlanner(spec.seed)
    policy = {"heuristic": HeuristicPolicy, "fixed": lambda: FixedStepsPolicy(interval=4),
              "noisy": lambda: NoisyHeuristicPolicy(spec.seed)}[spec.policy]()
    return simulation(scenario, policy=policy, planner=planner, max_steps=60,
                      parallel_decide=parallel_decide)


_roots = st.tuples(st.sets(st.sampled_from(SKILL_POOL), min_size=1, max_size=4).map(frozenset),
                   st.sampled_from([0.5, 1.0, 2.0, 3.0]))
specs = st.builds(Spec, st.integers(1, 16), st.lists(_roots, min_size=1, max_size=8).map(tuple),
                  st.integers(0, 10 ** 6), st.sampled_from(["chain", "dag"]),
                  st.sampled_from(["heuristic", "fixed", "noisy"]))


def run_checking_indexes(sim: Simulation) -> None:
    """Step the simulation to its end, checking every index after each step,
    and the busy set the engine gave each step's contexts."""
    world = sim.world
    done_at: dict[str, int] = {}
    # The step of each agent's last CHECK_MESSAGES that found nothing to act on.
    inbox_read: dict[str, int] = {}
    start_check_messages = sim._start_check_messages

    def recording(agent_id):
        found = start_check_messages(agent_id)
        if not found:
            inbox_read[agent_id] = world.clock.step
        return found

    sim._start_check_messages = recording
    # The one busy set the engine gave every context of a step, by step.
    busy_of_step: dict[int, frozenset[str]] = {}
    build = engine.build_context

    def recording_busy(stepped, agent_id, busy):
        assert busy_of_step.setdefault(stepped.clock.step, busy) is busy
        return build(stepped, agent_id, busy)

    delivered = log_deliveries(world)
    # (sender, thread id) of every reply sent, read off the trace.
    replied: set[tuple[str, str]] = set()
    # The agents whose last `action` event left steps to run.
    in_flight: set[str] = set()
    read = 0
    check_indexes(world, frozenset(), done_at, inbox_read, delivered, replied)
    engine.build_context = recording_busy
    try:
        while world.clock.step < world.clock.max_steps and not world.graph.all_roots_done():
            t = world.clock.step
            sim.step()
            for node in world.graph.nodes.values():
                if node.done:
                    done_at.setdefault(node.task_id, t)
            step_events = world.trace.events[read:]
            read += len(step_events)
            replied.update((r["from"], r["thread_id"]) for r in step_events
                           if r["kind"] == "message_sent" and r["type"] == "RESPONSE")
            busy = oracle_busy(in_flight, step_events)
            # No context is built at a step where every agent is busy.
            assert busy_of_step.get(t, busy) == busy
            in_flight = {r["agent"] for r in step_events
                         if r["kind"] == "action" and r["remaining"] > 0}
            check_indexes(world, busy_of_step.get(t, busy), done_at, inbox_read,
                          delivered, replied)
    finally:
        engine.build_context = build
    # Only request threads are kept.
    assert all(t.root.message_type in REQUEST_TYPES for t in world.threads.values())


def check_one_reply_per_request(events: list[dict]) -> None:
    """Every request goes to one recipient, about a task, and gets at most one
    reply: from that recipient, to the asker alone."""
    requests: dict[str, dict] = {}
    replied: set[str] = set()
    for record in events:
        if record["kind"] != "message_sent":
            continue
        if record["type"] in ("HELP_REQUEST", "NEED_CLARIFICATION"):
            assert len(record["to"]) == 1, record
            assert record["about_task"] is not None, record
            requests[record["thread_id"]] = record
        elif record["type"] == "RESPONSE":
            thread_id = record["thread_id"]
            assert thread_id not in replied, record
            replied.add(thread_id)
            request = requests[thread_id]
            assert [record["from"]] == request["to"], record
            assert record["to"] == [request["from"]], record


# Runs that fail each of these index mutations, whatever examples are drawn:
# an answered thread left in `unanswered_inbound`, a closed thread left in
# `open_outbound_tasks`, an accepted invite or one to a meeting no longer
# pending left in `pending_invites`, a meeting start never cleared, a blocked
# map not recomputed when a dependency finishes, a called meeting not recorded
# as organized, an active task not re-picked when a dependent becomes ready,
# a reported milestone left due, and threads about a finished task left open.
# The first fails all ten; the second fails six of them.
@example(Spec(3, ((frozenset({"authentication", "backend", "oauth", "testing"}), 2.0),),
              244178, "dag", "noisy"))
@example(Spec(1, ((frozenset({"authentication", "documentation"}), 1.0),
                  (frozenset({"api", "oauth", "testing"}), 2.0),
                  (frozenset({"authentication", "backend", "documentation"}), 0.5)),
              768690, "chain", "noisy"))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(specs)
def test_indexes_equal_full_scans(spec):
    sim = build_simulation(spec)
    run_checking_indexes(sim)
    check_one_reply_per_request(sim.world.trace.events)


# No shrink or explain phase: a failure reports the run as drawn. Shrinking
# a failing draw, two whole runs per example, ran for over five minutes.
@settings(max_examples=80, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(specs, st.sampled_from(["heuristic", "fixed"]))
def test_serial_trace_is_the_parallel_trace(spec, policy):
    """A serial step runs each decide right before its own agent's resolve,
    a parallel step all its decides first. A resolve writes only its own
    agent's entries, so the two write the same trace."""
    spec = spec._replace(policy=policy)
    serial, parallel = (build_simulation(spec, parallel).run().trace.to_jsonl()
                        for parallel in (False, True))
    assert serial == parallel


def test_indexes_hold_through_the_meeting_run():
    """W1's base task blocks W2 and W3: a meeting is called and held, and
    milestones come due on held tasks."""
    scenario = dataclasses.replace(chain_scenario(), policy_name="c2c_heuristic")
    sim = Simulation(scenario, planner=ChainPlanner())
    run_checking_indexes(sim)
    check_one_reply_per_request(sim.world.trace.events)
    assert any(m.status is MeetingStatus.HELD for m in sim.world.meetings.values())
    assert any(stats.pending_milestone is not None
               for stats in sim.world.stats.values())


@pytest.mark.parametrize("policy", ["no_comm", "c2c_heuristic"])
def test_task_views_are_built_only_when_read(monkeypatch, policy):
    """A view is built only where something reads it, never on a state
    change: neither policy's decide builds one, and the engine builds at
    most one, of the task a message is about, for each message it starts."""
    phases = ["other"]
    built, calls = Counter(), Counter()
    watch_task_views(monkeypatch, lambda: built.update([phases[-1]]))
    sim = Simulation(dataclasses.replace(eight_roots_scenario(), policy_name=policy))

    def within(phase, call):
        def watched(*args):
            calls[phase] += 1
            phases.append(phase)
            try:
                return call(*args)
            finally:
                phases.pop()
        return watched

    sim.policy.decide = within("decide", sim.policy.decide)
    sim._start_action = within("start", sim._start_action)
    trace = sim.run().trace
    assert calls["decide"]
    assert set(built) <= {"start"}
    if policy == "no_comm":
        assert not built
    else:
        assert 0 < built["start"] <= len(of_kind(trace, "message_sent"))
