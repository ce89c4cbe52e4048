"""The World's incremental indexes answer exactly what a full scan answers.

Each oracle below is the scan a query used before the index replaced it. The
property drives `Simulation.step` by hand over generated scenarios and, after
every step, compares each indexed query with its oracle for every agent. The
inbox scans read a delivery log that the harness records by wrapping
`World.deliver`, since `World` keeps no inbox.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from teamsim.comms import Message, MessageType, MeetingStatus, REQUEST_TYPES
from teamsim.config import expand_team_shorthand
from teamsim.engine import Simulation, World
from teamsim.model import Scenario, TaskSpec, order_key, validate_scenario
from teamsim.policy import (FixedStepsPolicy, HeuristicPolicy, Intention,
                            IntentionKind, TaskAssignmentView, TeammateView,
                            build_context, team_views)
from teamsim.taskgraph import TaskStatus

from conftest import (SKILL_POOL, ChainPlanner, RandomDagPlanner,
                      chain_scenario, eight_roots_scenario, log_deliveries, of_kind)


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


def oracle_unanswered_inbound(world: World, agent_id: str,
                              inbox: list[Message]) -> tuple[str, ...]:
    found = []
    for msg in inbox:
        if msg.message_type not in REQUEST_TYPES:
            continue
        thread = world.threads.get(msg.thread_id)
        if thread is None or not thread.open:
            continue
        if msg.from_agent == agent_id:
            continue
        if agent_id in thread.repliers:
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
        stats = world.task_stats(agent_id, task_id)
        views.append(TaskAssignmentView(
            task_id=task_id,
            description=node.description,
            estimated_hours=node.estimated_hours,
            required_skills=node.required_skills,
            af=world.alignment.get(agent_id, task_id),
            hours_worked=stats.hours_worked,
            stuck_worked_steps=stats.stuck_worked_steps,
            progress=min(1.0, node.accumulated_effective_hours / node.estimated_hours),
            pending_milestone=stats.pending_milestone,
            ready=node.status in (TaskStatus.READY, TaskStatus.IN_PROGRESS),
            done=node.status is TaskStatus.DONE,
        ))
    return tuple(views)


def oracle_active_task(views: tuple[TaskAssignmentView, ...]):
    for view in views:
        if view.ready and not view.done:
            return view
    return None


def oracle_report_due(views: tuple[TaskAssignmentView, ...]):
    for view in views:
        if view.pending_milestone is not None:
            return view
    return None


def oracle_team_view(world: World, agent_id: str) -> tuple[TeammateView, ...]:
    return tuple(
        TeammateView(agent_id=other.agent_id, role=other.role,
                     skills=other.skills, busy=world.is_busy(other.agent_id))
        for other in (world.agents[a] for a in world.agent_order)
        if other.agent_id != agent_id
    )


def oracle_pending_meetings(world: World) -> list[str]:
    return [m for m in sorted(world.meetings, key=order_key)
            if world.meetings[m].status is MeetingStatus.PENDING]


def oracle_organized_meeting_tasks(world: World, agent_id: str) -> set:
    return {m.invite.about_task for m in world.meetings.values()
            if m.invite.from_agent == agent_id}


def check_indexes(world: World, done_at: dict[str, int],
                  inbox_read: dict[str, int],
                  delivered: dict[str, list[Message]]) -> None:
    team = team_views(world)
    for agent_id in world.agent_order:
        inbox = delivered[agent_id]
        assert world.assigned_tasks(agent_id) == oracle_assigned_tasks(world, agent_id)
        assert world.unanswered_inbound(agent_id) == \
            oracle_unanswered_inbound(world, agent_id, inbox)
        assert world.open_outbound_tasks(agent_id) == \
            oracle_open_outbound_tasks(world, agent_id)
        invites = oracle_pending_invites(world, agent_id, inbox)
        assert world.pending_invites(agent_id) == invites
        assert world.has_unprocessed_invite(agent_id) == bool(invites)
        assert world.has_meeting_start(agent_id) == \
            oracle_has_meeting_start(agent_id, inbox, inbox_read)
        assert world.blocked_collaborators(agent_id) == \
            oracle_blocked_collaborators(world, agent_id)
        context = build_context(world, agent_id, team)
        # The step's one tuple, not a copy; the others are what the scan sees.
        assert context.team_view is team
        assert tuple(mate for mate in context.team_view
                     if mate.agent_id != agent_id) == oracle_team_view(world, agent_id)
        assigned = oracle_assigned(world, agent_id)
        assert context.assigned == assigned
        assert context.active_task == oracle_active_task(assigned)
        assert context.report_due == oracle_report_due(assigned)
        organized = world.organized_meeting_tasks(agent_id)
        assert organized == oracle_organized_meeting_tasks(world, agent_id)
        # Shared with the context, not copied into it.
        assert context.meeting_organized_tasks is organized
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


@st.composite
def simulations(draw) -> Simulation:
    workers = draw(st.integers(1, 16))
    roots = draw(st.integers(1, 8))
    tasks = []
    for i in range(roots):
        skills = draw(st.sets(st.sampled_from(SKILL_POOL), min_size=1, max_size=4))
        hours = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
        tasks.append(TaskSpec(f"generated root {i + 1}", hours, frozenset(skills)))
    scenario = validate_scenario(Scenario(
        name="generated", team=expand_team_shorthand(f"1M+{workers}W", SKILL_POOL),
        tasks=tasks, policy_name="c2c_heuristic", skill_pool=tuple(SKILL_POOL),
    ))
    seed = draw(st.integers(0, 10 ** 6))
    planner = draw(st.sampled_from([ChainPlanner(), RandomDagPlanner(seed)]))
    policy = draw(st.sampled_from(
        [HeuristicPolicy(), FixedStepsPolicy(interval=4), NoisyHeuristicPolicy(seed)]))
    return Simulation(scenario, policy=policy, planner=planner, max_steps=60)


def run_checking_indexes(sim: Simulation) -> None:
    """Step the simulation to its end, checking every index after each step."""
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
    delivered = log_deliveries(world)
    check_indexes(world, done_at, inbox_read, delivered)
    while world.clock.step < world.clock.max_steps and not world.graph.all_roots_done():
        t = world.clock.step
        sim.step()
        for node in world.graph.nodes.values():
            if node.done:
                done_at.setdefault(node.task_id, t)
        check_indexes(world, done_at, inbox_read, delivered)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(simulations())
def test_indexes_equal_full_scans(sim):
    run_checking_indexes(sim)


def test_indexes_hold_through_the_meeting_run():
    """W1's base task blocks W2 and W3: a meeting is called and held, and
    milestones come due on held tasks."""
    scenario = dataclasses.replace(chain_scenario(), policy_name="c2c_heuristic")
    sim = Simulation(scenario, planner=ChainPlanner())
    run_checking_indexes(sim)
    assert any(m.status is MeetingStatus.HELD for m in sim.world.meetings.values())
    assert any(stats.pending_milestone is not None
               for stats in sim.world.stats.values())


@pytest.mark.parametrize("policy", ["no_comm", "c2c_heuristic"])
def test_task_views_are_built_only_when_read(monkeypatch, policy):
    """A view is built when a context field or the engine reads it, never on
    a state change. `no_comm` reads none; the heuristic reads at most the
    active and the report-due view per decision, and the engine the hinted
    view per message it composes."""
    built = []
    task_view = World.task_view

    def counting(self, agent_id, task_id):
        built.append((agent_id, task_id))
        return task_view(self, agent_id, task_id)

    monkeypatch.setattr(World, "task_view", counting)
    sim = Simulation(dataclasses.replace(eight_roots_scenario(), policy_name=policy))
    decides = []
    decide = sim.policy.decide

    def counting_decide(context):
        decides.append(context.agent.agent_id)
        return decide(context)

    sim.policy.decide = counting_decide
    trace = sim.run().trace
    assert decides
    if policy == "no_comm":
        assert built == []
    else:
        assert built
        assert len(built) <= 2 * len(decides) + len(of_kind(trace, "message_sent"))
