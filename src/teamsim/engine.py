"""The synchronized timestep engine.

Each step runs a fixed phase order: deliver due messages, convene due
meetings, collect one intention per idle agent, resolve intentions into
actions, execute one step of every active action, then apply queued alignment
deltas. A message sent while actions execute goes straight into the buffer,
which delivers it next step. Reordering any phase breaks the reproducibility
guarantees, so all mutation happens here.

Every agent contributes exactly one action-step per step: work, communication
progress, meeting attendance, or an explicit idle transition.
"""

from __future__ import annotations

from bisect import insort
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .alignment import (AlignmentState, effective_progress,
                        normalize_reported_alignment, rule_based_delta)
from .comms import (CHANNEL_NAMES, Channel, CommBuffer, Meeting, MeetingStatus,
                    Message, MessageType, REQUEST_TYPES, TYPE_NAMES, Thread,
                    communication_cost, word_count)
from .model import AgentProfile, Scenario, SimClock, hours_to_steps, order_key
from .planner import EvenPlanner, LlmPlanner, assign
from .policy import (Intention, IntentionKind, LastAction, Policy, PolicyContext,
                     REPORT_MILESTONES, TaskAssignmentView, TeammateView,
                     build_context, build_policy, compose_message,
                     compose_reply, reply_channel, select_channel,
                     select_recipients, team_views)
from .taskgraph import TaskGraph, TaskStatus
from .trace import TraceLog, TraceSink

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

    from .adapter import ChatCompletionAdapter

# An invited agent that has not accepted within this many steps of the invite
# being sent no longer delays the meeting; it convenes or cancels without them.
RSVP_GRACE_STEPS = 6

# What the manager intends before the plan step; it never reaches a policy.
DECOMPOSITION_PENDING = Intention(IntentionKind.CONTINUE_TASK, "decomposition pending")

# A task's status while its holder can work on it.
WORKABLE = (TaskStatus.READY, TaskStatus.IN_PROGRESS)

# Builds a named tuple at C level, without the Python `__new__` its class has.
_new_tuple = tuple.__new__

# The message each communicating intention sends.
INTENTION_MESSAGE_TYPES = {
    IntentionKind.REQUEST_HELP: MessageType.HELP_REQUEST,
    IntentionKind.NEED_CLARIFICATION: MessageType.NEED_CLARIFICATION,
    IntentionKind.REPORT_PROGRESS: MessageType.PROGRESS_UPDATE,
}


class ActionKind(str, Enum):
    WORK = "work"
    PLAN = "plan"
    COMMUNICATE = "communicate"
    REPLY = "reply"
    RSVP = "rsvp"
    MEETING = "meeting"
    IDLE = "idle"


# Each kind's string for the `action` event, read once instead of `.value`:
# the plan step is work and an RSVP is a reply.
ACTION_NAMES = {member: member.value for member in ActionKind} | {
    ActionKind.PLAN: "work", ActionKind.RSVP: "reply"}


class Outgoing(NamedTuple):
    """A message being composed, as its send or reply will stage it."""

    message_type: MessageType
    content: str
    words: int  # word_count(content)
    recipients: tuple[str, ...]
    channel: Channel
    about_task: str | None
    cost: float


class ActiveAction:
    __slots__ = ("kind", "target", "remaining", "outgoing")

    def __init__(self, kind: ActionKind, target: str | None, remaining: int,
                 outgoing: Outgoing | None = None) -> None:
        self.kind = kind
        self.target = target
        self.remaining = remaining
        # What a COMMUNICATE or REPLY action sends when it completes.
        self.outgoing = outgoing


class AgentTaskStats:
    __slots__ = ("hours_worked", "stuck_worked_steps", "pending_milestone",
                 "reported_milestones")

    def __init__(self) -> None:
        self.hours_worked = 0.0
        self.stuck_worked_steps = 0
        self.pending_milestone: float | None = None
        self.reported_milestones: set[float] = set()


class PendingAfEvaluation(NamedTuple):
    agent_id: str
    task_id: str
    cause_id: str
    root_type: MessageType
    # The delivered reply that resolved a request thread; None for a meeting.
    reply: Message | None = None


class RuleBasedEvaluator:
    name = "rule_based"

    def evaluate(self, world: "World", pending: PendingAfEvaluation
                 ) -> tuple[float, str | None]:
        """The alignment delta, and a warning if there is one."""
        return rule_based_delta(pending.root_type), None


class LlmEvaluator:
    """Asks the external model how much a reply improved task understanding."""

    name = "llm"

    def __init__(self, adapter: ChatCompletionAdapter) -> None:
        self.adapter = adapter

    def evaluate(self, world: "World", pending: PendingAfEvaluation
                 ) -> tuple[float, str | None]:
        if pending.root_type not in REQUEST_TYPES:
            # Meetings and updates keep their fixed table impact.
            return rule_based_delta(pending.root_type), None
        from . import prompts
        from .adapter import AdapterError

        node = world.graph.node(pending.task_id)
        old_af = world.alignment.get(pending.agent_id, pending.task_id)
        stats = world.task_stats(pending.agent_id, pending.task_id)
        reply = pending.reply
        messages = prompts.evaluation_messages(
            task_id=pending.task_id,
            task_description=node.description,
            required_skills=sorted(node.required_skills),
            actual_hours=stats.hours_worked,
            estimated_hours=node.estimated_hours,
            current_alignment=old_af,
            message_type=MessageType.RESPONSE.value,
            from_agent=reply.from_agent,
            original_request=world.threads[reply.thread_id].root.content,
            reply_content=reply.content,
        )
        try:
            parsed = self.adapter.complete_json(messages)
            reported = float(parsed["new_alignment_factor"])
            return normalize_reported_alignment(old_af, reported), None
        except (AdapterError, KeyError, TypeError, ValueError) as exc:
            return rule_based_delta(pending.root_type), f"evaluator fallback: {exc}"


def build_evaluator(name: str, adapter: ChatCompletionAdapter | None = None):
    if name == "rule_based":
        return RuleBasedEvaluator()
    if name == "llm":
        if adapter is None:
            raise ValueError("llm evaluator requires an adapter")
        return LlmEvaluator(adapter)
    raise ValueError(f"unknown evaluator: {name}")


class World:
    """All mutable run state; mutated only by the step driver.

    It keeps indexes, updated by the methods that change the state, so that
    no query rescans history. It keeps no task view: `task_view` builds one
    from the task's node, alignment and work stats at each call, and a read
    in the parallel decide writes only the reader's own index entries.
    """

    def __init__(self, scenario: Scenario, trace: TraceSink | None = None) -> None:
        self.scenario = scenario
        self.clock = SimClock()
        ordered = sorted(scenario.team, key=lambda a: order_key(a.agent_id))
        self.agents: dict[str, AgentProfile] = {a.agent_id: a for a in ordered}
        self.agent_order: list[str] = [a.agent_id for a in ordered]
        self.manager_id = scenario.manager.agent_id
        # Each agent as a teammate sees it, (idle, busy), in agent order; a
        # step picks one of the two by `agent_id in active`.
        self.teammate_views: dict[str, tuple[TeammateView, TeammateView]] = {
            a.agent_id: (TeammateView(a.agent_id, a.role, a.skills, False),
                         TeammateView(a.agent_id, a.role, a.skills, True))
            for a in ordered}

        self.graph = TaskGraph()
        for i, task in enumerate(scenario.tasks):
            self.graph.add_root(f"T{i + 1}", task.description,
                                task.estimated_hours, task.required_skills)

        self.alignment = AlignmentState()
        self.buffer = CommBuffer()
        # Messages delivered to each agent so far, by type name; replaced, not
        # mutated, so a context can share it.
        self.delivered_by_type: dict[str, dict[str, int]] = dict.fromkeys(
            self.agent_order, {})
        self.threads: dict[str, Thread] = {}
        self.meetings: dict[str, Meeting] = {}
        # Meetings still waiting to convene, in id order.
        self.pending_meetings: dict[str, Meeting] = {}
        # Each agent's subtasks in id order, sorted once when the plan lands.
        self.assignments: dict[str, list[str]] = {a: [] for a in self.agent_order}
        self.active: dict[str, ActiveAction] = {}
        self.stats: dict[tuple[str, str], AgentTaskStats] = {}
        self.last_actions: dict[str, LastAction] = {}
        self.pending_af: list[PendingAfEvaluation] = []
        self.trace: TraceSink = TraceLog() if trace is None else trace
        self._seq = 0
        self.comm_cost_total = 0.0
        self.completion_steps: dict[str, int] = {}
        self.planned = False
        # The tasks each agent has called a meeting about; replaced, not
        # mutated, so a context can share it.
        self._organized: dict[str, frozenset[str | None]] = dict.fromkeys(
            self.agent_order, frozenset())
        # Inbox indexes, filled on delivery. Entries are (delivery step,
        # message id, thread or meeting id) kept in that sort order, because
        # delivery order within a step is not message-id order. An entry whose
        # thread closed or was answered, or whose invite was answered, never
        # becomes actionable again and is dropped when next read.
        self._inbound_requests: dict[str, list[tuple[int, str, str]]] = {
            a: [] for a in self.agent_order}
        self._invites: dict[str, list[tuple[int, str, str]]] = {
            a: [] for a in self.agent_order}
        self._meeting_started: set[str] = set()
        # Request threads opened, by root sender and by task; closed ones are
        # dropped when next read.
        self._open_by_sender: dict[str, list[Thread]] = {a: [] for a in self.agent_order}
        self._open_by_task: dict[str, list[Thread]] = {}
        # Each agent's active task: the first ready one it holds, which
        # CONTINUE_TASK works on. Re-picked only when readiness can change:
        # when the plan lands, a held task finishes or a dependent of a
        # finished task becomes ready.
        self.active_task_id: dict[str, str | None] = dict.fromkeys(self.agent_order)
        # Each agent's tasks with a milestone to report: those whose stats
        # hold a `pending_milestone`.
        self._due: dict[str, set[str]] = {a: set() for a in self.agent_order}
        # Each agent's blocked-collaborator map; None until the next read
        # recomputes it. One entry per agent, so that a read inside the
        # parallel decide touches only the deciding agent's entry.
        self._blocked: dict[str, dict[str, tuple[str, ...]] | None] = dict.fromkeys(
            self.agent_order, {})
        self._message_counter = 0
        self._thread_counter = 0
        self._meeting_counter = 0

    # -- id factories ------------------------------------------------------

    def next_message_id(self) -> str:
        self._message_counter += 1
        return f"m{self._message_counter:05d}"

    def next_thread_id(self) -> str:
        self._thread_counter += 1
        return f"th{self._thread_counter:04d}"

    def next_meeting_id(self) -> str:
        self._meeting_counter += 1
        return f"mt{self._meeting_counter:03d}"

    def emit(self, record: dict) -> None:
        """Stamp an event record with its `seq` and hand it to the trace.

        `record` is the event's one representation, its trace line's object:
        `step`, `seq` (None until stamped here) and `kind`, then the fields
        `trace.SCHEMAS` lists for the kind, in that order.
        """
        record["seq"] = self._seq
        self._seq += 1
        self.trace.append(record)

    # -- state changes that keep the indexes current --------------------------

    def deliver(self, message: Message, recipient: str, t: int) -> None:
        """Count a message delivered to one agent, index it, and trace it."""
        kind = message.message_type
        name = TYPE_NAMES[kind]
        counts = self.delivered_by_type[recipient]
        self.delivered_by_type[recipient] = {**counts, name: counts.get(name, 0) + 1}
        if kind in REQUEST_TYPES and message.from_agent != recipient:
            insort(self._inbound_requests[recipient],
                   (t, message.message_id, message.thread_id))
        elif kind is MessageType.MEETING_INVITE:
            insort(self._invites[recipient], (t, message.message_id, message.meeting_id))
        elif kind is MessageType.MEETING_START:
            self._meeting_started.add(recipient)
        self.emit({
            "step": t, "seq": None, "kind": "message_delivered",
            "message_id": message.message_id,
            "to": recipient,
            "from": message.from_agent,
            "type": name,
            "thread_id": message.thread_id,
        })

    def open_thread(self, thread: Thread) -> None:
        root = thread.root
        self.threads[root.thread_id] = thread
        if thread.open:
            self._open_by_sender[root.from_agent].append(thread)
            if root.about_task:
                self._open_by_task.setdefault(root.about_task, []).append(thread)

    def open_meeting(self, meeting: Meeting) -> None:
        invite = meeting.invite
        self.meetings[invite.meeting_id] = meeting
        self.pending_meetings[invite.meeting_id] = meeting
        organizer = invite.from_agent
        self._organized[organizer] = self._organized[organizer] | {invite.about_task}

    def close_threads_about(self, task_id: str) -> None:
        for thread in self._open_by_task.pop(task_id, []):
            thread.close()

    def finish_plan(self) -> None:
        """Sort each agent's assignments once and pick its active task."""
        for agent_id, task_ids in self.assignments.items():
            task_ids.sort(key=order_key)
            # Made here, not on first read: a read may run in the parallel
            # decide, which must not add to the shared table.
            for task_id in task_ids:
                self.task_stats(agent_id, task_id)
            self._pick_active(agent_id)
        self._blocked = dict.fromkeys(self.agent_order)
        self.planned = True

    def _pick_active(self, agent_id: str) -> None:
        node = self.graph.node
        self.active_task_id[agent_id] = next(
            (task_id for task_id in self.assignments[agent_id]
             if node(task_id).status in WORKABLE), None)

    def record_work(self, agent_id: str, task_id: str,
                    hours: float) -> tuple[float, float, bool]:
        """Credit the agent's hours on a task at its current alignment.

        Returns the alignment, the effective hours credited, and whether the
        task finished. A finished task readies dependents, which changes what
        the holders of their dependencies see as blocked.
        """
        node = self.graph.node(task_id)
        af = self.alignment.get(agent_id, task_id)
        effective = effective_progress(hours, af)
        before = node.progress
        became_done = self.graph.record_work(task_id, effective)
        stats = self.task_stats(agent_id, task_id)
        stats.hours_worked += hours
        stats.stuck_worked_steps += 1
        after = node.progress
        for milestone in REPORT_MILESTONES:
            if before < milestone <= after and milestone not in stats.reported_milestones:
                stats.pending_milestone = milestone
                self._due[agent_id].add(task_id)
        if became_done:
            self._pick_active(node.assignee)
            for dependent in self.graph.dependents(task_id):
                if dependent.status is TaskStatus.READY:
                    self._pick_active(dependent.assignee)
                for d in dependent.dependencies:
                    self._blocked[self.graph.node(d).assignee] = None
        return af, effective, became_done

    def record_report(self, agent_id: str, task_id: str) -> None:
        """A sent progress update covers every milestone the task has reached."""
        stats = self.task_stats(agent_id, task_id)
        node = self.graph.node(task_id)
        for milestone in REPORT_MILESTONES:
            if milestone <= node.progress:
                stats.reported_milestones.add(milestone)
        stats.pending_milestone = None
        self._due[agent_id].discard(task_id)

    def apply_af(self, agent_id: str, task_id: str,
                 delta: float) -> tuple[float, float]:
        """Move an alignment by `delta`; a gain resets the stuck count.

        Returns the old and the new alignment.
        """
        old = self.alignment.get(agent_id, task_id)
        new = self.alignment.apply_delta(agent_id, task_id, delta)
        if delta > 0:
            self.task_stats(agent_id, task_id).stuck_worked_steps = 0
        return old, new

    # -- views used by policy context ---------------------------------------

    def assigned_tasks(self, agent_id: str) -> list[str]:
        return self.assignments[agent_id]

    def task_view(self, agent_id: str, task_id: str) -> TaskAssignmentView:
        """The agent's view of a task it holds, built from the task's node,
        the agent's alignment on it and its work on it."""
        node = self.graph.node(task_id)
        stats = self.stats[agent_id, task_id]
        # Fields by position, in TaskAssignmentView order.
        return _new_tuple(TaskAssignmentView, (
            task_id,
            node.description,
            node.estimated_hours,
            node.required_skills,
            self.alignment.get(agent_id, task_id),
            stats.hours_worked,
            stats.stuck_worked_steps,
            node.progress,
            stats.pending_milestone,
            node.status in WORKABLE,
            node.done,
        ))

    def task_views(self, agent_id: str) -> tuple[TaskAssignmentView, ...]:
        """The agent's view of every task it holds, in id order."""
        return tuple([self.task_view(agent_id, task_id)
                      for task_id in self.assignments[agent_id]])

    def active_view(self, agent_id: str) -> TaskAssignmentView | None:
        """The view of the agent's active task."""
        task_id = self.active_task_id[agent_id]
        return None if task_id is None else self.task_view(agent_id, task_id)

    def report_due_view(self, agent_id: str) -> TaskAssignmentView | None:
        """The view of the agent's first task, in id order, with a milestone
        to report."""
        due = self._due[agent_id]
        return self.task_view(agent_id, min(due, key=order_key)) if due else None

    def task_stats(self, agent_id: str, task_id: str) -> AgentTaskStats:
        stats = self.stats.get((agent_id, task_id))
        if stats is None:
            stats = self.stats[agent_id, task_id] = AgentTaskStats()
        return stats

    def is_busy(self, agent_id: str) -> bool:
        return agent_id in self.active

    def unanswered_inbound(self, agent_id: str) -> tuple[str, ...]:
        """Open request threads whose root reached this agent, oldest first."""
        entries = self._inbound_requests[agent_id]
        if not entries:
            return ()
        threads = self.threads
        entries[:] = [e for e in entries if threads[e[2]].open
                      and agent_id not in threads[e[2]].repliers]
        return tuple([thread_id for _, _, thread_id in entries])

    def open_outbound_tasks(self, agent_id: str) -> frozenset[str]:
        threads = self._open_by_sender[agent_id]
        if not threads:
            return frozenset()
        threads[:] = [t for t in threads if t.open]
        return frozenset({t.root.about_task for t in threads if t.root.about_task})

    def pending_invites(self, agent_id: str) -> list[tuple[int, str, str]]:
        """Delivered, unanswered meeting invites: (delivery, message_id, meeting)."""
        entries = self._invites[agent_id]
        if not entries:
            return []
        entries[:] = [e for e in entries
                      if self.meetings[e[2]].status is MeetingStatus.PENDING
                      and agent_id not in self.meetings[e[2]].attending]
        return list(entries)

    def has_unprocessed_invite(self, agent_id: str) -> bool:
        # An empty index, the common case, needs no call.
        return bool(self._invites[agent_id] and self.pending_invites(agent_id))

    def has_meeting_start(self, agent_id: str) -> bool:
        """A `MEETING_START` arrived since the agent last checked its inbox
        and found nothing to act on."""
        return agent_id in self._meeting_started

    def clear_meeting_start(self, agent_id: str) -> None:
        self._meeting_started.discard(agent_id)

    def blocked_collaborators(self, agent_id: str) -> dict[str, tuple[str, ...]]:
        """Per own task: assignees of pending sibling tasks that depend on it."""
        blocked = self._blocked[agent_id]
        if blocked is None:
            blocked = self._blocked[agent_id] = self._scan_blocked(agent_id)
        return blocked

    def _scan_blocked(self, agent_id: str) -> dict[str, tuple[str, ...]]:
        result: dict[str, tuple[str, ...]] = {}
        for task_id in self.assigned_tasks(agent_id):
            dependents = self.graph.dependents(task_id)
            if not dependents or self.graph.node(task_id).done:
                continue
            blocked = {
                dependent.assignee for dependent in dependents
                if dependent.status is TaskStatus.PENDING
                and dependent.assignee and dependent.assignee != agent_id
            }
            if blocked:
                result[task_id] = tuple(sorted(blocked, key=order_key))
        return result

    def organized_meeting_tasks(self, agent_id: str) -> frozenset[str | None]:
        return self._organized[agent_id]


class SimResult(NamedTuple):
    scenario: Scenario
    world: World
    trace: TraceSink
    completion_steps: dict[str, int | None]
    final_step: int
    completed: bool
    comm_cost_hours: float

    def completion_hours(self, root_id: str) -> float | None:
        boundary = self.completion_steps.get(root_id)
        if boundary is None:
            return None
        return boundary * self.world.clock.hours_per_step


class Simulation:
    """Drives one scenario to completion or the step cap."""

    def __init__(self, scenario: Scenario, policy: Policy | None = None,
                 planner=None, evaluator=None,
                 adapter: ChatCompletionAdapter | None = None,
                 max_steps: int | None = None,
                 parallel_decide: bool = False,
                 trace: TraceSink | None = None) -> None:
        """`scenario` must already be validated, as `parse_scenario` and
        `validate_scenario` return it; it is not checked again here. `trace`
        receives each event as it happens; by default a `TraceLog` keeps them
        all for `SimResult.trace`."""
        self.world = World(scenario, trace)
        if max_steps is not None:
            self.world.clock.max_steps = max_steps
        self.policy = policy or build_policy(scenario.policy_name, adapter)
        if planner is not None:
            self.planner = planner
        elif scenario.policy_name == "c2c_llm" and adapter is not None:
            self.planner = LlmPlanner(adapter)
        else:
            self.planner = EvenPlanner()
        self.evaluator = evaluator or build_evaluator(scenario.evaluator_name, adapter)
        self.parallel_decide = parallel_decide
        self._pool: ThreadPoolExecutor | None = None

    # -- public API ----------------------------------------------------------

    def run(self) -> SimResult:
        world = self.world
        try:
            while world.clock.step < world.clock.max_steps and not world.graph.all_roots_done():
                self.step()
        finally:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None
        for message in world.buffer.pending:
            world.emit({
                "step": world.clock.step, "seq": None, "kind": "warning",
                "source": "delivery",
                "detail": f"undelivered at run end: {message.message_id}",
            })
        completion: dict[str, int | None] = {
            root: world.completion_steps.get(root) for root in world.graph.roots
        }
        return SimResult(
            scenario=world.scenario,
            world=world,
            trace=world.trace,
            completion_steps=completion,
            final_step=world.clock.step,
            completed=world.graph.all_roots_done(),
            comm_cost_hours=world.comm_cost_total,
        )

    def step(self) -> None:
        world = self.world
        t = world.clock.step

        self._deliver_due(t)
        self._convene_meetings(t)

        idle = [a for a in world.agent_order if a not in world.active]
        # One team view serves every idle agent this step. It is built before
        # any intention is resolved, so its busy flags are the ones from
        # before this step's actions start, whenever a context is read. The
        # other fields read `World` state that resolving one agent's
        # intention does not change for another.
        team = team_views(world)
        contexts = {a: build_context(world, a, team) for a in idle}
        # Before the plan lands the manager's slot is the plan step, not a
        # policy decision.
        needs_policy = contexts if world.planned else {
            a: ctx for a, ctx in contexts.items() if a != world.manager_id
        }
        intentions = self._decide(needs_policy)
        for agent_id in idle:
            intention = intentions.get(agent_id) or DECOMPOSITION_PENDING
            for note in intention.warnings:
                world.emit({"step": t, "seq": None, "kind": "warning",
                            "source": "policy", "detail": note})
            self._resolve_intention(agent_id, contexts[agent_id], intention)

        self._execute_actions(t)
        self._apply_pending_af(t)
        world.clock.advance()

    # -- phases ---------------------------------------------------------------

    def _deliver_due(self, t: int) -> None:
        world = self.world
        for message in world.buffer.pop_due(t):
            for recipient in message.to_agents:
                world.deliver(message, recipient, t)
            if message.message_type is MessageType.RESPONSE:
                self._on_reply_delivered(message)

    def _on_reply_delivered(self, message: Message) -> None:
        """A delivered resolving reply queues an alignment evaluation."""
        world = self.world
        thread = world.threads[message.thread_id]
        if message.message_id != thread.resolver_id:
            return
        root = thread.root
        asker = root.from_agent
        task_id = root.about_task
        if task_id is None or asker not in message.to_agents:
            thread.close()
            return
        if not world.alignment.initialized(asker, task_id) or world.graph.node(task_id).done:
            thread.close()
            return
        world.pending_af.append(PendingAfEvaluation(
            agent_id=asker,
            task_id=task_id,
            cause_id=message.message_id,
            root_type=root.message_type,
            reply=message,
        ))

    def _convene_meetings(self, t: int) -> None:
        world = self.world
        for meeting in list(world.pending_meetings.values()):
            invite = meeting.invite
            if t < invite.sent_step + 2:
                continue
            expected = {invite.from_agent} | meeting.attending
            everyone_answered = meeting.attending >= set(invite.to_agents)
            grace_over = t >= invite.sent_step + RSVP_GRACE_STEPS
            if any(world.is_busy(a) for a in expected):
                continue
            if not (everyone_answered or grace_over):
                continue
            del world.pending_meetings[invite.meeting_id]
            if len(expected) >= 2:
                self._start_meeting(meeting, t)
            else:
                meeting.status = MeetingStatus.CANCELLED
                world.emit({
                    "step": t, "seq": None, "kind": "warning",
                    "source": "meeting",
                    "detail": f"{invite.meeting_id} cancelled: fewer than 2 attendees",
                })

    def _start_meeting(self, meeting: Meeting, t: int) -> None:
        world = self.world
        invite = meeting.invite
        attendees = tuple(sorted({invite.from_agent} | meeting.attending, key=order_key))
        cost = communication_cost(Channel.MEETING, 0, len(attendees))
        duration = max(1, hours_to_steps(cost, world.clock.hours_per_step))
        meeting.status = MeetingStatus.RUNNING
        meeting.attendees = attendees

        start = Message(
            message_id=world.next_message_id(),
            thread_id=world.next_thread_id(),
            from_agent=invite.from_agent,
            to_agents=attendees,
            channel=Channel.MEETING,
            message_type=MessageType.MEETING_START,
            content=f"Meeting {invite.meeting_id} starting now.",
            sent_step=t - 1,
            about_task=invite.about_task,
            meeting_id=invite.meeting_id,
            cost_hours=cost,
        )
        world.comm_cost_total += cost
        self._trace_sent(start, word_count(start.content), t)
        for recipient in attendees:
            world.deliver(start, recipient, t)
        for agent_id in attendees:
            world.active[agent_id] = ActiveAction(ActionKind.MEETING,
                                                  invite.meeting_id, duration)

    def _decide(self, contexts: dict[str, PolicyContext]) -> dict[str, Intention]:
        if not contexts:
            return {}
        if self.parallel_decide and len(contexts) > 1:
            if self._pool is None:
                # Imported here: only a parallel decide needs the thread pool,
                # so a deterministic run does not pay for loading it.
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(
                    max_workers=min(8, len(self.world.agent_order)))
            order = list(contexts)
            results = list(self._pool.map(self.policy.decide,
                                          [contexts[a] for a in order]))
            return dict(zip(order, results))
        return {a: self.policy.decide(ctx) for a, ctx in contexts.items()}

    # -- intention resolution --------------------------------------------------

    def _resolve_intention(self, agent_id: str, context: PolicyContext,
                           intention: Intention) -> None:
        """Start the agent's action. A context field is read only where the
        intention needs it, so a plain CONTINUE_TASK reads none and goes
        straight to work."""
        world = self.world
        kind = intention.kind

        if not world.planned and agent_id == world.manager_id:
            world.active[agent_id] = ActiveAction(ActionKind.PLAN, "plan", 1)
            return

        if kind is not IntentionKind.CONTINUE_TASK:
            if kind is IntentionKind.CHECK_MESSAGES:
                started = self._start_check_messages(agent_id)
            elif kind is IntentionKind.SCHEDULE_MEETING:
                started = self._start_meeting_scheduling(agent_id, context, intention)
            else:  # REQUEST_HELP, NEED_CLARIFICATION or REPORT_PROGRESS
                started = self._start_communication(agent_id, context, intention, kind)
            if started:
                return

        # CONTINUE_TASK and every degraded intention end up here.
        task_id = world.active_task_id[agent_id]
        if task_id is not None:
            world.active[agent_id] = ActiveAction(ActionKind.WORK, task_id, 1)
        else:
            world.active[agent_id] = ActiveAction(ActionKind.IDLE, None, 1)

    def _start_check_messages(self, agent_id: str) -> bool:
        """Oldest actionable inbox item: an invite to accept or a thread to answer."""
        world = self.world
        items: list[tuple[int, str, ActionKind, str]] = []
        for delivery, message_id, meeting_id in world.pending_invites(agent_id):
            items.append((delivery, message_id, ActionKind.RSVP, meeting_id))
        for thread_id in world.unanswered_inbound(agent_id):
            root = world.threads[thread_id].root
            items.append((root.sent_step + 1, root.message_id, ActionKind.REPLY, thread_id))
        if not items:
            # The meeting start has been read: it no longer sends the agent
            # back to its inbox.
            world.clear_meeting_start(agent_id)
            return False
        items.sort()
        _, _, kind, target = items[0]
        if kind is ActionKind.RSVP:
            world.active[agent_id] = ActiveAction(kind, target, 1)
            return True
        root = world.threads[target].root
        content = compose_reply(root.about_task, root.message_type, world.agents[agent_id])
        words = word_count(content)
        channel = reply_channel(words)
        recipients = tuple(sorted(
            ({root.from_agent} | set(root.to_agents)) - {agent_id}, key=order_key,
        ))
        cost = communication_cost(channel, words, max(1, len(recipients)))
        duration = max(1, hours_to_steps(cost, world.clock.hours_per_step))
        world.active[agent_id] = ActiveAction(kind, target, duration, Outgoing(
            MessageType.RESPONSE, content, words, recipients, channel,
            root.about_task, cost))
        return True

    def _hinted_view(self, agent_id: str,
                     intention: Intention) -> TaskAssignmentView | None:
        """The agent's view of the task the intention names, if it holds it."""
        node = self.world.graph.nodes.get(intention.task_hint)
        if node is None or node.assignee != agent_id:
            return None
        return self.world.task_view(agent_id, node.task_id)

    def _start_communication(self, agent_id: str, context: PolicyContext,
                             intention: Intention, kind: IntentionKind) -> bool:
        world = self.world
        view = self._hinted_view(agent_id, intention) or context.active_task
        if view is None:
            return False
        content = compose_message(context, kind, view)
        recipients = select_recipients(context, kind, view)
        if not recipients:
            return False
        words = word_count(content)
        channel = select_channel(kind, words)
        cost = communication_cost(channel, words, max(1, len(recipients)))
        duration = max(1, hours_to_steps(cost, world.clock.hours_per_step))
        world.active[agent_id] = ActiveAction(
            ActionKind.COMMUNICATE, view.task_id, duration, Outgoing(
                INTENTION_MESSAGE_TYPES[kind], content, words, tuple(recipients), channel,
                view.task_id, cost))
        return True

    def _start_meeting_scheduling(self, agent_id: str, context: PolicyContext,
                                  intention: Intention) -> bool:
        world = self.world
        view = self._hinted_view(agent_id, intention)
        if view is None:
            return False
        recipients = select_recipients(context, IntentionKind.SCHEDULE_MEETING, view)
        if not recipients:
            return False
        content = compose_message(context, IntentionKind.SCHEDULE_MEETING, view)
        world.active[agent_id] = ActiveAction(
            ActionKind.COMMUNICATE, view.task_id, 1, Outgoing(
                MessageType.MEETING_INVITE, content, word_count(content),
                tuple(recipients), Channel.MEETING, view.task_id, 0.0))
        return True

    # -- execution ---------------------------------------------------------------

    def _execute_actions(self, t: int) -> None:
        world = self.world
        finished: list[str] = []
        for agent_id in world.agent_order:
            action = world.active.get(agent_id)
            if action is None:
                continue
            action.remaining -= 1
            world.emit({
                "step": t, "seq": None, "kind": "action",
                "agent": agent_id,
                "action": ACTION_NAMES[action.kind],
                "target": action.target,
                "remaining": action.remaining,
            })
            # Work, plan and idle actions last one step; the others act on
            # their last.
            kind = action.kind
            if kind is ActionKind.WORK:
                self._execute_work(agent_id, action.target, t)
                world.last_actions[agent_id] = _new_tuple(LastAction, ("work", None, t))
            elif kind is ActionKind.PLAN:
                self._execute_plan(t)
                world.last_actions[agent_id] = _new_tuple(LastAction, ("work", None, t))
            elif kind is ActionKind.IDLE:
                world.last_actions[agent_id] = _new_tuple(LastAction, ("idle", None, t))
            elif action.remaining > 0:
                continue
            elif kind is ActionKind.COMMUNICATE:
                self._complete_send(agent_id, action.outgoing, t)
            elif kind is ActionKind.REPLY:
                self._complete_reply(agent_id, action.target, action.outgoing, t)
            elif kind is ActionKind.RSVP:
                self._complete_rsvp(agent_id, action.target, t)
            else:
                self._complete_meeting_attendance(agent_id, action.target, t)
            finished.append(agent_id)
        for agent_id in finished:
            del world.active[agent_id]

    def _execute_plan(self, t: int) -> None:
        """The manager's step-0 slot: decompose every root and hand out work."""
        world = self.world
        for root_id in list(world.graph.roots):
            node = world.graph.node(root_id)
            plan = self.planner.decompose(node, world.scenario)
            for note in plan.warnings:
                world.emit({"step": t, "seq": None, "kind": "warning",
                            "source": "planner", "detail": note})
            created = world.graph.add_subtasks(root_id, list(plan.subtasks))
            assignment = assign(world.graph, [n.task_id for n in created],
                                world.scenario.team)
            for worker_id, task_ids in assignment.items():
                for task_id in task_ids:
                    world.assignments[worker_id].append(task_id)
                    af = world.alignment.init(worker_id, task_id)
                    world.emit({
                        "step": t, "seq": None, "kind": "af_update",
                        "agent": worker_id,
                        "task": task_id,
                        "old": None,
                        "delta": None,
                        "new": af,
                        "cause": "init",
                    })
        world.finish_plan()

    def _execute_work(self, agent_id: str, task_id: str, t: int) -> None:
        world = self.world
        node = world.graph.node(task_id)
        if node.done:
            return
        hours = world.clock.hours_per_step
        af, effective, became_done = world.record_work(agent_id, task_id, hours)
        world.emit({
            "step": t, "seq": None, "kind": "progress",
            "agent": agent_id,
            "task": task_id,
            "hours": hours,
            "effective": effective,
            "af": af,
            "progress": node.progress,
        })
        if became_done:
            self._on_task_done(task_id, t)

    def _on_task_done(self, task_id: str, t: int) -> None:
        world = self.world
        world.emit({
            "step": t, "seq": None, "kind": "task_done",
            "task": task_id, "root": False, "boundary": t + 1,
        })
        world.close_threads_about(task_id)
        # Only the finished task's own root can have finished with it.
        root = world.graph.node(task_id)
        while root.parent_id is not None:
            root = world.graph.node(root.parent_id)
        if root.done and root.task_id not in world.completion_steps:
            world.completion_steps[root.task_id] = t + 1
            world.emit({
                "step": t, "seq": None, "kind": "task_done",
                "task": root.task_id, "root": True, "boundary": t + 1,
            })

    def _post(self, agent_id: str, outgoing: Outgoing, thread_id: str,
              meeting_id: str | None, t: int) -> Message:
        """Queue a composed message for next-step delivery and trace it."""
        world = self.world
        message = Message(
            message_id=world.next_message_id(),
            thread_id=thread_id,
            from_agent=agent_id,
            to_agents=outgoing.recipients,
            channel=outgoing.channel,
            message_type=outgoing.message_type,
            content=outgoing.content,
            sent_step=t,
            about_task=outgoing.about_task,
            meeting_id=meeting_id,
            cost_hours=outgoing.cost,
        )
        world.comm_cost_total += outgoing.cost
        self._trace_sent(message, outgoing.words, t)
        world.buffer.enqueue(message, t)
        world.last_actions[agent_id] = _new_tuple(LastAction, (
            "message_sent", TYPE_NAMES[outgoing.message_type], t))
        return message

    def _complete_send(self, agent_id: str, outgoing: Outgoing, t: int) -> None:
        """Open a thread, and for an invite a meeting, with this message."""
        world = self.world
        message_type = outgoing.message_type
        meeting_id = None
        if message_type is MessageType.MEETING_INVITE:
            meeting_id = world.next_meeting_id()
        message = self._post(agent_id, outgoing, world.next_thread_id(), meeting_id, t)
        world.open_thread(Thread(message, open=message_type in REQUEST_TYPES))
        if meeting_id is not None:
            world.open_meeting(Meeting(message))
        if message_type is MessageType.PROGRESS_UPDATE and outgoing.about_task:
            world.record_report(agent_id, outgoing.about_task)

    def _complete_reply(self, agent_id: str, thread_id: str, outgoing: Outgoing,
                        t: int) -> None:
        world = self.world
        thread = world.threads[thread_id]
        if not thread.open:
            # Request became moot (task finished or thread closed) mid-compose.
            world.last_actions[agent_id] = _new_tuple(LastAction, ("reply_dropped", None, t))
            world.emit({
                "step": t, "seq": None, "kind": "warning",
                "source": "reply",
                "detail": f"reply dropped, thread closed: {thread_id}",
            })
            return
        thread.register_reply(self._post(agent_id, outgoing, thread_id, None, t))

    def _complete_rsvp(self, agent_id: str, meeting_id: str, t: int) -> None:
        self.world.meetings[meeting_id].attending.add(agent_id)
        self.world.last_actions[agent_id] = _new_tuple(LastAction, ("rsvp", None, t))

    def _complete_meeting_attendance(self, agent_id: str, meeting_id: str,
                                     t: int) -> None:
        world = self.world
        meeting = world.meetings[meeting_id]
        world.last_actions[agent_id] = _new_tuple(LastAction, ("meeting", None, t))
        if meeting.status is not MeetingStatus.RUNNING:
            return
        # All attendees finish on the same step; the first one processed here
        # marks the meeting held and queues the alignment gains.
        meeting.status = MeetingStatus.HELD
        for attendee in meeting.attendees:
            target = self._meeting_gain_task(attendee, meeting)
            if target is not None:
                world.pending_af.append(PendingAfEvaluation(
                    agent_id=attendee,
                    task_id=target,
                    cause_id=meeting.invite.meeting_id,
                    root_type=MessageType.MEETING_INVITE,
                ))

    def _meeting_gain_task(self, agent_id: str, meeting: Meeting) -> str | None:
        """The attendee's task the meeting topic bears on, if any."""
        world = self.world
        about = meeting.invite.about_task
        if about is None:
            return None
        for task_id in world.assigned_tasks(agent_id):
            node = world.graph.node(task_id)
            if node.done:
                continue
            if task_id == about or about in node.dependencies:
                if world.alignment.initialized(agent_id, task_id):
                    return task_id
        return None

    def _apply_pending_af(self, t: int) -> None:
        world = self.world
        pending = sorted(world.pending_af,
                         key=lambda p: (order_key(p.agent_id), p.cause_id))
        world.pending_af = []
        for item in pending:
            if item.reply is not None:
                world.threads[item.reply.thread_id].close()
            if world.graph.node(item.task_id).done:
                continue
            delta, warning = self.evaluator.evaluate(world, item)
            if warning:
                world.emit({
                    "step": t, "seq": None, "kind": "warning",
                    "source": "evaluator", "detail": warning,
                })
            old, new = world.apply_af(item.agent_id, item.task_id, delta)
            world.emit({
                "step": t, "seq": None, "kind": "af_update",
                "agent": item.agent_id,
                "task": item.task_id,
                "old": old,
                "delta": delta,
                "new": new,
                "cause": item.cause_id,
            })

    def _trace_sent(self, message: Message, words: int, t: int) -> None:
        """`words` is the word count of the message's content."""
        self.world.emit({
            "step": t, "seq": None, "kind": "message_sent",
            "message_id": message.message_id,
            "thread_id": message.thread_id,
            "from": message.from_agent,
            "to": list(message.to_agents),
            "channel": CHANNEL_NAMES[message.channel],
            "type": TYPE_NAMES[message.message_type],
            "about_task": message.about_task,
            "words": words,
            "cost_h": message.cost_hours,
            "sent_step": message.sent_step,
        })


def run_scenario(scenario: Scenario, adapter: ChatCompletionAdapter | None = None,
                 max_steps: int | None = None,
                 parallel_decide: bool = False) -> SimResult:
    """Convenience wrapper: build a simulation from the scenario and run it.

    `scenario` must already be validated, as for `Simulation`."""
    return Simulation(scenario, adapter=adapter, max_steps=max_steps,
                      parallel_decide=parallel_decide).run()
