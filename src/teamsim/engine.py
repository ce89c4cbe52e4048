"""The synchronized timestep engine.

Each step runs a fixed phase order: deliver due messages, convene due
meetings, decide each idle agent's intention and resolve it into an action,
in agent order, execute one step of every active action, apply queued
alignment deltas, then hand the step's events to the trace sink as one
batch. A message sent while actions execute goes straight into the buffer,
which delivers it next step. Reordering any phase breaks the
reproducibility guarantees, so all mutation happens here.

Every agent contributes exactly one action-step per step: work, communication
progress, meeting attendance, or an explicit idle transition.
"""

from __future__ import annotations

from bisect import insort
from enum import Enum
from functools import cache
from itertools import count
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .alignment import AlignmentState, rule_based_delta
from .comms import (CHANNEL_NAMES, Channel, CommBuffer, Meeting, MeetingStatus,
                    Message, MessageType, REQUEST_TYPES, TYPE_NAMES, Thread,
                    communication_cost)
from .model import (HOURS_PER_STEP, AgentProfile, Scenario, SimClock, _new_tuple,
                    hours_to_steps, order_key)
from .planner import EvenPlanner, assign
from .policy import (CONTINUE, MEETING_START, Intention, IntentionKind, LastAction,
                     Policy, PolicyContext, TaskAssignmentView,
                     build_context, build_policy, compose_message, compose_reply,
                     message_words, reply_channel, reply_words, select_channel,
                     select_recipients)
from .taskgraph import REPORT_MILESTONES, TaskGraph, TaskNode, TaskStatus
from .trace import TraceLog, TraceSink

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

    from .adapter import ChatCompletionAdapter

# An invited agent that has not accepted within this many steps of the invite
# being sent no longer delays the meeting; it convenes or cancels without them.
RSVP_GRACE_STEPS = 6

# About how many event records the engine hands its trace sink at once: a
# step's records go in one batch, and a step that has queued this many hands
# them on before the next agent's action runs.
TRACE_BATCH = 64

# A task's status while its holder can work on it.
WORKABLE = (TaskStatus.READY, TaskStatus.IN_PROGRESS)

# The message each communicating intention sends.
INTENTION_MESSAGE_TYPES = {
    IntentionKind.REQUEST_HELP: MessageType.HELP_REQUEST,
    IntentionKind.NEED_CLARIFICATION: MessageType.NEED_CLARIFICATION,
    IntentionKind.REPORT_PROGRESS: MessageType.PROGRESS_UPDATE,
}


@cache
def message_price(kind: IntentionKind | None, words: int,
                  recipients: int) -> tuple[Channel, float, int]:
    """A message's channel, cost in hours and duration in whole steps (at
    least one): of the message an intention of `kind` sends to `recipients`
    agents, or, with `kind` None, of a reply. A pure function of its
    arguments, so each one is priced once; the cost model stays in
    `select_channel`, `reply_channel`, `communication_cost` and
    `hours_to_steps`."""
    channel = reply_channel(words) if kind is None else select_channel(kind, words)
    cost = communication_cost(channel, words, recipients)
    return channel, cost, max(1, hours_to_steps(cost))


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
    # The text, composed only for an evaluator that reads it; else None.
    content: str | None
    words: int  # the composed text's word count
    recipients: tuple[str, ...]
    channel: Channel
    about_task: str | None
    cost: float


class ActiveAction(NamedTuple):
    """An agent's action in flight. Immutable and built by position: the
    idle and plan actions are each one shared value, and a multi-step
    action's countdown replaces its entry."""

    kind: ActionKind
    target: str | None
    remaining: int  # steps left, this one included
    # What a COMMUNICATE or REPLY action sends when it completes.
    outgoing: Outgoing | None


IDLE_ACTION = ActiveAction(ActionKind.IDLE, None, 1, None)
PLAN_ACTION = ActiveAction(ActionKind.PLAN, "plan", 1, None)


class AgentTaskStats:
    __slots__ = ("hours_worked", "stuck_worked_steps", "pending_milestone")

    def __init__(self) -> None:
        self.hours_worked = 0.0
        self.stuck_worked_steps = 0
        self.pending_milestone: float | None = None


class PendingAfEvaluation(NamedTuple):
    agent_id: str
    task_id: str
    cause_id: str
    root_type: MessageType
    # The delivered reply that resolved a request thread; None for a meeting.
    reply: Message | None


class RuleBasedEvaluator:
    name = "rule_based"
    # Whether `evaluate` reads message text, which is composed only then.
    reads_text = False

    def evaluate(self, world: "World", pending: PendingAfEvaluation
                 ) -> tuple[float, str | None]:
        """The alignment delta, and a warning if there is one."""
        return rule_based_delta(pending.root_type), None


def build_evaluator(name: str, adapter: ChatCompletionAdapter | None = None):
    if name == "rule_based":
        return RuleBasedEvaluator()
    if name == "llm":
        if adapter is None:
            raise ValueError("llm evaluator requires an adapter")
        from .llm import LlmEvaluator

        return LlmEvaluator(adapter)
    raise ValueError(f"unknown evaluator: {name}")


class World:
    """All mutable run state; mutated only by the step driver.

    It keeps indexes, updated by the methods that change the state, so that
    no query rescans history. The one exception is the work step, which the
    step driver runs in its own frame: it credits the task itself, through
    `TaskGraph.reach` only at the node's mark, and updates `stats` and `due`
    itself, then calls `finish_task` when the task finished. The per-agent tables the deterministic
    policies read are public, and read-only outside this module: `invites`,
    `inbound_requests`, `meeting_started`, `active_task_id`,
    `alignment.values`, `stats`, `organized`, `due`, `outbound` and
    `blocked`. An inbox list may hold stale entries, and a stale `outbound`
    or `blocked` entry is None: a reader calls the query that filters or
    rebuilds it (`pending_invites`, `unanswered_inbound` or
    `oldest_unanswered`, `open_outbound_tasks`, `blocked_collaborators`),
    which writes only the reader's own entries. `task_view` builds a view at each call.
    """

    def __init__(self, scenario: Scenario, trace: TraceSink | None = None) -> None:
        self.scenario = scenario
        self.clock = SimClock()
        ordered = sorted(scenario.team, key=lambda a: order_key(a.agent_id))
        self.agents: dict[str, AgentProfile] = {}
        self.manager_id = scenario.manager.agent_id
        # Each agent's subtasks in id order, as `place` hands them out.
        self.assignments: dict[str, list[str]] = {}
        # Inbox indexes, filled on delivery. Entries are (delivery step,
        # message id, thread or meeting id) kept in that sort order, because
        # delivery order within a step is not message-id order. An entry whose
        # thread closed or was answered, or whose invite was answered, never
        # becomes actionable again and is dropped when next read.
        self.inbound_requests: dict[str, list[tuple[int, str, str]]] = {}
        self.invites: dict[str, list[tuple[int, str, str]]] = {}
        # Request threads opened, by root sender; closed ones are dropped when
        # the sender's open-request set is next rebuilt.
        self._open_by_sender: dict[str, list[Thread]] = {}
        # Each agent's tasks with a milestone to report: those whose stats
        # hold a `pending_milestone`.
        self.due: dict[str, set[str]] = {}
        # The per-agent tables above, filled in one pass over the agents.
        agents, assignments, inbound, invites, by_sender, due = (
            self.agents, self.assignments, self.inbound_requests, self.invites,
            self._open_by_sender, self.due)
        for profile in ordered:
            agent_id = profile.agent_id
            agents[agent_id] = profile
            assignments[agent_id] = []
            inbound[agent_id] = []
            invites[agent_id] = []
            by_sender[agent_id] = []
            due[agent_id] = set()
        self.agent_order: list[str] = list(agents)

        self.graph = TaskGraph()
        for i, task in enumerate(scenario.tasks):
            self.graph.add_root(f"T{i + 1}", task.description,
                                task.estimated_hours, task.required_skills)

        self.alignment = AlignmentState()
        self.buffer = CommBuffer()
        # Messages delivered to each agent so far, by type name; kept only
        # for a policy that `reads_deliveries`, else None.
        self.delivered: dict[str, dict[str, int]] | None = None
        # Request threads by id; an invite is reachable through its meeting.
        self.threads: dict[str, Thread] = {}
        self.meetings: dict[str, Meeting] = {}
        # Meetings still waiting to convene, in id order.
        self.pending_meetings: dict[str, Meeting] = {}
        self.active: dict[str, ActiveAction] = {}
        self.stats: dict[tuple[str, str], AgentTaskStats] = {}
        self.last_actions: dict[str, LastAction] = {}
        self.pending_af: list[PendingAfEvaluation] = []
        self.trace: TraceSink = TraceLog() if trace is None else trace
        self._seq = count()
        # The event records emitted since the last `flush`, in trace order.
        self.pending_events: list[dict] = []
        self.comm_cost_total = 0.0
        self.completion_steps: dict[str, int] = {}
        self.planned = False
        # The tasks each agent has called a meeting about; replaced, not
        # mutated, so a reader can share it.
        self.organized: dict[str, frozenset[str | None]] = dict.fromkeys(
            self.agent_order, frozenset())
        # The agents a `MEETING_START` reached since they last checked their
        # inbox and found nothing to act on.
        self.meeting_started: set[str] = set()
        # The tasks of each agent's open request threads; None until the next
        # read rebuilds it, after a thread the agent opened opens or closes.
        # One entry per agent, so that a read inside the parallel decide
        # touches only the deciding agent's entry.
        self.outbound: dict[str, frozenset[str] | None] = dict.fromkeys(
            self.agent_order, frozenset())
        # Open request threads by task, closed when the task finishes.
        self._open_by_task: dict[str, list[Thread]] = {}
        # Each agent's active task: the first ready one it holds, which
        # CONTINUE_TASK works on, and its work action (IDLE_ACTION without one).
        # Re-picked only when readiness can change: when the plan lands, a held
        # task finishes or a dependent of a finished task becomes ready.
        self.active_task_id: dict[str, str | None] = dict.fromkeys(self.agent_order)
        self.work_action: dict[str, ActiveAction] = dict.fromkeys(
            self.agent_order, IDLE_ACTION)
        # Each agent's blocked-collaborator map; None until the next read
        # recomputes it. One entry per agent, so that a read inside the
        # parallel decide touches only the deciding agent's entry.
        self.blocked: dict[str, dict[str, tuple[str, ...]] | None] = dict.fromkeys(
            self.agent_order, {})
        # Id factories: `next()` gives m00001, m00002, ...
        self.message_ids = map("m{:05d}".format, count(1))
        self.thread_ids = map("th{:04d}".format, count(1))
        self.meeting_ids = map("mt{:03d}".format, count(1))

    def emit(self, record: dict) -> None:
        """Stamp an event record with its `seq` and queue it for the trace.

        `record` is the event's one representation, its trace line's object:
        `step`, `seq` (None until stamped here) and `kind`, then the fields
        `trace.SCHEMAS` lists for the kind, in that order. The records of
        the hot paths skip this call: the action loop's `action` and
        `progress`, a send's `message_sent` and `deliver`'s
        `message_delivered` take their `seq` from `_seq` and go straight
        onto `pending_events`, in the same form.
        """
        record["seq"] = next(self._seq)
        self.pending_events.append(record)

    def flush(self) -> None:
        """Hand the records emitted since the last flush to the trace as one
        batch."""
        records = self.pending_events
        if records:
            self.pending_events = []
            self.trace.extend(records)

    # -- state changes that keep the indexes current --------------------------

    def deliver(self, message: Message, recipient: str, t: int) -> None:
        """Index a message delivered to one agent, and count it if deliveries
        are kept, then append its `message_delivered` record, `seq` stamped,
        to the step's batch."""
        kind = message.message_type
        name = TYPE_NAMES[kind]
        if self.delivered is not None:
            counts = self.delivered[recipient]
            counts[name] = counts.get(name, 0) + 1
        if kind in REQUEST_TYPES and message.from_agent != recipient:
            insort(self.inbound_requests[recipient],
                   (t, message.message_id, message.thread_id))
        elif kind is MessageType.MEETING_INVITE:
            insort(self.invites[recipient], (t, message.message_id, message.meeting_id))
        elif kind is MessageType.MEETING_START:
            self.meeting_started.add(recipient)
        self.pending_events.append({
            "step": t, "seq": next(self._seq), "kind": "message_delivered",
            "message_id": message.message_id,
            "to": recipient,
            "from": message.from_agent,
            "type": name,
            "thread_id": message.thread_id,
        })

    def open_thread(self, thread: Thread) -> None:
        root = thread.root
        self.threads[root.thread_id] = thread
        self._open_by_sender[root.from_agent].append(thread)
        self.outbound[root.from_agent] = None
        self._open_by_task.setdefault(root.about_task, []).append(thread)

    def open_meeting(self, meeting: Meeting) -> None:
        invite = meeting.invite
        self.meetings[invite.meeting_id] = meeting
        self.pending_meetings[invite.meeting_id] = meeting
        organizer = invite.from_agent
        self.organized[organizer] = self.organized[organizer] | {invite.about_task}

    def close_thread(self, thread: Thread) -> None:
        """Close a thread: every close passes here, so the sender's
        open-request set is rebuilt."""
        thread.open = False
        self.outbound[thread.root.from_agent] = None

    def close_threads_about(self, task_id: str) -> None:
        for thread in self._open_by_task.pop(task_id, []):
            self.close_thread(thread)

    def place(self, assignment: dict[str, list[str]], t: int) -> None:
        """Hand each worker the subtasks `assign` placed on it, in id order:
        an initial alignment, stats and an `init` alignment event each. A
        worker without an active task takes its first ready one. The plan
        places its roots in id order, so each agent's assignments stay in id
        order, and no task becomes ready or done while it lands."""
        assignments, init, stats = self.assignments, self.alignment.init, self.stats
        seq, append = self._seq, self.pending_events.append
        active = self.active_task_id
        for worker_id, task_ids in assignment.items():
            assignments[worker_id].extend(task_ids)
            for task_id in task_ids:
                # Made here, not on first read: a read may run in the parallel
                # decide, which must not add to the shared table.
                stats[worker_id, task_id] = AgentTaskStats()
                append({"step": t, "seq": next(seq), "kind": "af_update",
                        "agent": worker_id, "task": task_id, "old": None,
                        "delta": None, "new": init(worker_id, task_id),
                        "cause": "init"})
            if active[worker_id] is None:
                self._pick_active(worker_id)

    def _pick_active(self, agent_id: str) -> None:
        nodes = self.graph.nodes
        for task_id in self.assignments[agent_id]:
            if nodes[task_id].status in WORKABLE:
                self.active_task_id[agent_id] = task_id
                self.work_action[agent_id] = _new_tuple(
                    ActiveAction, (ActionKind.WORK, task_id, 1, None))
                return
        self.active_task_id[agent_id] = None
        self.work_action[agent_id] = IDLE_ACTION

    def finish_task(self, node: TaskNode) -> None:
        """Re-pick what a finished task changes: its holder's active task, and
        the active task of each dependent's holder it readied. The holders of
        each dependent's dependencies see a changed blocked map."""
        self._pick_active(node.assignee)
        for dependent in self.graph.dependents(node.task_id):
            if dependent.status is TaskStatus.READY:
                self._pick_active(dependent.assignee)
            for d in dependent.dependencies:
                self.blocked[self.graph.node(d).assignee] = None

    def record_report(self, agent_id: str, task_id: str) -> None:
        """A sent progress update covers every milestone the task has reached."""
        self.stats[agent_id, task_id].pending_milestone = None
        self.due[agent_id].discard(task_id)

    def apply_af(self, agent_id: str, task_id: str,
                 delta: float) -> tuple[float, float]:
        """Move an alignment by `delta`; a gain resets the stuck count.

        Returns the old and the new alignment.
        """
        old = self.alignment.get(agent_id, task_id)
        new = self.alignment.apply_delta(agent_id, task_id, delta)
        if delta > 0:
            self.stats[agent_id, task_id].stuck_worked_steps = 0
        return old, new

    # -- queries and views ----------------------------------------------------

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
            node.progress,
            node.done,
        ))

    def unanswered_inbound(self, agent_id: str) -> tuple[str, ...]:
        """Open request threads whose root reached this agent, oldest first."""
        entries = self.inbound_requests[agent_id]
        if not entries:
            return ()
        threads = self.threads
        entries[:] = [e for e in entries if threads[e[2]].open
                      and not threads[e[2]].answered]
        return tuple([thread_id for _, _, thread_id in entries])

    def oldest_unanswered(self, agent_id: str) -> tuple[int, str, str] | None:
        """The inbox entry of the first thread `unanswered_inbound` gives, or
        None; only the stale entries ahead of it are dropped."""
        entries = self.inbound_requests[agent_id]
        threads = self.threads
        while entries:
            thread = threads[entries[0][2]]
            if thread.open and not thread.answered:
                return entries[0]
            del entries[0]
        return None

    def open_outbound_tasks(self, agent_id: str) -> frozenset[str]:
        """The tasks of the agent's open request threads."""
        tasks = self.outbound[agent_id]
        if tasks is None:
            threads = self._open_by_sender[agent_id]
            threads[:] = [t for t in threads if t.open]
            tasks = self.outbound[agent_id] = frozenset(
                {t.root.about_task for t in threads})
        return tasks

    def pending_invites(self, agent_id: str) -> list[tuple[int, str, str]]:
        """Delivered, unanswered meeting invites: (delivery, message_id, meeting)."""
        entries = self.invites[agent_id]
        if not entries:
            return []
        entries[:] = [e for e in entries
                      if self.meetings[e[2]].status is MeetingStatus.PENDING
                      and agent_id not in self.meetings[e[2]].attending]
        return list(entries)

    def has_unprocessed_invite(self, agent_id: str) -> bool:
        # An empty index, the common case, needs no call.
        return bool(self.invites[agent_id] and self.pending_invites(agent_id))

    def clear_meeting_start(self, agent_id: str) -> None:
        self.meeting_started.discard(agent_id)

    def blocked_collaborators(self, agent_id: str) -> dict[str, tuple[str, ...]]:
        """Per own task: assignees of pending sibling tasks that depend on it."""
        blocked = self.blocked[agent_id]
        if blocked is None:
            blocked = self.blocked[agent_id] = self._scan_blocked(agent_id)
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
        return boundary * HOURS_PER_STEP


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
        if self.policy.reads_deliveries:
            self.world.delivered = {agent_id: {} for agent_id in self.world.agent_order}
        if planner is not None:
            self.planner = planner
        elif scenario.policy_name == "c2c_llm" and adapter is not None:
            from .llm import LlmPlanner

            self.planner = LlmPlanner(adapter)
        else:
            self.planner = EvenPlanner()
        self.evaluator = evaluator or build_evaluator(scenario.evaluator_name, adapter)
        # A request's text and its reply's are composed only for an evaluator
        # that reads them; every other message carries its word count alone.
        self.composes_text = self.evaluator.reads_text
        self.parallel_decide = parallel_decide
        self._pool: ThreadPoolExecutor | None = None

    # -- public API ----------------------------------------------------------

    def run(self) -> SimResult:
        """Step to completion or the step cap. Every event emitted reaches the
        trace, also when a step raises: the last batch is handed on as the
        run ends."""
        world = self.world
        try:
            while world.clock.step < world.clock.max_steps and not world.graph.all_roots_done():
                self.step()
            for message in world.buffer.pending:
                world.emit({
                    "step": world.clock.step, "seq": None, "kind": "warning",
                    "source": "delivery",
                    "detail": f"undelivered at run end: {message.message_id}",
                })
        finally:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None
            world.flush()
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

        active, work_action = world.active, world.work_action
        idle = [a for a in world.agent_order if a not in active]
        # One busy set serves every idle agent this step. It is taken before
        # any intention is resolved, so it holds the agents busy before this
        # step's actions start, whenever a context is read.
        busy = frozenset(active)
        if not world.planned:
            # Before the plan lands the manager's slot is the plan step, not a
            # policy decision.
            idle.remove(world.manager_id)
            active[world.manager_id] = PLAN_ACTION
        contexts = [build_context(world, a, busy) for a in idle]
        # A serial decide runs right before its own agent's resolve. That is
        # safe: a resolve writes only its own agent's entries (`active`, its
        # inbox lists' filters, its blocked map, `meeting_started`), and a
        # decide reads the busy set taken above, not `active`. So each agent
        # decides as it would had every agent decided first.
        for agent_id, context, intention in zip(idle, contexts, self._decide(contexts)):
            if intention is not CONTINUE:
                for note in intention.warnings:
                    world.emit({"step": t, "seq": None, "kind": "warning",
                                "source": "policy", "detail": note})
                if self._start_action(agent_id, context, intention):
                    continue
            # CONTINUE_TASK and every degraded intention end up here.
            active[agent_id] = work_action[agent_id]

        self._execute_actions(t)
        self._apply_pending_af(t)
        world.flush()
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
        """A delivered reply queues an alignment evaluation for the asker,
        unless the task it asked about has finished."""
        world = self.world
        thread = world.threads[message.thread_id]
        root = thread.root
        if world.graph.node(root.about_task).done:
            world.close_thread(thread)
            return
        world.pending_af.append(_new_tuple(PendingAfEvaluation, (
            root.from_agent, root.about_task, message.message_id, root.message_type,
            message)))

    def _convene_meetings(self, t: int) -> None:
        world = self.world
        for meeting in list(world.pending_meetings.values()):
            invite = meeting.invite
            if t < invite.sent_step + 2:
                continue
            expected = {invite.from_agent} | meeting.attending
            everyone_answered = meeting.attending >= set(invite.to_agents)
            grace_over = t >= invite.sent_step + RSVP_GRACE_STEPS
            if any(a in world.active for a in expected):
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
        channel, cost, duration = message_price(IntentionKind.SCHEDULE_MEETING, 0,
                                                len(attendees))
        meeting.status = MeetingStatus.RUNNING
        meeting.attendees = attendees

        # Fields by position, in `Message` order; sent the step before.
        start = Message(next(world.message_ids), next(world.thread_ids), invite.from_agent,
                        attendees, channel, MessageType.MEETING_START, None, t - 1,
                        invite.about_task, invite.meeting_id, cost)
        world.comm_cost_total += cost
        world.pending_events.append({
            "step": t, "seq": next(world._seq), "kind": "message_sent",
            "message_id": start.message_id,
            "thread_id": start.thread_id,
            "from": invite.from_agent,
            "to": list(attendees),
            "channel": CHANNEL_NAMES[channel],
            "type": TYPE_NAMES[MessageType.MEETING_START],
            "about_task": invite.about_task,
            "words": MEETING_START.words({"meeting": invite.meeting_id}),
            "cost_h": cost,
            "sent_step": t - 1,
        })
        for recipient in attendees:
            world.deliver(start, recipient, t)
        for agent_id in attendees:
            world.active[agent_id] = _new_tuple(ActiveAction, (
                ActionKind.MEETING, invite.meeting_id, duration, None))

    def _decide(self, contexts: list[PolicyContext]) -> Iterable[Intention]:
        """Each context's intention, in context order. A serial decide runs
        when the step's loop reaches its agent; a parallel step runs all its
        decides on the pool first."""
        if self.parallel_decide and len(contexts) > 1:
            if self._pool is None:
                # Imported here: only a parallel decide needs the thread pool,
                # so a deterministic run does not pay for loading it.
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(
                    max_workers=min(8, len(self.world.agent_order)))
            return list(self._pool.map(self.policy.decide, contexts))
        return map(self.policy.decide, contexts)

    # -- intention resolution --------------------------------------------------

    def _start_action(self, agent_id: str, context: PolicyContext,
                      intention: Intention) -> bool:
        """Start the action the intention asks for, unless it is work or
        degrades to it: then return False. A context field is read only where
        the intention needs it."""
        kind = intention.kind
        if kind is IntentionKind.CONTINUE_TASK:
            return False
        if kind is IntentionKind.CHECK_MESSAGES:
            return self._start_check_messages(agent_id)
        if kind is IntentionKind.SCHEDULE_MEETING:
            return self._start_meeting_scheduling(agent_id, context, intention)
        # REQUEST_HELP, NEED_CLARIFICATION or REPORT_PROGRESS
        return self._start_communication(agent_id, context, intention, kind)

    def _start_check_messages(self, agent_id: str) -> bool:
        """Oldest actionable inbox item: an invite to accept or a thread to
        answer. Each inbox index is in (delivery step, message id) order, so
        the oldest item is the lower of their first live entries. Message ids
        are unique: no two tie before their kinds."""
        world = self.world
        items: list[tuple[int, str, ActionKind, str]] = []
        invites = world.pending_invites(agent_id)
        if invites:
            delivery, message_id, meeting_id = invites[0]
            items.append((delivery, message_id, ActionKind.RSVP, meeting_id))
        oldest = world.oldest_unanswered(agent_id)
        if oldest is not None:
            delivery, message_id, thread_id = oldest
            items.append((delivery, message_id, ActionKind.REPLY, thread_id))
        if not items:
            # The meeting start has been read: it no longer sends the agent
            # back to its inbox.
            world.clear_meeting_start(agent_id)
            return False
        _, _, kind, target = min(items)
        if kind is ActionKind.RSVP:
            world.active[agent_id] = _new_tuple(ActiveAction, (kind, target, 1, None))
            return True
        root = world.threads[target].root
        replier = world.agents[agent_id]
        words = reply_words(root.about_task, root.message_type, replier)
        channel, cost, duration = message_price(None, words, 1)
        content = (compose_reply(root.about_task, root.message_type, replier)
                   if self.composes_text else None)
        # The one recipient answers the asker alone.
        world.active[agent_id] = _new_tuple(ActiveAction, (
            kind, target, duration, _new_tuple(Outgoing, (
                MessageType.RESPONSE, content, words, (root.from_agent,), channel,
                root.about_task, cost))))
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
        """Start a request or a report about the task the intention names, if
        the agent holds it, else about its active task. The one view of that
        task that recipients and words read is built here, from the task's
        node, the agent's alignment on it and its work on it."""
        world = self.world
        nodes = world.graph.nodes
        node = nodes.get(intention.task_hint)
        if node is None or node.assignee != agent_id:
            task_id = world.active_task_id[agent_id]
            if task_id is None:
                return False
            node = nodes[task_id]
        else:
            task_id = node.task_id
        # Fields by position, in TaskAssignmentView order.
        view = _new_tuple(TaskAssignmentView, (
            task_id, node.description, node.estimated_hours, node.required_skills,
            world.alignment.values[agent_id, task_id],
            world.stats[agent_id, task_id].hours_worked, node.progress, node.done))
        recipients = select_recipients(context, kind, view)
        if not recipients:
            return False
        words = message_words(context, kind, view)
        channel, cost, duration = message_price(kind, words, len(recipients))
        message_type = INTENTION_MESSAGE_TYPES[kind]
        # The evaluator reads only a request's text.
        content = (compose_message(context, kind, view)
                   if self.composes_text and message_type in REQUEST_TYPES else None)
        world.active[agent_id] = _new_tuple(ActiveAction, (
            ActionKind.COMMUNICATE, task_id, duration, _new_tuple(Outgoing, (
                message_type, content, words, tuple(recipients), channel, task_id,
                cost))))
        return True

    def _start_meeting_scheduling(self, agent_id: str, context: PolicyContext,
                                  intention: Intention) -> bool:
        world = self.world
        view = self._hinted_view(agent_id, intention)
        if view is None:
            return False
        kind = IntentionKind.SCHEDULE_MEETING
        recipients = select_recipients(context, kind, view)
        if not recipients:
            return False
        world.active[agent_id] = _new_tuple(ActiveAction, (
            ActionKind.COMMUNICATE, view.task_id, 1, _new_tuple(Outgoing, (
                MessageType.MEETING_INVITE, None, message_words(context, kind, view),
                tuple(recipients), Channel.MEETING, view.task_id, 0.0))))
        return True

    # -- execution ---------------------------------------------------------------

    def _execute_actions(self, t: int) -> None:
        """One step of every agent's action, in agent order. A work step runs
        in this frame: below its task's mark it adds the hours and compares,
        and only a step that reaches the mark calls `TaskGraph.reach`. Each
        `action` and `progress` record goes straight onto the step's batch;
        every other record goes through `emit`."""
        world = self.world
        active, last_actions, seq = world.active, world.last_actions, world._seq
        nodes, reach = world.graph.nodes, world.graph.reach
        alignment, stats_of, due = world.alignment.values, world.stats, world.due
        work, plan, idle = ActionKind.WORK, ActionKind.PLAN, ActionKind.IDLE
        events = world.pending_events
        append = events.append
        # One value per kind serves every agent that finishes such a step.
        worked = _new_tuple(LastAction, ("work", None, t))
        idled = _new_tuple(LastAction, ("idle", None, t))
        for agent_id in world.agent_order:
            # Every agent holds one once the step's intentions are resolved.
            kind, target, remaining, outgoing = active[agent_id]
            if len(events) >= TRACE_BATCH:
                world.flush()
                events = world.pending_events
                append = events.append
            remaining -= 1
            append({"step": t, "seq": next(seq), "kind": "action", "agent": agent_id,
                    "action": ACTION_NAMES[kind], "target": target,
                    "remaining": remaining})
            # Work, plan and idle actions last one step; the others act on
            # their last.
            if kind is work:
                # The holder's active task, which nothing else finishes this step;
                # its stats exist, and every alignment write keeps it in range.
                node = nodes[target]
                af = alignment[agent_id, target]
                effective = HOURS_PER_STEP * af
                hours = node.accumulated_effective_hours + effective
                after = min(1.0, hours / node.estimated_hours)
                stats = stats_of[agent_id, target]
                stats.hours_worked += HOURS_PER_STEP
                stats.stuck_worked_steps += 1
                if after < node.mark:
                    node.accumulated_effective_hours = hours
                    node.progress = after
                    became_done = False
                else:
                    before = node.progress
                    became_done = reach(node, hours, after)
                    # A report covers the milestones its day's progress reached,
                    # and progress only grows: one crossed here is unreported.
                    for milestone in REPORT_MILESTONES:
                        if before < milestone <= after:
                            stats.pending_milestone = milestone
                            due[agent_id].add(target)
                append({"step": t, "seq": next(seq), "kind": "progress",
                        "agent": agent_id, "task": target, "hours": HOURS_PER_STEP,
                        "effective": effective, "af": af, "progress": after})
                if became_done:
                    self._on_task_done(node, t)
                last_actions[agent_id] = worked
            elif kind is idle:
                last_actions[agent_id] = idled
            elif kind is plan:
                self._execute_plan(t)
                last_actions[agent_id] = worked
            elif remaining:
                active[agent_id] = _new_tuple(ActiveAction,
                                              (kind, target, remaining, outgoing))
                continue
            elif kind is ActionKind.COMMUNICATE:
                self._complete_send(agent_id, outgoing, t)
            elif kind is ActionKind.REPLY:
                self._complete_reply(agent_id, target, outgoing, t)
            elif kind is ActionKind.RSVP:
                self._complete_rsvp(agent_id, target, t)
            else:
                self._complete_meeting_attendance(agent_id, target, t)
            # No later action of the step reads another agent's entry.
            del active[agent_id]

    def _execute_plan(self, t: int) -> None:
        """The manager's step-0 slot: decompose every root and hand out work."""
        world = self.world
        graph, scenario = world.graph, world.scenario
        for root_id in list(graph.roots):
            plan = self.planner.decompose(graph.node(root_id), scenario)
            for note in plan.warnings:
                world.emit({"step": t, "seq": None, "kind": "warning",
                            "source": "planner", "detail": note})
            created = graph.add_subtasks(root_id, list(plan.subtasks))
            world.place(assign(graph, [n.task_id for n in created], scenario.team), t)
        world.blocked = dict.fromkeys(world.agent_order)
        world.planned = True

    def _on_task_done(self, node: TaskNode, t: int) -> None:
        """Trace a finished task, and its root if that finished with it."""
        world = self.world
        task_id = node.task_id
        world.finish_task(node)
        world.emit({
            "step": t, "seq": None, "kind": "task_done",
            "task": task_id, "root": False, "boundary": t + 1,
        })
        world.close_threads_about(task_id)
        # Only the finished task's own root can have finished with it.
        root = node
        while root.parent_id is not None:
            root = world.graph.node(root.parent_id)
        if root.done and root.task_id not in world.completion_steps:
            world.completion_steps[root.task_id] = t + 1
            world.emit({
                "step": t, "seq": None, "kind": "task_done",
                "task": root.task_id, "root": True, "boundary": t + 1,
            })

    def _complete_send(self, agent_id: str, outgoing: Outgoing, t: int) -> None:
        """Send a composed message: build it, append its `message_sent`
        record to the step's batch and queue it for next-step delivery. Then
        open a request thread, a meeting for an invite, or record a report."""
        world = self.world
        message_type, content, words, recipients, channel, about_task, cost = outgoing
        meeting_id = (next(world.meeting_ids)
                      if message_type is MessageType.MEETING_INVITE else None)
        # Fields by position, in `Message` order.
        message = Message(next(world.message_ids), next(world.thread_ids), agent_id,
                          recipients, channel, message_type, content, t, about_task,
                          meeting_id, cost)
        world.comm_cost_total += cost
        type_name = TYPE_NAMES[message_type]
        world.pending_events.append({
            "step": t, "seq": next(world._seq), "kind": "message_sent",
            "message_id": message.message_id,
            "thread_id": message.thread_id,
            "from": agent_id,
            "to": list(recipients),
            "channel": CHANNEL_NAMES[channel],
            "type": type_name,
            "about_task": about_task,
            "words": words,
            "cost_h": cost,
            "sent_step": t,
        })
        world.buffer.enqueue(message, t)
        world.last_actions[agent_id] = _new_tuple(LastAction, ("message_sent", type_name, t))
        if message_type in REQUEST_TYPES:
            world.open_thread(Thread(message))
        elif meeting_id is not None:
            world.open_meeting(Meeting(message))
        else:  # a progress update
            world.record_report(agent_id, about_task)

    def _complete_reply(self, agent_id: str, thread_id: str, outgoing: Outgoing,
                        t: int) -> None:
        """Send a composed reply as `_complete_send` sends a message, unless
        its thread closed while it was composed, and mark the thread answered."""
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
        message_type, content, words, recipients, channel, about_task, cost = outgoing
        # Fields by position, in `Message` order.
        message = Message(next(world.message_ids), thread_id, agent_id, recipients,
                          channel, message_type, content, t, about_task, None, cost)
        world.comm_cost_total += cost
        type_name = TYPE_NAMES[message_type]
        world.pending_events.append({
            "step": t, "seq": next(world._seq), "kind": "message_sent",
            "message_id": message.message_id,
            "thread_id": thread_id,
            "from": agent_id,
            "to": list(recipients),
            "channel": CHANNEL_NAMES[channel],
            "type": type_name,
            "about_task": about_task,
            "words": words,
            "cost_h": cost,
            "sent_step": t,
        })
        world.buffer.enqueue(message, t)
        world.last_actions[agent_id] = _new_tuple(LastAction, ("message_sent", type_name, t))
        thread.answered = True

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
                world.pending_af.append(_new_tuple(PendingAfEvaluation, (
                    attendee, target, meeting.invite.meeting_id,
                    MessageType.MEETING_INVITE, None)))

    def _meeting_gain_task(self, agent_id: str, meeting: Meeting) -> str | None:
        """The attendee's task the meeting topic bears on, if any."""
        world = self.world
        about = meeting.invite.about_task
        for task_id in world.assigned_tasks(agent_id):
            node = world.graph.node(task_id)
            if node.done:
                continue
            if task_id == about or about in node.dependencies:
                return task_id
        return None

    def _apply_pending_af(self, t: int) -> None:
        world = self.world
        pending = sorted(world.pending_af,
                         key=lambda p: (order_key(p.agent_id), p.cause_id))
        world.pending_af = []
        for item in pending:
            if item.reply is not None:
                world.close_thread(world.threads[item.reply.thread_id])
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


def run_scenario(scenario: Scenario, adapter: ChatCompletionAdapter | None = None,
                 max_steps: int | None = None,
                 parallel_decide: bool = False) -> SimResult:
    """Convenience wrapper: build a simulation from the scenario and run it.

    `scenario` must already be validated, as for `Simulation`."""
    return Simulation(scenario, adapter=adapter, max_steps=max_steps,
                      parallel_decide=parallel_decide).run()
