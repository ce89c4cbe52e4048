"""Per-step decision making: contexts, intentions, and the policies.

Every policy is a pure function of its context: identical contexts yield
identical intentions, which is what makes non-LLM runs reproducible. A context
is read-only; it holds its O(1) fields, and every other field is read from
`World` when a policy reads it, so an agent-step pays for what its policy
reads. Task and teammate views, last actions and intentions are immutable
named tuples that compare by field; an intention whose fields never vary is
one module-level value. The deterministic heuristic policy approximates
adaptive behavior with fixed thresholds; the LLM policy delegates the same
decision to an external model and falls back to the heuristic on any failure.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .comms import Channel, MessageType, TYPE_NAMES
from .model import AgentProfile, Role, order_key

if TYPE_CHECKING:  # pragma: no cover
    from .adapter import ChatCompletionAdapter
    from .engine import World

# Constants of the deterministic policies.
AF_ATTENTION_THRESHOLD = 0.45
STUCK_STEP_THRESHOLD = 4
REPORT_MILESTONES = (0.5, 1.0)
FIXED_COMM_INTERVAL = 16
LONG_CONTENT_WORDS = 120


class IntentionKind(str, Enum):
    CONTINUE_TASK = "CONTINUE_TASK"
    CHECK_MESSAGES = "CHECK_MESSAGES"
    REQUEST_HELP = "REQUEST_HELP"
    NEED_CLARIFICATION = "NEED_CLARIFICATION"
    REPORT_PROGRESS = "REPORT_PROGRESS"
    SCHEDULE_MEETING = "SCHEDULE_MEETING"


class Intention(NamedTuple):
    kind: IntentionKind
    reasoning: str = ""
    task_hint: str | None = None
    warnings: tuple[str, ...] = ()


class TaskAssignmentView(NamedTuple):
    task_id: str
    description: str
    estimated_hours: float
    required_skills: frozenset[str]
    af: float
    hours_worked: float
    stuck_worked_steps: int
    progress: float
    pending_milestone: float | None
    ready: bool
    done: bool


class TeammateView(NamedTuple):
    agent_id: str
    role: Role
    skills: frozenset[str]
    busy: bool


class LastAction(NamedTuple):
    kind: str
    message_type: str | None
    step: int


class PolicyContext(tuple):
    """What one agent may know at the current step, read when a policy reads it.

    The tuple holds the O(1) fields. Every other field asks the `World` the
    context was built on, each time it is read: a task view is built from
    the task's node, alignment and work stats at every read, and only for
    the tasks the field names. Nothing a field reads changes while the
    step's contexts are read. No field can be set.
    """

    __slots__ = ()

    # The tuple is (agent, step, team_view, manager_id, world, agent id).
    agent = property(itemgetter(0))
    step = property(itemgetter(1))
    # Every agent in natural id order, this one included: the step's one
    # `team_views` tuple, shared by every context of the step.
    team_view = property(itemgetter(2))
    manager_id = property(itemgetter(3))

    @property
    def assigned(self) -> tuple[TaskAssignmentView, ...]:
        """Held task views in id order, done ones included."""
        return self[4].task_views(self[5])

    @property
    def active_task(self) -> TaskAssignmentView | None:
        """The first ready view: what CONTINUE_TASK works on."""
        return self[4].active_view(self[5])

    @property
    def report_due(self) -> TaskAssignmentView | None:
        """The first view with a pending milestone."""
        return self[4].report_due_view(self[5])

    @property
    def delivered_by_type(self) -> dict[str, int]:
        """Messages delivered to this agent so far, by type name; shared,
        never mutated."""
        return self[4].delivered_by_type[self[5]]

    @property
    def last_action(self) -> LastAction | None:
        return self[4].last_actions.get(self[5])

    @property
    def unanswered_inbound(self) -> tuple[str, ...]:
        """Open request threads awaiting this agent's reply, oldest first."""
        return self[4].unanswered_inbound(self[5])

    @property
    def open_outbound_tasks(self) -> frozenset[str]:
        """This agent's unresolved requests, by task."""
        return self[4].open_outbound_tasks(self[5])

    @property
    def has_unprocessed_invite(self) -> bool:
        return self[4].has_unprocessed_invite(self[5])

    @property
    def has_meeting_start(self) -> bool:
        return self[4].has_meeting_start(self[5])

    @property
    def blocked_collaborators(self) -> dict[str, tuple[str, ...]]:
        """Undone own tasks with blocked dependents, in id order; shared,
        never mutated."""
        return self[4].blocked_collaborators(self[5])

    @property
    def meeting_organized_tasks(self) -> frozenset[str | None]:
        return self[4].organized_meeting_tasks(self[5])


def team_views(world: "World") -> tuple[TeammateView, ...]:
    """Every agent as a teammate sees it this step, in agent order."""
    active = world.active
    return tuple(pair[agent_id in active]
                 for agent_id, pair in world.teammate_views.items())


def build_context(world: "World", agent_id: str,
                  team: tuple[TeammateView, ...]) -> PolicyContext:
    """The agent's context at the current step, on `world`.

    `team` is `team_views(world)` for this step, shared as it is: the agent's
    own entry stays in it. Only the O(1) fields are read here.
    """
    return PolicyContext((world.agents[agent_id], world.clock.step, team,
                          world.manager_id, world, agent_id))


# -- policies ---------------------------------------------------------------

# The intentions whose every field is fixed, built once: a policy returns the
# same immutable value each time.
NO_COMM = Intention(IntentionKind.CONTINUE_TASK, "no-communication policy")
NO_TRIGGER = Intention(IntentionKind.CONTINUE_TASK, "no trigger fired")
MEETING_TRAFFIC = Intention(IntentionKind.CHECK_MESSAGES, "meeting traffic in inbox")
UNANSWERED_REQUEST = Intention(IntentionKind.CHECK_MESSAGES,
                               "unanswered request in inbox")
INBOX_HAS_REQUESTS = Intention(IntentionKind.CHECK_MESSAGES, "inbox has requests")
BETWEEN_CHECK_INS = Intention(IntentionKind.CONTINUE_TASK, "between scheduled check-ins")


class Policy:
    name = "base"

    def decide(self, context: PolicyContext) -> Intention:
        raise NotImplementedError


class NoCommPolicy(Policy):
    """Agents work their assignments and never communicate."""

    name = "no_comm"

    def decide(self, context: PolicyContext) -> Intention:
        return NO_COMM


class FixedStepsPolicy(Policy):
    """Workers report on a fixed cadence, then ask for help on their weakest task."""

    name = "fixed_steps"

    def __init__(self, interval: int = FIXED_COMM_INTERVAL) -> None:
        self.interval = interval

    def decide(self, context: PolicyContext) -> Intention:
        if context.agent.role is Role.WORKER:
            last = context.last_action
            follow_up = (
                last is not None
                and last.kind == "message_sent"
                and last.message_type == TYPE_NAMES[MessageType.PROGRESS_UPDATE]
                and last.step > 0
                and last.step % self.interval == 0
            )
            report = context.step > 0 and context.step % self.interval == 0
            # The open tasks matter only on a follow-up or a report step.
            open_tasks = ([v for v in context.assigned if not v.done]
                          if follow_up or report else None)
            if follow_up and open_tasks:
                weakest = min(open_tasks, key=lambda v: (v.af, order_key(v.task_id)))
                if weakest.task_id not in context.open_outbound_tasks:
                    return Intention(
                        IntentionKind.REQUEST_HELP,
                        reasoning="scheduled follow-up on lowest-alignment task",
                        task_hint=weakest.task_id,
                    )
            if report and open_tasks:
                return Intention(
                    IntentionKind.REPORT_PROGRESS,
                    reasoning="scheduled progress report",
                    task_hint=open_tasks[0].task_id,
                )
        if context.unanswered_inbound or context.has_unprocessed_invite:
            return INBOX_HAS_REQUESTS
        return BETWEEN_CHECK_INS


class HeuristicPolicy(Policy):
    """Deterministic rules approximating context-driven communication choices."""

    name = "c2c_heuristic"

    def decide(self, context: PolicyContext) -> Intention:
        if context.has_unprocessed_invite or context.has_meeting_start:
            return MEETING_TRAFFIC
        if context.unanswered_inbound:
            return UNANSWERED_REQUEST

        active = context.active_task
        if active is not None and active.task_id not in context.open_outbound_tasks:
            if (
                active.af < AF_ATTENTION_THRESHOLD
                and active.hours_worked > 0
                and active.stuck_worked_steps >= STUCK_STEP_THRESHOLD
            ):
                return Intention(
                    IntentionKind.REQUEST_HELP,
                    reasoning=(
                        f"alignment {active.af:.2f} stalled for "
                        f"{active.stuck_worked_steps} worked steps"
                    ),
                    task_hint=active.task_id,
                )
            if active.af < AF_ATTENTION_THRESHOLD and active.hours_worked == 0:
                return Intention(
                    IntentionKind.NEED_CLARIFICATION,
                    reasoning=f"starting at alignment {active.af:.2f}",
                    task_hint=active.task_id,
                )

        for task_id, blocked in context.blocked_collaborators.items():
            if len(blocked) >= 2 and task_id not in context.meeting_organized_tasks:
                return Intention(
                    IntentionKind.SCHEDULE_MEETING,
                    reasoning=f"{len(blocked)} collaborators blocked on {task_id}",
                    task_hint=task_id,
                )

        due = context.report_due
        if due is not None:
            return Intention(
                IntentionKind.REPORT_PROGRESS,
                reasoning=f"crossed {due.pending_milestone:.0%} on {due.task_id}",
                task_hint=due.task_id,
            )

        return NO_TRIGGER


class LlmPolicy(Policy):
    """Delegates the intention choice to an external model; heuristic fallback."""

    name = "c2c_llm"

    def __init__(self, adapter: ChatCompletionAdapter) -> None:
        self.adapter = adapter

    def decide(self, context: PolicyContext) -> Intention:
        from .adapter import AdapterError

        try:
            parsed = self.adapter.complete_json(self._messages(context))
            kind = IntentionKind(str(parsed.get("intention", "")).strip().upper())
            return Intention(kind, reasoning=str(parsed.get("reasoning", "")))
        except (AdapterError, ValueError) as exc:
            fallback = HeuristicPolicy().decide(context)
            warning = f"intention adapter fallback: {exc}"
            return fallback._replace(warnings=fallback.warnings + (warning,))

    @staticmethod
    def _messages(context: PolicyContext) -> list[dict]:
        from . import prompts

        lines = []
        for view in context.assigned[:3]:
            lines.append(
                f"- {view.task_id}: {view.description} | progress "
                f"{view.progress:.0%} | alignment {view.af:.2f} | "
                f"{view.hours_worked:.2f}/{view.estimated_hours:.2f} hours"
            )
        tasks_block = "\n".join(lines) if lines else "- (no assigned tasks)"
        inbox_desc = ", ".join(f"{k}: {v}" for k, v in
                               sorted(context.delivered_by_type.items())) or "empty"
        message_info = (
            f"Inbox: {inbox_desc}. Unanswered requests awaiting you: "
            f"{len(context.unanswered_inbound)}."
        )
        last = context.last_action
        last_info = (
            f"Last action: {last.kind}"
            + (f" ({last.message_type})" if last and last.message_type else "")
            + f" at step {last.step}."
            if last
            else "Last action: none."
        )
        return prompts.intention_messages(
            context.agent.name, context.agent.role.value, tasks_block,
            message_info, last_info,
        )


def build_policy(name: str, adapter: ChatCompletionAdapter | None = None) -> Policy:
    if name == "no_comm":
        return NoCommPolicy()
    if name == "fixed_steps":
        return FixedStepsPolicy()
    if name == "c2c_heuristic":
        return HeuristicPolicy()
    if name == "c2c_llm":
        if adapter is None:
            raise ValueError("c2c_llm policy requires an adapter")
        return LlmPolicy(adapter)
    raise ValueError(f"unknown policy: {name}")


# -- recipients, channels, content ------------------------------------------


def select_recipients(context: PolicyContext, kind: IntentionKind,
                      view: TaskAssignmentView) -> list[str]:
    """Who a communicating intention about the task `view` shows addresses,
    with deterministic tie-breaks."""
    if kind in (IntentionKind.NEED_CLARIFICATION, IntentionKind.REPORT_PROGRESS):
        return [context.manager_id]
    if kind is IntentionKind.REQUEST_HELP:
        required = view.required_skills
        # One pass over the others, scored as `skill_match_score` scores; the
        # best positive score wins and a tie goes to the lower id.
        me = context.agent.agent_id
        best, tied = 0.0, []
        for mate in context.team_view:
            if mate.role is not Role.WORKER or mate.busy or mate.agent_id == me:
                continue
            score = len(mate.skills & required) / len(required) if required else 1.0
            if score > best:
                best, tied = score, [mate.agent_id]
            elif score == best and score > 0:
                tied.append(mate.agent_id)
        return [min(tied, key=order_key)] if tied else [context.manager_id]
    if kind is IntentionKind.SCHEDULE_MEETING:
        blocked = context.blocked_collaborators.get(view.task_id, ())
        recipients = [context.manager_id] + [a for a in blocked]
        seen: set[str] = set()
        ordered = []
        for agent_id in recipients:
            if agent_id not in seen and agent_id != context.agent.agent_id:
                seen.add(agent_id)
                ordered.append(agent_id)
        return ordered
    raise ValueError(f"{kind.value} is not a communicating intention")


def select_channel(kind: IntentionKind, words: int) -> Channel:
    """`words` is the word count of the message's content."""
    if kind is IntentionKind.SCHEDULE_MEETING:
        return Channel.MEETING
    if kind is IntentionKind.REPORT_PROGRESS:
        return Channel.EMAIL
    if kind is IntentionKind.REQUEST_HELP and words >= LONG_CONTENT_WORDS:
        return Channel.EMAIL
    return Channel.CHAT


def compose_message(context: PolicyContext, kind: IntentionKind,
                    view: TaskAssignmentView) -> str:
    """Deterministic content for an outbound communication."""
    if kind is IntentionKind.NEED_CLARIFICATION:
        return (
            f"Clarification needed on {view.task_id}: {view.description} "
            f"I have not started yet and my alignment is {view.af:.2f}. "
            "What are the concrete acceptance criteria, the constraints I must "
            "respect, and the expected interface?"
        )
    if kind is IntentionKind.REQUEST_HELP:
        own = ", ".join(sorted(context.agent.skills))
        required = ", ".join(sorted(view.required_skills)) or "unspecified"
        gap = ", ".join(sorted(view.required_skills - context.agent.skills)) or "none"
        return (
            f"Help needed on {view.task_id}. Scope: {view.description} "
            f"I have worked {view.hours_worked:.2f} hours and progress stands at "
            f"{view.progress:.0%} with alignment {view.af:.2f}, which is holding my "
            "effective output well below plan. The required skills are "
            f"{required}; my own skills are {own}, so the gap is {gap}. "
            "Could you walk me through the recommended approach step by step, "
            "point me to any prior art or reference implementation we already "
            "have in the team, and flag the pitfalls you know about from similar "
            "work? Specifically I need: (1) how to structure the first concrete "
            "deliverable, (2) which interfaces or contracts I must not break, "
            "and (3) a sanity check on my current assumptions before I invest "
            "more hours. A short written answer is fine; detail matters more "
            "than polish here."
        )
    if kind is IntentionKind.REPORT_PROGRESS:
        status = (
            "Subtask finished; ready for the next assignment."
            if view.progress >= 1.0
            else "On track; no blockers beyond the noted alignment."
        )
        return (
            f"Progress report for {view.task_id}: {view.progress:.0%} complete, "
            f"{view.hours_worked:.2f} of {view.estimated_hours:.2f} hours logged, "
            f"alignment {view.af:.2f}. {status}"
        )
    if kind is IntentionKind.SCHEDULE_MEETING:
        return (
            f"Coordination meeting about {view.task_id}: downstream work is "
            "blocked on it. Agenda: sequencing, interface contracts, handoffs."
        )
    raise ValueError(f"{kind.value} has no message content")


def compose_reply(task_id: str | None, root_type: MessageType,
                  replier: AgentProfile) -> str:
    """Deterministic reply content, keyed by what the thread asked for.

    A clarification answer is a full scope brief: it pins acceptance criteria,
    constraints, interfaces, sequencing, and escalation, so it goes out as a
    long-form message. Help answers are short peer pointers.
    """
    task_label = task_id or "your task"
    if root_type is MessageType.NEED_CLARIFICATION:
        return (
            f"Re {task_label}: scope brief follows. Objective: deliver exactly what "
            "the subtask description states, interpreted narrowly; anything the "
            "description does not name is out of scope until we agree otherwise. "
            "Acceptance criteria: the deliverable covers the described scope end "
            "to end, passes its own verification, and leaves neighboring behavior "
            "unchanged unless the description says otherwise; partial work counts "
            "only once it is integrated and demonstrable. Constraints: stay within "
            "the estimated effort envelope, prefer the established patterns of "
            "this team over new abstractions, keep every interface you expose "
            "backward compatible, and take no dependencies beyond what the team "
            "already uses. Interfaces: consume the inputs named in the task "
            "description as they stand today; if you must extend one, write the "
            "extension down and circulate it before building on top of it. "
            "Sequencing: land the smallest end-to-end slice first, then widen "
            "coverage; plan review checkpoints at half and at full completion. "
            "Quality bar: verification accompanies the change, edge cases named "
            "in the description are exercised, and failure paths degrade loudly "
            "rather than silently. Risks to watch: hidden coupling to neighboring "
            "workstreams, assumptions about data shape that nobody has confirmed, "
            "and effort sinks in polishing before the slice works at all. "
            "Escalation: if a blocker costs you more than a few hours, raise it "
            "to me instead of burning time on it; if you need a skill the task "
            "lists and you lack, ask the teammate who has it directly. Reporting: "
            "send progress notes at the usual milestones so the roll-up stays "
            "accurate. Definition of done: the subtask is complete when its "
            "estimated effort has produced the described outcome, verification "
            "passes, and the progress roll-up reflects it without manual "
            "correction from me. This brief is the authoritative scope statement "
            "for the subtask; where it conflicts with informal conversation, the "
            "brief wins. Proceed on this basis and flag anything that still "
            "reads ambiguous to you."
        )
    if root_type is MessageType.HELP_REQUEST:
        skills = ", ".join(sorted(replier.skills)) or "the relevant area"
        return (
            f"Re {task_label}: suggested approach follows. Start from the smallest "
            f"end-to-end slice, reuse our existing patterns for {skills}, and "
            "validate against the estimate before expanding. Known pitfalls: "
            "hidden coupling and unverified assumptions; check both, then iterate."
        )
    return f"Re {task_label}: acknowledged."


def reply_channel(words: int) -> Channel:
    """Long-form answers travel by email, short ones by chat.

    Mirrors the length rule used for initiations: a reply of `words` words is
    a detailed explanation once it reaches LONG_CONTENT_WORDS, whatever
    channel the request used. Meeting threads never take replies.
    """
    if words >= LONG_CONTENT_WORDS:
        return Channel.EMAIL
    return Channel.CHAT
