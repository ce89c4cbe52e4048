"""Per-step decision making: contexts, intentions, and the policies.

Every policy is a pure function of its context: identical contexts yield
identical intentions, which is what makes non-LLM runs reproducible. A context
is a read-only tuple of O(1) fields, the step's one busy set and the `World`
among them. The deterministic policies read the agent's facts from `World`'s
per-agent tables in their own frame, so a decide builds no task view; a
context's properties serve what an intention needs once chosen (recipients
and message content) and the model-backed policy of `teamsim.llm`. Task
views, last actions and intentions are immutable named tuples that compare by
field; an intention whose fields never vary is one module-level value. The
heuristic policy approximates adaptive behavior with fixed thresholds.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .comms import Channel, MessageType, TYPE_NAMES, word_count
from .model import AgentProfile, Role, _new_tuple, order_key

if TYPE_CHECKING:  # pragma: no cover
    from .adapter import ChatCompletionAdapter
    from .engine import World

# Constants of the deterministic policies.
AF_ATTENTION_THRESHOLD = 0.45
STUCK_STEP_THRESHOLD = 4
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
    task_hint: str | None = None
    warnings: tuple[str, ...] = ()


class TaskAssignmentView(NamedTuple):
    """What a message about a held task and the LLM prompt read of it."""

    task_id: str
    description: str
    estimated_hours: float
    required_skills: frozenset[str]
    af: float
    hours_worked: float
    progress: float
    done: bool


class LastAction(NamedTuple):
    kind: str
    message_type: str | None
    step: int


class PolicyContext(tuple):
    """What one agent may know at the current step.

    The tuple is (agent, step, busy, manager_id, world, agent id). The
    decides unpack it and read the agent's facts straight from `World`'s
    per-agent tables, in their own frame. The properties serve recipient
    selection, the message an intention sends and the prompt of
    `teamsim.llm.LlmPolicy`: each asks the `World` the context was built on,
    each time it is read, so `assigned` builds its task views at every read.
    Nothing a field reads changes while the step's contexts are read: the
    resolve of an earlier agent's intention writes only that agent's entries.
    No field can be set.
    """

    __slots__ = ()

    agent = property(itemgetter(0))
    step = property(itemgetter(1))
    # The agents with an action in flight before the step's intentions are
    # resolved: the step's one set, shared by every context of the step.
    busy = property(itemgetter(2))
    manager_id = property(itemgetter(3))

    @property
    def team(self) -> dict[str, AgentProfile]:
        """Every agent's profile by id, in natural id order; shared."""
        return self[4].agents

    @property
    def assigned(self) -> tuple[TaskAssignmentView, ...]:
        """Held task views in id order, done ones included."""
        world, agent_id = self[4], self[5]
        return tuple([world.task_view(agent_id, t) for t in world.assignments[agent_id]])

    @property
    def unanswered_inbound(self) -> tuple[str, ...]:
        """Open request threads awaiting this agent's reply, oldest first."""
        return self[4].unanswered_inbound(self[5])

    @property
    def blocked_collaborators(self) -> dict[str, tuple[str, ...]]:
        """Undone own tasks with blocked dependents, in id order; shared,
        never mutated."""
        return self[4].blocked_collaborators(self[5])


def build_context(world: "World", agent_id: str,
                  busy: frozenset[str]) -> PolicyContext:
    """The agent's context at the current step, on `world`.

    `busy` is the step's one set of agents with an action in flight, shared
    as it is. Only the O(1) fields are read here.
    """
    return PolicyContext((world.agents[agent_id], world.clock.step, busy,
                          world.manager_id, world, agent_id))


# -- policies ---------------------------------------------------------------

# The intentions without a task, built once: a policy returns the same
# immutable value each time.
CONTINUE = Intention(IntentionKind.CONTINUE_TASK)
CHECK_INBOX = Intention(IntentionKind.CHECK_MESSAGES)


class Policy:
    name = "base"
    # Whether `decide` reads `World.delivered`, which `World` keeps only then.
    reads_deliveries = False

    def decide(self, context: PolicyContext) -> Intention:
        raise NotImplementedError


class NoCommPolicy(Policy):
    """Agents work their assignments and never communicate."""

    name = "no_comm"

    def decide(self, context: PolicyContext) -> Intention:
        return CONTINUE


class FixedStepsPolicy(Policy):
    """Workers report on a fixed cadence, then ask for help on their weakest task."""

    name = "fixed_steps"

    def __init__(self, interval: int = FIXED_COMM_INTERVAL) -> None:
        self.interval = interval

    def decide(self, context: PolicyContext) -> Intention:
        agent, step, _, _, world, agent_id = context
        if agent.role is Role.WORKER:
            last = world.last_actions.get(agent_id)
            # Only a sent message's last action holds a message type.
            follow_up = (
                last is not None
                and last.message_type == TYPE_NAMES[MessageType.PROGRESS_UPDATE]
                and last.step > 0
                and last.step % self.interval == 0
            )
            report = step > 0 and step % self.interval == 0
            # The open tasks matter only on a follow-up or a report step.
            if follow_up or report:
                open_tasks = [v for v in context.assigned if not v.done]
                if follow_up and open_tasks:
                    weakest = min(open_tasks, key=lambda v: (v.af, order_key(v.task_id)))
                    if weakest.task_id not in world.open_outbound_tasks(agent_id):
                        return _new_tuple(Intention, (
                            IntentionKind.REQUEST_HELP, weakest.task_id, ()))
                if report and open_tasks:
                    return _new_tuple(Intention, (
                        IntentionKind.REPORT_PROGRESS, open_tasks[0].task_id, ()))
        # An inbox list may hold entries no longer actionable: read only
        # when non-empty.
        if ((world.inbound_requests[agent_id]
                and world.oldest_unanswered(agent_id) is not None)
                or (world.invites[agent_id] and world.pending_invites(agent_id))):
            return CHECK_INBOX
        return CONTINUE


class HeuristicPolicy(Policy):
    """Deterministic rules approximating context-driven communication choices."""

    name = "c2c_heuristic"

    def decide(self, context: PolicyContext) -> Intention:
        # Every fact is read in this frame from `World`'s per-agent tables; a
        # query method runs only when its table is non-empty or stale.
        _, _, _, _, world, agent_id = context
        if ((world.invites[agent_id] and world.pending_invites(agent_id))
                or agent_id in world.meeting_started
                or (world.inbound_requests[agent_id]
                    and world.oldest_unanswered(agent_id) is not None)):
            return CHECK_INBOX

        task_id = world.active_task_id[agent_id]
        # Both requests need a low alignment, tested before the open-request
        # set is read.
        if (task_id is not None
                and world.alignment.values[agent_id, task_id] < AF_ATTENTION_THRESHOLD):
            outbound = world.outbound[agent_id]
            if outbound is None:
                outbound = world.open_outbound_tasks(agent_id)
            if task_id not in outbound:
                stats = world.stats[agent_id, task_id]
                if stats.hours_worked > 0 and stats.stuck_worked_steps >= STUCK_STEP_THRESHOLD:
                    return _new_tuple(Intention, (IntentionKind.REQUEST_HELP, task_id, ()))
                if stats.hours_worked == 0:
                    return _new_tuple(Intention, (IntentionKind.NEED_CLARIFICATION, task_id, ()))

        blocked = world.blocked[agent_id]
        if blocked is None:
            blocked = world.blocked_collaborators(agent_id)
        for task_id, agents in blocked.items():
            if len(agents) >= 2 and task_id not in world.organized[agent_id]:
                return _new_tuple(Intention, (IntentionKind.SCHEDULE_MEETING, task_id, ()))

        due = world.due[agent_id]
        if due:
            return _new_tuple(Intention, (
                IntentionKind.REPORT_PROGRESS, min(due, key=order_key), ()))

        return CONTINUE


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
        from .llm import LlmPolicy

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
        # One pass over the other free workers, scored as `skill_match_score`
        # scores; the best positive score wins and a tie goes to the lower id.
        me, busy = context.agent.agent_id, context.busy
        best, tied = 0.0, []
        for mate in context.team.values():
            if mate.role is not Role.WORKER or mate.agent_id in busy or mate.agent_id == me:
                continue
            score = len(mate.skills & required) / len(required) if required else 1.0
            if score > best:
                best, tied = score, [mate.agent_id]
            elif score == best and score > 0:
                tied.append(mate.agent_id)
        return [min(tied, key=order_key)] if tied else [context.manager_id]
    if kind is IntentionKind.SCHEDULE_MEETING:
        blocked = context.blocked_collaborators.get(view.task_id, ())
        # The manager, then the blocked, each once and the organizer never.
        return [agent_id for agent_id in dict.fromkeys([context.manager_id, *blocked])
                if agent_id != context.agent.agent_id]
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


class Template:
    """Message text whose word count is known without composing it.

    `parts` alternate: the even ones are fixed text, the odd ones single
    words that hold one text field and the punctuation attached to it. The
    text is the non-empty parts joined by single spaces, with every field
    filled by `str.format`. A number field, such as `{af:.2f}`, sits in
    fixed text: it formats as one word without whitespace, so the fixed
    text counts the same words filled or not. A text field may fill to any
    number of words, none included. Split at whitespace, the text is the
    fixed words and the filled text-field words, so the count of each can
    be taken apart.
    """

    __slots__ = ("text", "fixed_words", "text_words")

    def __init__(self, *parts: str) -> None:
        self.text = " ".join(filter(None, parts))
        self.fixed_words = word_count(" ".join(parts[0::2]))
        self.text_words = " ".join(parts[1::2])

    def compose(self, fields: dict) -> str:
        return self.text.format_map(fields)

    def words(self, fields: dict) -> int:
        """`word_count(self.compose(fields))`, without the text."""
        return self.fixed_words + len(self.text_words.format_map(fields).split())


_CLARIFICATION = Template(
    "Clarification needed on", "{task}:", "", "{description}",
    "I have not started yet and my alignment is {af:.2f}. What are the concrete "
    "acceptance criteria, the constraints I must respect, and the expected "
    "interface?")
_HELP = Template(
    "Help needed on", "{task}.", "Scope:", "{description}",
    "I have worked {hours:.2f} hours and progress stands at {progress:.0%} with "
    "alignment {af:.2f}, which is holding my effective output well below plan. "
    "The required skills are", "{required};", "my own skills are", "{own},",
    "so the gap is", "{gap}.",
    "Could you walk me through the recommended approach step by step, point me "
    "to any prior art or reference implementation we already have in the team, "
    "and flag the pitfalls you know about from similar work? Specifically I "
    "need: (1) how to structure the first concrete deliverable, (2) which "
    "interfaces or contracts I must not break, and (3) a sanity check on my "
    "current assumptions before I invest more hours. A short written answer is "
    "fine; detail matters more than polish here.")
_PROGRESS = Template(
    "Progress report for", "{task}:",
    "{progress:.0%} complete, {hours:.2f} of {estimated:.2f} hours logged, "
    "alignment {af:.2f}.", "{status}")
_FINISHED = "Subtask finished; ready for the next assignment."
_ON_TRACK = "On track; no blockers beyond the noted alignment."
_MEETING = Template(
    "Coordination meeting about", "{task}:",
    "downstream work is blocked on it. Agenda: sequencing, interface contracts, "
    "handoffs.")
# A clarification answer is a full scope brief: it pins acceptance criteria,
# constraints, interfaces, sequencing, and escalation, so it goes out as a
# long-form message. Help answers are short peer pointers.
_SCOPE_BRIEF = Template(
    "Re", "{task}:",
    "scope brief follows. Objective: deliver exactly what the subtask "
    "description states, interpreted narrowly; anything the description does "
    "not name is out of scope until we agree otherwise. Acceptance criteria: "
    "the deliverable covers the described scope end to end, passes its own "
    "verification, and leaves neighboring behavior unchanged unless the "
    "description says otherwise; partial work counts only once it is integrated "
    "and demonstrable. Constraints: stay within the estimated effort envelope, "
    "prefer the established patterns of this team over new abstractions, keep "
    "every interface you expose backward compatible, and take no dependencies "
    "beyond what the team already uses. Interfaces: consume the inputs named in "
    "the task description as they stand today; if you must extend one, write "
    "the extension down and circulate it before building on top of it. "
    "Sequencing: land the smallest end-to-end slice first, then widen coverage; "
    "plan review checkpoints at half and at full completion. Quality bar: "
    "verification accompanies the change, edge cases named in the description "
    "are exercised, and failure paths degrade loudly rather than silently. "
    "Risks to watch: hidden coupling to neighboring workstreams, assumptions "
    "about data shape that nobody has confirmed, and effort sinks in polishing "
    "before the slice works at all. Escalation: if a blocker costs you more "
    "than a few hours, raise it to me instead of burning time on it; if you "
    "need a skill the task lists and you lack, ask the teammate who has it "
    "directly. Reporting: send progress notes at the usual milestones so the "
    "roll-up stays accurate. Definition of done: the subtask is complete when "
    "its estimated effort has produced the described outcome, verification "
    "passes, and the progress roll-up reflects it without manual correction "
    "from me. This brief is the authoritative scope statement for the subtask; "
    "where it conflicts with informal conversation, the brief wins. Proceed on "
    "this basis and flag anything that still reads ambiguous to you.")
_APPROACH = Template(
    "Re", "{task}:",
    "suggested approach follows. Start from the smallest end-to-end slice, reuse "
    "our existing patterns for", "{skills},",
    "and validate against the estimate before expanding. Known pitfalls: hidden "
    "coupling and unverified assumptions; check both, then iterate.")
_ACKNOWLEDGED = Template("Re", "{task}:", "acknowledged.")
# What the engine sends attendees when a meeting convenes.
MEETING_START = Template("Meeting", "{meeting}", "starting now.")


def _message(context: PolicyContext, kind: IntentionKind,
             view: TaskAssignmentView) -> tuple[Template, dict]:
    """The template and fields of an outbound communication."""
    if kind is IntentionKind.NEED_CLARIFICATION:
        return _CLARIFICATION, {"task": view.task_id, "description": view.description,
                                "af": view.af}
    if kind is IntentionKind.REQUEST_HELP:
        own = context.agent.skills
        return _HELP, {
            "task": view.task_id, "description": view.description,
            "hours": view.hours_worked, "progress": view.progress, "af": view.af,
            "required": ", ".join(sorted(view.required_skills)) or "unspecified",
            "own": ", ".join(sorted(own)),
            "gap": ", ".join(sorted(view.required_skills - own)) or "none",
        }
    if kind is IntentionKind.REPORT_PROGRESS:
        return _PROGRESS, {
            "task": view.task_id, "progress": view.progress,
            "hours": view.hours_worked, "estimated": view.estimated_hours,
            "af": view.af, "status": _FINISHED if view.progress >= 1.0 else _ON_TRACK,
        }
    if kind is IntentionKind.SCHEDULE_MEETING:
        return _MEETING, {"task": view.task_id}
    raise ValueError(f"{kind.value} has no message content")


def compose_message(context: PolicyContext, kind: IntentionKind,
                    view: TaskAssignmentView) -> str:
    """Deterministic content for an outbound communication."""
    template, fields = _message(context, kind, view)
    return template.compose(fields)


def message_words(context: PolicyContext, kind: IntentionKind,
                  view: TaskAssignmentView) -> int:
    """`word_count(compose_message(context, kind, view))`, without the text."""
    template, fields = _message(context, kind, view)
    return template.words(fields)


def _reply(task_id: str | None, root_type: MessageType,
           replier: AgentProfile) -> tuple[Template, dict]:
    """The template and fields of a reply, keyed by what the thread asked for."""
    task = task_id or "your task"
    if root_type is MessageType.NEED_CLARIFICATION:
        return _SCOPE_BRIEF, {"task": task}
    if root_type is MessageType.HELP_REQUEST:
        return _APPROACH, {"task": task,
                           "skills": ", ".join(sorted(replier.skills)) or "the relevant area"}
    return _ACKNOWLEDGED, {"task": task}


def compose_reply(task_id: str | None, root_type: MessageType,
                  replier: AgentProfile) -> str:
    """Deterministic reply content, keyed by what the thread asked for."""
    template, fields = _reply(task_id, root_type, replier)
    return template.compose(fields)


def reply_words(task_id: str | None, root_type: MessageType,
                replier: AgentProfile) -> int:
    """`word_count(compose_reply(task_id, root_type, replier))`, without the text."""
    template, fields = _reply(task_id, root_type, replier)
    return template.words(fields)


def reply_channel(words: int) -> Channel:
    """Long-form answers travel by email, short ones by chat.

    Mirrors the length rule used for initiations: a reply of `words` words is
    a detailed explanation once it reaches LONG_CONTENT_WORDS, whatever
    channel the request used. Meeting threads never take replies.
    """
    if words >= LONG_CONTENT_WORDS:
        return Channel.EMAIL
    return Channel.CHAT
