"""The deterministic policies' decides as they were while they read task
views through context properties, kept as the oracle the table-reading
decides are checked against.

`ViewContext` answers each field the old decides read as the old
`PolicyContext` property and `World` method answered it: the held, the
active and the report-due tasks as views of the old shape, `OldView`, built
as `World.task_view` built them, and every inbox, request and meeting fact
through `World`'s query methods.
`heuristic_decide` and `fixed_steps_decide` are the old bodies of
`HeuristicPolicy.decide` and `FixedStepsPolicy.decide`, unchanged but for
reading a `ViewContext`.
"""

from __future__ import annotations

from typing import NamedTuple

from teamsim.comms import MessageType, TYPE_NAMES
from teamsim.engine import WORKABLE
from teamsim.model import Role, _new_tuple, order_key
from teamsim.policy import (AF_ATTENTION_THRESHOLD, CHECK_INBOX, CONTINUE,
                            FIXED_COMM_INTERVAL, STUCK_STEP_THRESHOLD, Intention,
                            IntentionKind, PolicyContext)


class OldView(NamedTuple):
    """`TaskAssignmentView` as it was while the decides read views: with
    the stuck count, the pending milestone and readiness."""

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


def old_view(world, agent_id: str, task_id: str) -> OldView:
    node = world.graph.node(task_id)
    stats = world.stats[agent_id, task_id]
    return OldView(task_id, node.description, node.estimated_hours,
                   node.required_skills, world.alignment.get(agent_id, task_id),
                   stats.hours_worked, stats.stuck_worked_steps, node.progress,
                   stats.pending_milestone, node.status in WORKABLE, node.done)


class ViewContext:
    """The old context fields of one `PolicyContext`, read from its `World`."""

    def __init__(self, context: PolicyContext) -> None:
        self.world, self.agent_id = context[4], context[5]
        self.agent, self.step = context.agent, context.step

    @property
    def assigned(self):
        return tuple(old_view(self.world, self.agent_id, task_id)
                     for task_id in self.world.assignments[self.agent_id])

    @property
    def active_task(self):
        task_id = self.world.active_task_id[self.agent_id]
        return None if task_id is None else old_view(self.world, self.agent_id, task_id)

    @property
    def report_due(self):
        due = self.world.due[self.agent_id]
        return old_view(self.world, self.agent_id, min(due, key=order_key)) if due else None

    @property
    def last_action(self):
        return self.world.last_actions.get(self.agent_id)

    @property
    def unanswered_inbound(self):
        return self.world.unanswered_inbound(self.agent_id)

    @property
    def open_outbound_tasks(self):
        return self.world.open_outbound_tasks(self.agent_id)

    @property
    def has_unprocessed_invite(self):
        return bool(self.world.invites[self.agent_id]
                    and self.world.pending_invites(self.agent_id))

    @property
    def has_meeting_start(self):
        return self.agent_id in self.world.meeting_started

    @property
    def blocked_collaborators(self):
        return self.world.blocked_collaborators(self.agent_id)

    @property
    def meeting_organized_tasks(self):
        return self.world.organized[self.agent_id]


def heuristic_decide(context: PolicyContext) -> Intention:
    context = ViewContext(context)
    if (context.has_unprocessed_invite or context.has_meeting_start
            or context.unanswered_inbound):
        return CHECK_INBOX

    active = context.active_task
    # Both requests need a low alignment, tested before the open-request
    # set is read.
    if (active is not None and active.af < AF_ATTENTION_THRESHOLD
            and active.task_id not in context.open_outbound_tasks):
        if active.hours_worked > 0 and active.stuck_worked_steps >= STUCK_STEP_THRESHOLD:
            return _new_tuple(Intention, (
                IntentionKind.REQUEST_HELP, active.task_id, ()))
        if active.hours_worked == 0:
            return _new_tuple(Intention, (
                IntentionKind.NEED_CLARIFICATION, active.task_id, ()))

    for task_id, blocked in context.blocked_collaborators.items():
        if len(blocked) >= 2 and task_id not in context.meeting_organized_tasks:
            return _new_tuple(Intention, (
                IntentionKind.SCHEDULE_MEETING, task_id, ()))

    due = context.report_due
    if due is not None:
        return _new_tuple(Intention, (IntentionKind.REPORT_PROGRESS, due.task_id, ()))

    return CONTINUE


def fixed_steps_decide(context: PolicyContext,
                       interval: int = FIXED_COMM_INTERVAL) -> Intention:
    context = ViewContext(context)
    if context.agent.role is Role.WORKER:
        last = context.last_action
        follow_up = (
            last is not None
            and last.kind == "message_sent"
            and last.message_type == TYPE_NAMES[MessageType.PROGRESS_UPDATE]
            and last.step > 0
            and last.step % interval == 0
        )
        report = context.step > 0 and context.step % interval == 0
        # The open tasks matter only on a follow-up or a report step.
        open_tasks = ([v for v in context.assigned if not v.done]
                      if follow_up or report else None)
        if follow_up and open_tasks:
            weakest = min(open_tasks, key=lambda v: (v.af, order_key(v.task_id)))
            if weakest.task_id not in context.open_outbound_tasks:
                return _new_tuple(Intention, (
                    IntentionKind.REQUEST_HELP, weakest.task_id, ()))
        if report and open_tasks:
            return _new_tuple(Intention, (
                IntentionKind.REPORT_PROGRESS, open_tasks[0].task_id, ()))
    if context.unanswered_inbound or context.has_unprocessed_invite:
        return CHECK_INBOX
    return CONTINUE
