"""The engine's message path as it was while it went through views and helpers.

Each end of a message is one frame in `teamsim.engine`: a send builds its
task view in `_start_communication`, prices itself through the cached
`message_price`, and `_complete_send`, `_complete_reply`, `_start_meeting`
and `World.deliver` append their records to the step's batch themselves. This
module keeps the path those replaced, so that a test can check the new one
against it:

- `start_communication` built the hinted task's view, or the active task's,
  through `World.task_view`, and priced the message with `select_channel`,
  `communication_cost` and `hours_to_steps` at every send. It picks its
  recipients with `select_recipients` as that read then, kept here too, so
  that a change to the policy's tie-breaks shows against it;
- `start_check_messages` gathered every actionable inbox item, sorted them
  and took the first, and priced the reply the same way;
- `post` and `trace_sent` built, traced and queued a message for
  `complete_send` and `complete_reply`, and `deliver` traced a delivery
  through `World.emit`.

`OracleSimulation` runs that whole path.
"""

from __future__ import annotations

from bisect import insort

from teamsim.comms import (CHANNEL_NAMES, REQUEST_TYPES, TYPE_NAMES, Channel, Meeting,
                           MeetingStatus, Message, MessageType, Thread,
                           communication_cost)
from teamsim.engine import (INTENTION_MESSAGE_TYPES, ActionKind, ActiveAction, Outgoing,
                            Simulation, World)
from teamsim.model import Role, hours_to_steps, order_key
from teamsim.policy import (MEETING_START, IntentionKind, LastAction,
                            compose_message, compose_reply, message_words, reply_channel,
                            reply_words, select_channel)


def select_recipients(context, kind, view) -> list[str]:
    """Who a communicating intention about the task `view` shows addresses."""
    if kind in (IntentionKind.NEED_CLARIFICATION, IntentionKind.REPORT_PROGRESS):
        return [context.manager_id]
    if kind is IntentionKind.REQUEST_HELP:
        required = view.required_skills
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
    blocked = context.blocked_collaborators.get(view.task_id, ())
    return [agent_id for agent_id in dict.fromkeys([context.manager_id, *blocked])
            if agent_id != context.agent.agent_id]


def hinted_view(self: Simulation, agent_id, intention):
    node = self.world.graph.nodes.get(intention.task_hint)
    if node is None or node.assignee != agent_id:
        return None
    return self.world.task_view(agent_id, node.task_id)


def active_view(world: World, agent_id):
    task_id = world.active_task_id[agent_id]
    return None if task_id is None else world.task_view(agent_id, task_id)


def start_communication(self: Simulation, agent_id, context, intention, kind) -> bool:
    world = self.world
    view = hinted_view(self, agent_id, intention) or active_view(world, agent_id)
    if view is None:
        return False
    recipients = select_recipients(context, kind, view)
    if not recipients:
        return False
    words = message_words(context, kind, view)
    channel = select_channel(kind, words)
    cost = communication_cost(channel, words, max(1, len(recipients)))
    duration = max(1, hours_to_steps(cost))
    message_type = INTENTION_MESSAGE_TYPES[kind]
    content = (compose_message(context, kind, view)
               if self.composes_text and message_type in REQUEST_TYPES else None)
    world.active[agent_id] = ActiveAction(
        ActionKind.COMMUNICATE, view.task_id, duration, Outgoing(
            message_type, content, words, tuple(recipients), channel, view.task_id,
            cost))
    return True


def start_check_messages(self: Simulation, agent_id) -> bool:
    world = self.world
    items = []
    for delivery, message_id, meeting_id in world.pending_invites(agent_id):
        items.append((delivery, message_id, ActionKind.RSVP, meeting_id))
    for thread_id in world.unanswered_inbound(agent_id):
        root = world.threads[thread_id].root
        items.append((root.sent_step + 1, root.message_id, ActionKind.REPLY, thread_id))
    if not items:
        world.clear_meeting_start(agent_id)
        return False
    items.sort()
    _, _, kind, target = items[0]
    if kind is ActionKind.RSVP:
        world.active[agent_id] = ActiveAction(kind, target, 1, None)
        return True
    root = world.threads[target].root
    replier = world.agents[agent_id]
    words = reply_words(root.about_task, root.message_type, replier)
    channel = reply_channel(words)
    cost = communication_cost(channel, words)
    duration = max(1, hours_to_steps(cost))
    content = (compose_reply(root.about_task, root.message_type, replier)
               if self.composes_text else None)
    world.active[agent_id] = ActiveAction(kind, target, duration, Outgoing(
        MessageType.RESPONSE, content, words, (root.from_agent,), channel,
        root.about_task, cost))
    return True


def trace_sent(self: Simulation, message: Message, words: int, t: int) -> None:
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


def post(self: Simulation, agent_id, outgoing: Outgoing, thread_id, meeting_id,
         t: int) -> Message:
    world = self.world
    message = Message(next(world.message_ids), thread_id, agent_id, outgoing.recipients,
                      outgoing.channel, outgoing.message_type, outgoing.content, t,
                      outgoing.about_task, meeting_id, outgoing.cost)
    world.comm_cost_total += outgoing.cost
    trace_sent(self, message, outgoing.words, t)
    world.buffer.enqueue(message, t)
    world.last_actions[agent_id] = LastAction(
        "message_sent", TYPE_NAMES[outgoing.message_type], t)
    return message


def complete_send(self: Simulation, agent_id, outgoing: Outgoing, t: int) -> None:
    world = self.world
    message_type = outgoing.message_type
    meeting_id = None
    if message_type is MessageType.MEETING_INVITE:
        meeting_id = next(world.meeting_ids)
    message = post(self, agent_id, outgoing, next(world.thread_ids), meeting_id, t)
    if message_type in REQUEST_TYPES:
        world.open_thread(Thread(message))
    elif meeting_id is not None:
        world.open_meeting(Meeting(message))
    else:
        world.record_report(agent_id, outgoing.about_task)


def complete_reply(self: Simulation, agent_id, thread_id, outgoing: Outgoing,
                   t: int) -> None:
    world = self.world
    thread = world.threads[thread_id]
    if not thread.open:
        world.last_actions[agent_id] = LastAction("reply_dropped", None, t)
        world.emit({
            "step": t, "seq": None, "kind": "warning",
            "source": "reply",
            "detail": f"reply dropped, thread closed: {thread_id}",
        })
        return
    post(self, agent_id, outgoing, thread_id, None, t)
    thread.answered = True


def start_meeting(self: Simulation, meeting: Meeting, t: int) -> None:
    world = self.world
    invite = meeting.invite
    attendees = tuple(sorted({invite.from_agent} | meeting.attending, key=order_key))
    cost = communication_cost(Channel.MEETING, 0, len(attendees))
    duration = max(1, hours_to_steps(cost))
    meeting.status = MeetingStatus.RUNNING
    meeting.attendees = attendees
    start = Message(next(world.message_ids), next(world.thread_ids), invite.from_agent,
                    attendees, Channel.MEETING, MessageType.MEETING_START, None, t - 1,
                    invite.about_task, invite.meeting_id, cost)
    world.comm_cost_total += cost
    trace_sent(self, start, MEETING_START.words({"meeting": invite.meeting_id}), t)
    for recipient in attendees:
        world.deliver(start, recipient, t)
    for agent_id in attendees:
        world.active[agent_id] = ActiveAction(
            ActionKind.MEETING, invite.meeting_id, duration, None)


def deliver(world: World, message: Message, recipient: str, t: int) -> None:
    """`World.deliver`, its record traced through `World.emit`."""
    kind = message.message_type
    name = TYPE_NAMES[kind]
    if world.delivered is not None:
        counts = world.delivered[recipient]
        counts[name] = counts.get(name, 0) + 1
    if kind in REQUEST_TYPES and message.from_agent != recipient:
        insort(world.inbound_requests[recipient],
               (t, message.message_id, message.thread_id))
    elif kind is MessageType.MEETING_INVITE:
        insort(world.invites[recipient], (t, message.message_id, message.meeting_id))
    elif kind is MessageType.MEETING_START:
        world.meeting_started.add(recipient)
    world.emit({
        "step": t, "seq": None, "kind": "message_delivered",
        "message_id": message.message_id,
        "to": recipient,
        "from": message.from_agent,
        "type": name,
        "thread_id": message.thread_id,
    })


class OracleSimulation(Simulation):
    """A `Simulation` whose every message starts, is sent, answered and
    delivered through the path above."""

    _start_communication = start_communication
    _start_check_messages = start_check_messages
    _complete_send = complete_send
    _complete_reply = complete_reply
    _start_meeting = start_meeting

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        world = self.world
        world.deliver = lambda message, recipient, t: deliver(world, message, recipient, t)
