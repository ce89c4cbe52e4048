"""Messages, threads, channel cost models, and forward-only buffered delivery.

A message sent at step t becomes readable at t+1, never sooner; that delivery
step is always `sent_step + 1` and is not stored. The buffer keeps pending
messages in a canonical (sent_step, sender, id) order so that delivery order is
reproducible run to run.

A thread is its root message plus reply state, and a meeting is its invite
plus RSVP state: the id, sender, type, recipients and task of either are read
from that one message.
"""

from __future__ import annotations

import bisect
import math
from enum import Enum

MAX_REPLY_ROUNDS = 3

CHAT_BASE_MIN = 3
CHAT_WORDS_PER_MINUTE_BLOCK = 100
EMAIL_BASE_MIN = 9
EMAIL_WORDS_PER_MINUTE_BLOCK = 50
MEETING_FLOOR_MIN = 30
MEETING_PREP_MIN = 5
MEETING_PER_PARTICIPANT_MIN = 2


class CommError(ValueError):
    pass


class ThreadClosedError(CommError):
    pass


class ThreadDepthError(CommError):
    pass


class Channel(str, Enum):
    CHAT = "chat"
    EMAIL = "email"
    MEETING = "meeting"


class MessageType(str, Enum):
    HELP_REQUEST = "HELP_REQUEST"
    NEED_CLARIFICATION = "NEED_CLARIFICATION"
    PROGRESS_UPDATE = "PROGRESS_UPDATE"
    MEETING_INVITE = "MEETING_INVITE"
    MEETING_START = "MEETING_START"
    RESPONSE = "RESPONSE"


# Each member's string, read once: `.value` goes through a Python-level
# descriptor, and the trace reads these for every message.
TYPE_NAMES = {member: member.value for member in MessageType}
CHANNEL_NAMES = {member: member.value for member in Channel}

# Message types that expect a reply; progress updates are fire-and-forget.
REQUEST_TYPES = frozenset({MessageType.HELP_REQUEST, MessageType.NEED_CLARIFICATION})


def word_count(content: str) -> int:
    return len(content.split())


def communication_cost(channel: Channel, content_word_count: int,
                       participants: int = 1) -> float:
    """Hours a communication action costs its initiator (or all attendees).

    chat:    3 min base + 1 min per started 100 words
    email:   9 min base + 1 min per started 50 words
    meeting: max(30, 30 + 5 prep + 2 per participant) min
    """
    if content_word_count < 0:
        raise CommError(f"negative word count: {content_word_count}")
    if channel is Channel.CHAT:
        minutes = CHAT_BASE_MIN + math.ceil(content_word_count / CHAT_WORDS_PER_MINUTE_BLOCK)
    elif channel is Channel.EMAIL:
        minutes = EMAIL_BASE_MIN + math.ceil(content_word_count / EMAIL_WORDS_PER_MINUTE_BLOCK)
    else:
        if participants < 2:
            raise CommError("meeting needs participants")
        minutes = max(
            MEETING_FLOOR_MIN,
            MEETING_FLOOR_MIN + MEETING_PREP_MIN + MEETING_PER_PARTICIPANT_MIN * participants,
        )
    return minutes / 60.0


class Message:
    __slots__ = ("message_id", "thread_id", "from_agent", "to_agents", "channel",
                 "message_type", "content", "sent_step", "about_task",
                 "meeting_id", "cost_hours")

    def __init__(self, message_id: str, thread_id: str, from_agent: str,
                 to_agents: tuple[str, ...], channel: Channel,
                 message_type: MessageType, content: str, sent_step: int,
                 about_task: str | None = None, meeting_id: str | None = None,
                 cost_hours: float = 0.0) -> None:
        if not to_agents:
            raise CommError("message needs recipients")
        if message_type in (MessageType.MEETING_INVITE, MessageType.MEETING_START):
            if meeting_id is None:
                raise CommError(f"{message_type.value} needs a meeting_id")
        self.message_id = message_id
        self.thread_id = thread_id
        self.from_agent = from_agent
        self.to_agents = to_agents
        self.channel = channel
        self.message_type = message_type
        self.content = content
        self.sent_step = sent_step
        self.about_task = about_task
        self.meeting_id = meeting_id
        self.cost_hours = cost_hours


class Thread:
    __slots__ = ("root", "open", "resolver_id", "repliers")

    def __init__(self, root: Message, open: bool = True) -> None:
        self.root = root
        self.open = open
        # The first reply from anyone but the asker to a request; it resolves it.
        self.resolver_id: str | None = None
        # Who has replied, in reply order; at most MAX_REPLY_ROUNDS entries.
        self.repliers: tuple[str, ...] = ()

    def register_reply(self, reply: Message) -> None:
        """Account for one reply round and record who sent it.

        A reply from anyone but the asker resolves a request thread, but the
        thread stays open until that reply lands and its alignment effect is
        applied; closing at send time would let the asker re-request in the
        one-step delivery gap. The depth cap closes immediately.
        """
        if not self.open:
            raise ThreadClosedError("thread closed")
        if len(self.repliers) >= MAX_REPLY_ROUNDS:
            raise ThreadDepthError("thread depth exceeded")
        self.repliers += (reply.from_agent,)
        root = self.root
        if (self.resolver_id is None and reply.from_agent != root.from_agent
                and root.message_type in REQUEST_TYPES):
            self.resolver_id = reply.message_id
        if len(self.repliers) >= MAX_REPLY_ROUNDS:
            self.open = False

    def close(self) -> None:
        self.open = False


class MeetingStatus(str, Enum):
    PENDING = "pending"
    RUNNING = "running"
    HELD = "held"
    CANCELLED = "cancelled"


class Meeting:
    __slots__ = ("invite", "attending", "status", "attendees")

    def __init__(self, invite: Message) -> None:
        self.invite = invite
        # Who accepted; every RSVP accepts.
        self.attending: set[str] = set()
        self.status = MeetingStatus.PENDING
        self.attendees: tuple[str, ...] = ()


def _canonical(message: Message) -> tuple[int, str, str]:
    # Sender ids compare as plain strings here, so W10 sorts before W2.
    return (message.sent_step, message.from_agent, message.message_id)


class CommBuffer:
    """Stages sent messages until their delivery step.

    `pending` is kept in canonical order: each message is inserted in place.
    """

    def __init__(self) -> None:
        self.pending: list[Message] = []

    def enqueue(self, message: Message, current_step: int) -> None:
        if message.sent_step != current_step:
            raise CommError(
                f"message sent_step {message.sent_step} != current step {current_step}"
            )
        bisect.insort(self.pending, message, key=_canonical)

    def pop_due(self, current_step: int) -> list[Message]:
        """Remove and return every message due at `current_step`, in order."""
        due = [m for m in self.pending if m.sent_step < current_step]
        self.pending = [m for m in self.pending if m.sent_step >= current_step]
        return due
