"""Channel cost models, buffered forward-only delivery, and thread limits."""

import random

import pytest

from teamsim.comms import (Channel, CommBuffer, CommError, MAX_REPLY_ROUNDS,
                           Message, MessageType, Thread, ThreadClosedError,
                           ThreadDepthError, communication_cost)


class TestCommunicationCost:
    def test_chat_base(self):
        assert communication_cost(Channel.CHAT, 0) == pytest.approx(3 / 60)

    def test_email_base(self):
        assert communication_cost(Channel.EMAIL, 0) == pytest.approx(9 / 60)

    def test_meeting_four_participants(self):
        assert communication_cost(Channel.MEETING, 0, participants=4) == pytest.approx(43 / 60)

    def test_meeting_needs_participants(self):
        with pytest.raises(CommError, match="meeting needs participants"):
            communication_cost(Channel.MEETING, 0, participants=1)

    def test_chat_word_blocks(self):
        assert communication_cost(Channel.CHAT, 1) == pytest.approx(4 / 60)
        assert communication_cost(Channel.CHAT, 100) == pytest.approx(4 / 60)
        assert communication_cost(Channel.CHAT, 101) == pytest.approx(5 / 60)

    def test_email_word_blocks(self):
        assert communication_cost(Channel.EMAIL, 50) == pytest.approx(10 / 60)
        assert communication_cost(Channel.EMAIL, 51) == pytest.approx(11 / 60)
        assert communication_cost(Channel.EMAIL, 301) == pytest.approx(16 / 60)

    def test_chat_always_cheaper_than_email(self):
        for words in range(0, 500, 25):
            assert (communication_cost(Channel.CHAT, words)
                    < communication_cost(Channel.EMAIL, words))


def message(mid, sender="W1", to=("M1",), step=0, mtype=MessageType.HELP_REQUEST):
    return Message(
        message_id=mid, thread_id=f"th-{mid}", from_agent=sender,
        to_agents=tuple(to), channel=Channel.CHAT, message_type=mtype,
        content="hello there", sent_step=step,
    )


class TestBuffer:
    def test_delivery_is_next_step(self):
        buffer = CommBuffer()
        buffer.enqueue(message("m1", step=10), current_step=10)
        assert buffer.pending[0].delivery_step == 11
        assert buffer.pop_due(10) == []
        due = buffer.pop_due(11)
        assert [m.message_id for m in due] == ["m1"]

    def test_same_step_messages_in_canonical_order(self):
        buffer = CommBuffer()
        buffer.enqueue(message("m2", sender="W2", step=3), 3)
        buffer.enqueue(message("m1", sender="W1", step=3), 3)
        due = buffer.pop_due(4)
        assert [(m.from_agent, m.message_id) for m in due] == [("W1", "m1"), ("W2", "m2")]

    def test_partition_due_and_future(self):
        buffer = CommBuffer()
        for i in range(3):
            buffer.enqueue(message(f"a{i}", step=5), 5)
        later = [message(f"b{i}", step=6) for i in range(2)]
        for m in later:
            buffer.enqueue(m, 6)
        due = buffer.pop_due(6)
        assert len(due) == 3
        assert len(buffer.pending) == 2

    def test_empty_buffer_noop(self):
        assert CommBuffer().pop_due(4) == []

    def test_mismatched_step_rejected(self):
        with pytest.raises(CommError):
            CommBuffer().enqueue(message("m1", step=4), current_step=5)

    def test_randomized_schedule_exactly_once(self):
        rng = random.Random(77)
        buffer = CommBuffer()
        sent: dict[str, int] = {}
        delivered: dict[str, int] = {}
        for step in range(60):
            for m in buffer.pop_due(step):
                for _ in m.to_agents:
                    delivered[m.message_id] = delivered.get(m.message_id, 0) + 1
                assert m.delivery_step == sent[m.message_id] + 1
            for _ in range(rng.randint(0, 4)):
                mid = f"m{len(sent)}"
                buffer.enqueue(message(mid, step=step), step)
                sent[mid] = step
        # everything sent before the last step was delivered exactly once
        for mid, step in sent.items():
            if step < 59:
                assert delivered[mid] == 1

    def test_pending_stays_canonical_after_shuffled_enqueues(self):
        rng = random.Random(5)
        buffer = CommBuffer()
        senders = [f"W{i}" for i in range(1, 13)] + ["M1"]
        count = 0
        for step in range(20):
            buffer.pop_due(step)
            batch = []
            for _ in range(rng.randint(0, 12)):
                count += 1
                batch.append(message(f"m{count}", sender=rng.choice(senders), step=step))
            rng.shuffle(batch)
            for m in batch:
                buffer.enqueue(m, step)
                # Senders compare as plain strings: W10 sorts before W2.
                assert buffer.pending == sorted(
                    buffer.pending,
                    key=lambda q: (q.sent_step, q.from_agent, q.message_id))

    def test_sender_ids_order_as_strings(self):
        buffer = CommBuffer()
        for mid, sender in [("m1", "W2"), ("m2", "W10"), ("m3", "W1")]:
            buffer.enqueue(message(mid, sender=sender, step=0), 0)
        assert [m.from_agent for m in buffer.pop_due(1)] == ["W1", "W10", "W2"]


class TestThread:
    def thread(self):
        return Thread(thread_id="th1", root_sender="W1",
                      root_type=MessageType.HELP_REQUEST, about_task="T1.1")

    def test_resolving_reply_marks_resolved_but_stays_open(self):
        thread = self.thread()
        thread.register_reply("W2")
        assert thread.resolved
        assert thread.open
        thread.close()
        assert not thread.open

    def test_depth_cap_closes(self):
        thread = self.thread()
        thread.register_reply("W1")
        thread.register_reply("W1")
        assert thread.open
        thread.register_reply("W1")
        assert thread.reply_rounds == MAX_REPLY_ROUNDS
        assert not thread.open

    def test_reply_past_depth_rejected(self):
        thread = self.thread()
        for _ in range(3):
            thread.register_reply("W1")
        with pytest.raises(ThreadClosedError, match="thread closed"):
            thread.register_reply("W2")

    def test_reply_to_closed_thread_rejected(self):
        thread = self.thread()
        thread.close()
        with pytest.raises(ThreadClosedError, match="thread closed"):
            thread.register_reply("W2")

    def test_depth_error_when_forced(self):
        thread = self.thread()
        thread.reply_rounds = MAX_REPLY_ROUNDS
        with pytest.raises(ThreadDepthError, match="thread depth exceeded"):
            thread.register_reply("W2")


class TestMessageInvariants:
    def test_needs_recipients(self):
        with pytest.raises(CommError, match="recipients"):
            Message(message_id="m1", thread_id="t", from_agent="W1",
                    to_agents=(), channel=Channel.CHAT,
                    message_type=MessageType.RESPONSE, content="", sent_step=0)

    def test_meeting_messages_need_meeting_id(self):
        with pytest.raises(CommError, match="meeting_id"):
            Message(message_id="m1", thread_id="t", from_agent="W1",
                    to_agents=("M1",), channel=Channel.MEETING,
                    message_type=MessageType.MEETING_INVITE, content="",
                    sent_step=0)
