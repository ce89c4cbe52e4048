"""A message costs its word count, not its text.

Each composer's word-count twin must give the count of the text the composer
writes, for any description, skill set, task label or number; the `llm`
evaluator, the one reader of message text, must get the text it always got;
an `llm`-evaluated run must compose only the text of requests and replies; and
a rule-based run must compose no text at all.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from teamsim import engine
from teamsim.adapter import ChatCompletionAdapter
from teamsim.comms import MessageType, word_count
from teamsim.engine import Simulation
from teamsim.model import AgentProfile, Role
from teamsim.policy import (MEETING_START, IntentionKind, PolicyContext,
                            TaskAssignmentView, Template, compose_message,
                            compose_reply, message_words, reply_words)

from conftest import ChainPlanner, chain_scenario, of_kind, shipped_scenario

# Every character `str.split()` splits at, and some it does not.
_WHITESPACE = (" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2007"
               "\u200a\u2028\u2029\u202f\u205f\u3000")
_NOT_WHITESPACE = "ab:;,.%{}\u200b\ufeff"
_texts = st.text(st.one_of(st.sampled_from(_WHITESPACE + _NOT_WHITESPACE),
                           st.characters()), max_size=12)
# Skills as a scenario never holds them: empty, or padded with spaces.
_skills = st.frozensets(st.one_of(_texts, st.sampled_from(["", " ", " api ", "a b"])),
                        max_size=4)
_numbers = st.one_of(st.floats(), st.sampled_from([1e308, -1e308, 5e-324, 1e16]))
_COMPOSING = [IntentionKind.NEED_CLARIFICATION, IntentionKind.REQUEST_HELP,
              IntentionKind.REPORT_PROGRESS, IntentionKind.SCHEDULE_MEETING]


@st.composite
def _views(draw) -> TaskAssignmentView:
    progress = draw(st.one_of(_numbers, st.sampled_from([0.5, 1.0])))
    return TaskAssignmentView(
        task_id=draw(_texts), description=draw(_texts),
        estimated_hours=draw(_numbers), required_skills=draw(_skills),
        af=draw(_numbers), hours_worked=draw(_numbers), progress=progress,
        done=False)


def _agent(skills: frozenset[str]) -> AgentProfile:
    return AgentProfile("W1", "W1", Role.WORKER, skills)


def _context(skills: frozenset[str]) -> PolicyContext:
    # A composer reads only the agent from its context.
    return PolicyContext((_agent(skills), 0, (), "M1", None, "W1"))


@settings(max_examples=300, deadline=None, derandomize=True)
@example(IntentionKind.REQUEST_HELP, frozenset({" ", ""}), TaskAssignmentView(
    "", "\u3000", float("nan"), frozenset({"", "b\x85c"}), float("inf"), 1e308,
    -float("inf"), False))
@given(st.sampled_from(_COMPOSING), _skills, _views())
def test_message_words_count_the_composed_text(kind, skills, view):
    context = _context(skills)
    assert message_words(context, kind, view) == \
        word_count(compose_message(context, kind, view))


@settings(max_examples=200, deadline=None, derandomize=True)
@example(None, MessageType.HELP_REQUEST, frozenset())
@example(" T1 ", MessageType.NEED_CLARIFICATION, frozenset({"a"}))
@given(st.one_of(st.none(), _texts), st.sampled_from(list(MessageType)), _skills)
def test_reply_words_count_the_composed_text(task_id, root_type, skills):
    replier = _agent(skills)
    assert reply_words(task_id, root_type, replier) == \
        word_count(compose_reply(task_id, root_type, replier))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_texts)
def test_meeting_start_words_count_the_composed_text(meeting_id):
    fields = {"meeting": meeting_id}
    assert MEETING_START.words(fields) == word_count(MEETING_START.compose(fields))


def _stub_adapter(bodies: list[bytes]) -> ChatCompletionAdapter:
    def transport(url, body, headers):
        bodies.append(body)
        reply = json.dumps({"new_alignment_factor": 0.45})
        return json.dumps({"choices": [{"message": {"content": reply}}]}).encode()

    return ChatCompletionAdapter(endpoint="http://localhost:0", model="stub",
                                 max_retries=0, transport=transport)


@pytest.mark.parametrize("name,policy,requests,digest", [
    # Help requests and the replies that answer them.
    ("medium", "fixed_steps", 15,
     "008d1ba51d0b47cc732adac928f0cde26b409d957e4bcce00be4c2da7a63f8ca"),
    # Clarifications and the scope briefs that answer them.
    ("multi_task", "c2c_heuristic", 16,
     "da3a000f4e9189379d23d2b317a4bbe1773734f014e4e3b4e3e2aad7f223b10b"),
])
def test_llm_evaluator_reads_the_text_it_always_read(name, policy, requests, digest):
    """The evaluation request bodies, pinned from the commit that composed
    every message's text."""
    bodies: list[bytes] = []
    scenario = dataclasses.replace(shipped_scenario(name, policy), evaluator_name="llm")
    Simulation(scenario, adapter=_stub_adapter(bodies)).run()
    assert len(bodies) == requests
    assert hashlib.sha256(b"\n".join(bodies)).hexdigest() == digest


def _counting_composers(monkeypatch) -> list[str]:
    """Count every text the engine composes, by kind of composer."""
    calls: list[str] = []
    for name in ("compose_message", "compose_reply"):
        composer = getattr(engine, name)

        def counting(*args, _name=name, _composer=composer):
            calls.append(_name)
            return _composer(*args)

        monkeypatch.setattr(engine, name, counting)
    compose = Template.compose

    def counting_template(self, fields):
        calls.append("template")
        return compose(self, fields)

    monkeypatch.setattr(Template, "compose", counting_template)
    return calls


@pytest.mark.parametrize("run", ["multi_task/c2c_heuristic", "medium/fixed_steps",
                                 "meeting"])
def test_a_rule_based_run_composes_no_text(monkeypatch, run):
    calls = _counting_composers(monkeypatch)
    if run == "meeting":
        scenario = dataclasses.replace(chain_scenario(), policy_name="c2c_heuristic")
        result = Simulation(scenario, planner=ChainPlanner()).run()
        types = {r["type"] for r in of_kind(result.trace, "message_sent")}
        assert {"MEETING_INVITE", "MEETING_START"} <= types
    else:
        result = Simulation(shipped_scenario(*run.split("/"))).run()
    assert of_kind(result.trace, "message_sent")
    assert calls == []
    assert all(thread.root.content is None for thread in result.world.threads.values())


def test_an_llm_evaluated_run_composes_only_requests_and_replies(monkeypatch):
    """The evaluator reads a request's text and its reply's; no other
    message's text is composed. The run holds a meeting and sends progress
    updates, so every kind of message but a help request is sent."""
    calls = _counting_composers(monkeypatch)
    made: list[engine.Message] = []

    class RecordedMessage(engine.Message):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(engine, "Message", RecordedMessage)
    scenario = dataclasses.replace(chain_scenario(), policy_name="c2c_heuristic",
                                   evaluator_name="llm")
    result = Simulation(scenario, planner=ChainPlanner(),
                        adapter=_stub_adapter([])).run()
    sent = {r["message_id"]: r for r in of_kind(result.trace, "message_sent")}
    read = {"HELP_REQUEST", "NEED_CLARIFICATION", "RESPONSE"}
    assert {"NEED_CLARIFICATION", "RESPONSE", "PROGRESS_UPDATE", "MEETING_INVITE",
            "MEETING_START"} <= {r["type"] for r in sent.values()}
    assert [m.message_id for m in made] == list(sent)
    composed = [m for m in made if m.content is not None]
    assert [m.message_id for m in composed] == [
        m for m, r in sent.items() if r["type"] in read]
    # One template fill per composed message; the composer kinds on top of it.
    assert calls.count("template") == len(composed)
    assert calls.count("compose_message") + calls.count("compose_reply") == len(composed)
    for message in composed:
        assert word_count(message.content) == sent[message.message_id]["words"]
