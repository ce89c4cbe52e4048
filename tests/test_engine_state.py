"""Engine state has one source per fact.

`World` keeps per-type delivery counts instead of inboxes, the trace's
`af_update` events are the only alignment history, and an alignment
evaluation carries the delivered reply instead of copies of its fields. These
tests check that the prompts built from that state are the ones the copies
gave, and that no delivered message outlives its last reader.
"""

import dataclasses
import gc
import hashlib
import json

import pytest

from teamsim import engine
from teamsim.adapter import ChatCompletionAdapter
from teamsim.comms import Message
from teamsim.config import expand_team_shorthand
from teamsim.engine import Simulation
from teamsim.model import Scenario, validate_scenario
from teamsim.policy import LlmPolicy
from teamsim import prompts

from conftest import (MEDIUM_TASK, SHIPPED_RUNS, SKILL_POOL, log_deliveries, of_kind,
                      shipped_scenario)


def inbox_messages(context, inbox: list[Message]) -> list[dict]:
    """`LlmPolicy._messages` as it was when each context held the agent's
    whole inbox: the per-type counts are taken from the delivered messages."""
    lines = []
    for view in context.assigned[:3]:
        lines.append(
            f"- {view.task_id}: {view.description} | progress "
            f"{view.progress:.0%} | alignment {view.af:.2f} | "
            f"{view.hours_worked:.2f}/{view.estimated_hours:.2f} hours"
        )
    tasks_block = "\n".join(lines) if lines else "- (no assigned tasks)"
    counts: dict[str, int] = {}
    for message in inbox:
        counts[message.message_type.value] = counts.get(message.message_type.value, 0) + 1
    inbox_desc = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items())) or "empty"
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


@pytest.mark.parametrize("name,policy", SHIPPED_RUNS)
def test_intention_prompts_count_the_delivered_messages(monkeypatch, name, policy):
    sim = Simulation(shipped_scenario(name, policy))
    delivered = log_deliveries(sim.world)
    build_context = engine.build_context
    checked = []

    def checking(world, agent_id, team):
        context = build_context(world, agent_id, team)
        assert LlmPolicy._messages(context) == \
            inbox_messages(context, delivered[agent_id])
        checked.append(sum(context.delivered_by_type.values()))
        return context

    monkeypatch.setattr(engine, "build_context", checking)
    sim.run()
    assert checked
    if policy != "no_comm":
        assert max(checked) > 0


def test_evaluator_requests_are_unchanged():
    """The evaluator's request bodies on `simple` under `c2c_heuristic`, with
    the root's content read from `World.thread_root` and the reply's fields
    from the delivered reply; pinned from the copies they replaced."""
    bodies = []

    def transport(url, body, headers):
        bodies.append(body)
        reply = json.dumps({"new_alignment_factor": 0.45, "reasoning": "stub"})
        return json.dumps({"choices": [{"message": {"content": reply}}]}).encode()

    adapter = ChatCompletionAdapter(endpoint="http://localhost:0", model="stub",
                                    max_retries=0, transport=transport)
    scenario = dataclasses.replace(shipped_scenario("simple", "c2c_heuristic"),
                                   evaluator_name="llm")
    Simulation(scenario, adapter=adapter).run()
    assert len(bodies) == 4
    assert hashlib.sha256(b"\n".join(bodies)).hexdigest() == \
        "fe1c549574a5b73a9df4f76a5f3bf3e38b0d370f7715f67bc46e0df391e04976"


def test_delivered_messages_are_freed_unless_thread_roots():
    """After a 16-root run, the only `Message` objects alive are thread roots
    and messages still undelivered: a delivered reply or meeting start is
    freed once it has been read."""
    scenario = validate_scenario(Scenario(
        name="16_roots", team=expand_team_shorthand("1M+16W", SKILL_POOL),
        tasks=[MEDIUM_TASK] * 16, policy_name="c2c_heuristic",
        skill_pool=tuple(SKILL_POOL), team_label="1M+16W",
    ))
    gc.collect()
    # Held, so that no id of an earlier message can be reused by this run's.
    earlier = [o for o in gc.get_objects() if type(o) is Message]
    result = Simulation(scenario, max_steps=3000).run()
    gc.collect()
    seen = {id(o) for o in earlier}
    live = {id(o) for o in gc.get_objects() if type(o) is Message} - seen
    world = result.world
    assert result.completed
    assert live == {id(m) for m in world.thread_root.values()} | \
        {id(m) for m in world.buffer.pending}
    assert len(live) < len(of_kind(result.trace, "message_sent"))
