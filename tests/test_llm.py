"""The model-backed policy, planner and evaluator, driven offline through the
adapter's injectable `transport`."""

import dataclasses
import hashlib
import json

import pytest

from teamsim import engine
from teamsim.adapter import ChatCompletionAdapter
from teamsim.engine import Simulation
from teamsim.policy import HeuristicPolicy

from conftest import ChainPlanner, chain_scenario, shipped_scenario


def completion(content) -> bytes:
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode()


def answering(raw: bytes, bodies: list[bytes] | None = None) -> ChatCompletionAdapter:
    """An adapter whose endpoint answers every request with the body `raw`,
    appending each request body to `bodies` when given."""

    def transport(url, body, headers):
        if bodies is not None:
            bodies.append(body)
        return raw

    return ChatCompletionAdapter(endpoint="http://localhost:0", model="stub",
                                 max_retries=0, transport=transport)


def llm_medium():
    return dataclasses.replace(shipped_scenario("medium", "c2c_llm"),
                               evaluator_name="llm")


def digest(parts) -> str:
    return hashlib.sha256(b"\n".join(parts)).hexdigest()


# `medium` under `c2c_llm` with the `llm` evaluator, every request answered
# `{}`: each intention, plan and evaluation falls back. One digest is over the
# bodies in request order, which only a serial decide fixes; the other over
# the sha256s of the bodies, sorted, which holds for any order.
EMPTY_REPLY_REQUESTS = 275
EMPTY_REPLY_FINAL_STEP = 54
EMPTY_REPLY_BODIES_SHA256 = "60fe019c7beed24b3d2908ef7cbbcd1956ce1213485548433b55a6f95225d358"
EMPTY_REPLY_SORTED_SHA256 = "6528c2872c393402636fb9f7df9620d1305d9b3be5181aa447a0da026d5d1f36"


@pytest.mark.parametrize("parallel_decide", [False, True], ids=["serial", "parallel"])
def test_request_bodies_are_pinned(parallel_decide):
    bodies: list[bytes] = []
    result = Simulation(llm_medium(), adapter=answering(completion("{}"), bodies),
                        parallel_decide=parallel_decide).run()
    assert result.completed and result.final_step == EMPTY_REPLY_FINAL_STEP
    assert len(bodies) == EMPTY_REPLY_REQUESTS
    assert digest(sorted(hashlib.sha256(b).hexdigest().encode() for b in bodies)) == \
        EMPTY_REPLY_SORTED_SHA256
    if not parallel_decide:
        assert digest(bodies) == EMPTY_REPLY_BODIES_SHA256


# Completion bodies the adapter must refuse as an `AdapterError`: content that
# is not text raised `AttributeError` out of `extract_json_object`, and a body
# that is not UTF-8 a bare `UnicodeDecodeError`.
MALFORMED_BODIES = {
    "null_content": completion(None),
    "not_utf8": b'{"choices": [{"message": {"content": "\xff"}}]}',
}


def warnings_of(result, source: str) -> list[str]:
    return [e["detail"] for e in result.trace.events
            if e["kind"] == "warning" and e["source"] == source]


@pytest.mark.parametrize("body", sorted(MALFORMED_BODIES))
def test_malformed_completion_falls_back_in_the_policy(body):
    result = Simulation(shipped_scenario("simple", "c2c_llm"),
                        adapter=answering(MALFORMED_BODIES[body])).run()
    assert result.completed
    details = warnings_of(result, "policy")
    assert details and all(d.startswith("intention adapter fallback: malformed "
                                        "completion response") for d in details)
    assert warnings_of(result, "planner")[-1] == "falling back to even decomposition"


@pytest.mark.parametrize("body", sorted(MALFORMED_BODIES))
def test_malformed_completion_falls_back_in_the_evaluator(body):
    scenario = dataclasses.replace(shipped_scenario("simple", "c2c_heuristic"),
                                   evaluator_name="llm")
    result = Simulation(scenario, adapter=answering(MALFORMED_BODIES[body])).run()
    assert result.completed
    details = warnings_of(result, "evaluator")
    assert details and all(d.startswith("evaluator fallback: malformed completion "
                                        "response") for d in details)


def heuristic_model(monkeypatch) -> ChatCompletionAdapter:
    """An adapter whose model answers each intention prompt with the kind
    `HeuristicPolicy` decides for the same context, and every other request
    (the plan) with `{}`, so the even plan lands."""
    decide = HeuristicPolicy().decide
    answers: list[str] = []
    build_context = engine.build_context

    def building(world, agent_id, busy):
        context = build_context(world, agent_id, busy)
        answers.append(decide(context).kind.value)
        return context

    def transport(url, body, headers):
        content = "{}"
        if "primary intention" in json.loads(body)["messages"][0]["content"]:
            content = json.dumps({"intention": answers.pop(0)})
        return completion(content)

    monkeypatch.setattr(engine, "build_context", building)
    return ChatCompletionAdapter(endpoint="http://localhost:0", model="stub",
                                 max_retries=0, transport=transport)


def events_but_warnings(result) -> list[dict]:
    return [{key: value for key, value in event.items() if key != "seq"}
            for event in result.trace.events if event["kind"] != "warning"]


@pytest.mark.parametrize("name", ["simple", "medium", "complex", "multi_task", "meeting"])
def test_a_model_choosing_the_heuristics_kinds_runs_the_heuristics_run(monkeypatch, name):
    """Given only the kind, the policy names the task `c2c_heuristic` names
    with it, so the run writes `c2c_heuristic`'s events, but for the plan's
    fallback warnings. A report names the agent's oldest due task: when it
    named the active task, the due milestone stayed due, and `multi_task`
    stopped at the 160-step cap with 1,005 progress updates and T2
    unfinished. A meeting names a task with two blocked collaborators: none
    started when it named none."""
    if name == "meeting":
        scenario = dataclasses.replace(chain_scenario(), policy_name="c2c_heuristic")
        planner = ChainPlanner()
    else:
        scenario, planner = shipped_scenario(name, "c2c_heuristic"), None
    expected = Simulation(scenario, planner=planner).run()
    result = Simulation(dataclasses.replace(scenario, policy_name="c2c_llm"),
                        adapter=heuristic_model(monkeypatch), planner=planner).run()
    assert result.completed and result.final_step == expected.final_step
    assert events_but_warnings(result) == events_but_warnings(expected)
    sent = [e["type"] for e in result.trace.events if e["kind"] == "message_sent"]
    if name == "meeting":
        assert "MEETING_INVITE" in sent
    elif name == "multi_task":
        assert result.final_step == 69 and sent.count("PROGRESS_UPDATE") == 31
