"""The model-backed policy, planner and evaluator, driven offline through the
adapter's injectable `transport`."""

import dataclasses
import hashlib
import json

import pytest

from teamsim.adapter import ChatCompletionAdapter
from teamsim.engine import Simulation

from conftest import shipped_scenario


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
