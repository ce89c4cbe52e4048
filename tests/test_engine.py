"""Engine behavior: baselines, phase discipline, occupancy, meetings, and the
LLM-backed modes against a stubbed adapter."""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

from teamsim.adapter import ChatCompletionAdapter
from teamsim.comms import MessageType
from teamsim.config import parse_scenario
from teamsim.engine import Simulation, run_scenario
from teamsim.metrics import compute_metrics
from teamsim.model import Scenario, TaskSpec, validate_scenario
from teamsim.policy import HeuristicPolicy, Intention, IntentionKind

from conftest import (MEDIUM_TASK, ChainPlanner, chain_scenario, make_scenario,
                      make_team, of_kind)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def closed_form_no_comm_hours(total_hours: float, workers: int,
                              hours_per_step: float = 0.25,
                              af: float = 0.30) -> float:
    """Independent oracle: even split, fixed alignment, one planning step."""
    per_worker = total_hours / workers
    work_steps = math.ceil(per_worker / (hours_per_step * af))
    return (work_steps + 1) * hours_per_step


class TestNoCommBaselines:
    def test_simple_matches_closed_form(self, simple_scenario):
        result = run_scenario(simple_scenario)
        expected = closed_form_no_comm_hours(8.0, 4)
        assert expected == 7.0
        assert result.completion_hours("T1") == pytest.approx(expected, abs=1e-9)

    def test_medium_matches_closed_form(self, medium_scenario):
        result = run_scenario(medium_scenario)
        assert result.completion_hours("T1") == pytest.approx(
            closed_form_no_comm_hours(24.0, 4), abs=1e-9)

    def test_complex_matches_closed_form(self, complex_scenario):
        result = run_scenario(complex_scenario)
        assert result.completion_hours("T1") == pytest.approx(
            closed_form_no_comm_hours(40.0, 4), abs=1e-9)

    def test_no_messages_and_alignment_frozen(self, simple_scenario):
        result = run_scenario(simple_scenario)
        assert of_kind(result.trace, "message_sent") == []
        assert result.comm_cost_hours == 0.0
        assert all(v == 0.30 for v in result.world.alignment.values.values())

    def test_step_cap_marks_incomplete(self, complex_scenario):
        result = run_scenario(complex_scenario, max_steps=4)
        assert not result.completed
        assert result.completion_steps["T1"] is None
        metrics = compute_metrics(result.trace, complex_scenario)
        assert metrics.completion_rate == 0.0


class TestStepDiscipline:
    def test_work_step_applies_alignment_scaled_progress(self, simple_scenario):
        result = run_scenario(simple_scenario)
        progress = of_kind(result.trace, "progress")
        assert progress
        for event in progress[:40]:
            assert event["effective"] == pytest.approx(0.25 * 0.30)

    def test_one_action_event_per_agent_per_step(self, medium_scenario):
        scenario = dataclasses.replace(medium_scenario, policy_name="c2c_heuristic")
        result = run_scenario(scenario)
        actions: dict[tuple[int, str], int] = {}
        for event in of_kind(result.trace, "action"):
            key = (event["step"], event["agent"])
            actions[key] = actions.get(key, 0) + 1
        agents = [a.agent_id for a in scenario.team]
        for step in range(result.final_step):
            for agent in agents:
                assert actions.get((step, agent), 0) == 1, (step, agent)

    def test_messages_never_readable_in_send_step(self, medium_scenario):
        scenario = dataclasses.replace(medium_scenario, policy_name="c2c_heuristic")
        result = run_scenario(scenario)
        sent_step = {e["message_id"]: e["sent_step"]
                     for e in of_kind(result.trace, "message_sent")}
        delivered = of_kind(result.trace, "message_delivered")
        assert delivered
        for event in delivered:
            assert event["step"] > sent_step[event["message_id"]]

    def test_multi_step_action_blocks_new_intentions(self, medium_scenario):
        # The manager's scope-brief replies take two steps; while composing,
        # the only action events for the manager are reply continuations.
        scenario = dataclasses.replace(medium_scenario, policy_name="c2c_heuristic")
        result = run_scenario(scenario)
        reply_steps = [
            (e["step"], e["remaining"])
            for e in of_kind(result.trace, "action")
            if e["agent"] == "M1" and e["action"] == "reply"
        ]
        assert any(remaining == 1 for _, remaining in reply_steps)
        assert any(remaining == 0 for _, remaining in reply_steps)

    def test_conservation_of_effective_hours(self, medium_scenario):
        scenario = dataclasses.replace(medium_scenario, policy_name="c2c_heuristic")
        result = run_scenario(scenario)
        by_task: dict[str, float] = {}
        for event in of_kind(result.trace, "progress"):
            by_task[event["task"]] = (
                by_task.get(event["task"], 0.0) + event["effective"]
            )
        for task_id, total in by_task.items():
            assert total == pytest.approx(
                result.world.graph.node(task_id).accumulated_effective_hours,
                rel=1e-12,
            )

    def test_work_targets_lowest_id_ready_task(self):
        team = make_team(1, worker_skills=[frozenset({"backend"})])
        scenario = validate_scenario(Scenario(
            name="two", team=team,
            tasks=[TaskSpec("a", 0.5, frozenset({"backend"})),
                   TaskSpec("b", 0.5, frozenset({"backend"}))]))
        result = run_scenario(scenario)
        first_work = next(e for e in of_kind(result.trace, "action")
                          if e["action"] == "work"
                          and e["agent"] == "W1")
        assert first_work["target"] == "T1.1"

    def test_undelivered_at_run_end_warned(self):
        # A 2-step cap ends the run right after the workers' clarifications.
        scenario = make_scenario(MEDIUM_TASK, policy="c2c_heuristic")
        result = run_scenario(scenario, max_steps=2)
        warnings = [e for e in of_kind(result.trace, "warning")
                    if "undelivered" in e["detail"]]
        assert warnings

    def test_manager_answers_oldest_thread_first(self, medium_scenario):
        # All four clarifications land at once; replies go out in the order
        # the requests were sent (W1 first).
        scenario = dataclasses.replace(medium_scenario, policy_name="c2c_heuristic")
        result = run_scenario(scenario)
        manager_replies = [
            e["to"][0]
            for e in of_kind(result.trace, "message_sent")
            if e["from"] == "M1"
            and e["type"] == MessageType.RESPONSE.value
        ]
        assert manager_replies == sorted(manager_replies,
                                         key=lambda a: int(a[1:]))

    @pytest.mark.parametrize("invite_step,request_step,expected", [
        (1, 2, ["mt001", "th0002"]),
        (2, 1, ["th0001", "mt001"]),
    ])
    def test_check_messages_takes_the_older_item_across_kinds(
            self, invite_step, request_step, expected):
        """M1 holds a meeting invite from W1 and a clarification request from
        W2, both unanswered; whichever was delivered first is handled first,
        the RSVP (target: the meeting) or the reply (target: the thread)."""
        script = {
            (invite_step, "W1"): Intention(IntentionKind.SCHEDULE_MEETING,
                                           task_hint="T1.1"),
            (request_step, "W2"): Intention(IntentionKind.NEED_CLARIFICATION,
                                            task_hint="T1.2"),
            (3, "M1"): Intention(IntentionKind.CHECK_MESSAGES),
            (5, "M1"): Intention(IntentionKind.CHECK_MESSAGES),
        }

        class ScriptedPolicy(HeuristicPolicy):
            def decide(self, context):
                return script.get((context.step, context.agent.agent_id),
                                  Intention(IntentionKind.CONTINUE_TASK))

        sim = Simulation(chain_scenario(), policy=ScriptedPolicy(),
                         planner=ChainPlanner(), max_steps=8)
        result = sim.run()
        handled = []
        for event in of_kind(result.trace, "action"):
            if (event["agent"] == "M1" and event["action"] == "reply"
                    and event["target"] not in handled):
                handled.append(event["target"])
        assert handled == expected


class TestHeuristicRun:
    def test_strictly_faster_than_no_comm_on_medium(self, medium_scenario):
        baseline = run_scenario(medium_scenario)
        scenario = dataclasses.replace(medium_scenario, policy_name="c2c_heuristic")
        improved = run_scenario(scenario)
        assert improved.completed
        assert improved.completion_hours("T1") < baseline.completion_hours("T1")

    def test_alignment_rises_through_communication(self, medium_scenario):
        scenario = dataclasses.replace(medium_scenario, policy_name="c2c_heuristic")
        result = run_scenario(scenario)
        final = result.world.alignment.values
        assert max(final.values()) > 0.30

    def test_clarification_then_help_chain(self, medium_scenario):
        scenario = dataclasses.replace(medium_scenario, policy_name="c2c_heuristic")
        result = run_scenario(scenario)
        sent = of_kind(result.trace, "message_sent")
        clars = [e for e in sent
                 if e["type"] == MessageType.NEED_CLARIFICATION.value]
        helps = [e for e in sent
                 if e["type"] == MessageType.HELP_REQUEST.value]
        assert len(clars) == 4
        assert helps, "stuck low-alignment workers should escalate to help"
        assert min(e["sent_step"] for e in helps) > \
            max(e["sent_step"] for e in clars)

    def test_comm_cost_totals_agree(self, medium_scenario):
        scenario = dataclasses.replace(medium_scenario, policy_name="c2c_heuristic")
        result = run_scenario(scenario)
        metrics = compute_metrics(result.trace, scenario)
        assert metrics.communication_cost == pytest.approx(
            result.comm_cost_hours, rel=1e-12)


class TestMeetings:
    def run_with_chain(self, **kwargs):
        scenario = chain_scenario()
        scenario = dataclasses.replace(scenario, policy_name="c2c_heuristic")
        sim = Simulation(scenario, planner=ChainPlanner(), **kwargs)
        return sim.run()

    def test_meeting_lifecycle_and_alignment_gain(self):
        result = self.run_with_chain()
        sent = of_kind(result.trace, "message_sent")
        invites = [e for e in sent
                   if e["type"] == MessageType.MEETING_INVITE.value]
        starts = [e for e in sent
                  if e["type"] == MessageType.MEETING_START.value]
        assert len(invites) == 1
        assert len(starts) == 1
        invite, start = invites[0], starts[0]
        # start happens at least two steps after the invite goes out
        assert start["step"] >= invite["sent_step"] + 2
        # held meeting carries the meeting cost on its start event
        assert start["cost_h"] > 0
        meeting_gains = [
            e for e in of_kind(result.trace, "af_update")
            if str(e["cause"]).startswith("mt")
        ]
        assert meeting_gains
        for event in meeting_gains:
            assert event["delta"] == pytest.approx(0.27)

    def test_meeting_occupies_attendees_for_duration(self):
        result = self.run_with_chain()
        start = next(e for e in of_kind(result.trace, "message_sent")
                     if e["type"] == MessageType.MEETING_START.value)
        attendees = start["to"]
        cost = start["cost_h"]
        duration = math.ceil(cost / 0.25)
        for agent in attendees:
            meeting_steps = [
                e["step"] for e in of_kind(result.trace, "action")
                if e["agent"] == agent and e["action"] == "meeting"
            ]
            assert len(meeting_steps) == duration

    def test_attendees_stop_checking_messages_after_the_meeting(self):
        """A held meeting's start message sends each attendee to its inbox
        once; with nothing there to act on, the next decision moves on."""
        decisions = []

        class SpyPolicy(HeuristicPolicy):
            def decide(self, context):
                intention = super().decide(context)
                actionable = bool(context.unanswered_inbound
                                  or context[4].has_unprocessed_invite(context.agent.agent_id))
                decisions.append((context.step, context.agent.agent_id,
                                  intention.kind, actionable))
                return intention

        result = self.run_with_chain(policy=SpyPolicy())
        start = next(e for e in of_kind(result.trace, "message_sent")
                     if e["type"] == MessageType.MEETING_START.value)
        idle_checks = {}
        for agent in start["to"]:
            meeting_end = max(
                e["step"] for e in of_kind(result.trace, "action")
                if e["agent"] == agent and e["action"] == "meeting")
            idle_checks[agent] = sum(
                1 for step, who, kind, actionable in decisions
                if who == agent and step > meeting_end and not actionable
                and kind is IntentionKind.CHECK_MESSAGES)
        assert len(idle_checks) >= 2
        assert all(count <= 1 for count in idle_checks.values()), idle_checks

    def test_meeting_cancelled_without_quorum(self):
        # Workers that never process the invite leave the organizer alone.
        scenario = chain_scenario()
        scenario = dataclasses.replace(scenario, policy_name="c2c_heuristic")

        class InviteBlindPolicy(HeuristicPolicy):
            def decide(self, context):
                intention = super().decide(context)
                if intention.kind.value == "CHECK_MESSAGES" and \
                        context[4].has_unprocessed_invite(context.agent.agent_id) and \
                        not context.unanswered_inbound:
                    from teamsim.policy import Intention, IntentionKind
                    return Intention(IntentionKind.CONTINUE_TASK)
                return intention

        sim = Simulation(scenario, policy=InviteBlindPolicy(),
                         planner=ChainPlanner())
        result = sim.run()
        cancelled = [e for e in of_kind(result.trace, "warning")
                     if "cancelled" in e["detail"]]
        starts = [e for e in of_kind(result.trace, "message_sent")
                  if e["type"] == MessageType.MEETING_START.value]
        assert cancelled
        assert not starts


def llm_stub_adapter(intention="CONTINUE_TASK", new_af=0.45,
                     plan_hours=2.0, workers=4, fail=False):
    """Canned chat-completion endpoint covering all three request families."""

    def transport(url, body, headers):
        if fail:
            raise OSError("endpoint down")
        payload = json.loads(body.decode("utf-8"))
        text = payload["messages"][0]["content"]
        if "Decompose this task" in text:
            reply = json.dumps({
                "subtasks": [
                    {"description": f"part {i}", "estimated_hours": plan_hours,
                     "required_skills": ["backend"], "suggested_assignee": None,
                     "dependencies": []}
                    for i in range(workers)
                ],
                "decomposition_rationale": "by area",
            })
        elif "primary intention" in text:
            reply = json.dumps({"intention": intention, "reasoning": "stub"})
        else:
            reply = json.dumps({"new_alignment_factor": new_af,
                                "change": 0.15, "reasoning": "stub"})
        return json.dumps(
            {"choices": [{"message": {"content": reply}}]}).encode("utf-8")

    return ChatCompletionAdapter(endpoint="http://localhost:0", model="stub",
                                 max_retries=0, transport=transport)


class TestLlmModes:
    def test_llm_policy_drives_run(self, simple_scenario):
        scenario = dataclasses.replace(simple_scenario, policy_name="c2c_llm")
        result = run_scenario(scenario, adapter=llm_stub_adapter())
        assert result.completed
        # intention CONTINUE_TASK everywhere means no communication
        assert of_kind(result.trace, "message_sent") == []

    def test_llm_policy_falls_back_on_unknown_intention(self, simple_scenario):
        scenario = dataclasses.replace(simple_scenario, policy_name="c2c_llm")
        adapter = llm_stub_adapter(intention="DO_A_BACKFLIP")
        result = run_scenario(scenario, adapter=adapter)
        assert result.completed
        warnings = [e for e in of_kind(result.trace, "warning")
                    if "intention adapter fallback" in e["detail"]]
        assert warnings

    def test_llm_evaluator_normalizes_reported_alignment(self, medium_scenario):
        scenario = dataclasses.replace(medium_scenario,
                                       policy_name="c2c_heuristic",
                                       evaluator_name="llm")
        result = run_scenario(scenario, adapter=llm_stub_adapter(new_af=0.52))
        reply_updates = [
            e for e in of_kind(result.trace, "af_update")
            if e["cause"] not in ("init",)
            and not str(e["cause"]).startswith("mt")
        ]
        assert reply_updates
        first = reply_updates[0]
        assert first["new"] == pytest.approx(0.52)

    def test_llm_evaluator_transport_failure_uses_rule_table(self, medium_scenario):
        scenario = dataclasses.replace(medium_scenario,
                                       policy_name="c2c_heuristic",
                                       evaluator_name="llm")
        result = run_scenario(scenario, adapter=llm_stub_adapter(fail=True))
        assert result.completed
        fallbacks = [e for e in of_kind(result.trace, "warning")
                     if "evaluator fallback" in e["detail"]]
        assert fallbacks
        clar_updates = [e for e in of_kind(result.trace, "af_update")
                        if e["delta"] is not None
                        and e["old"] == pytest.approx(0.30)]
        assert clar_updates[0]["delta"] == pytest.approx(0.10)


def test_a_parsed_scenario_is_not_validated_again():
    """`parse_scenario` validates; building a `Simulation` from what it
    returns calls `validate_scenario` zero times."""
    scenario = parse_scenario(SCENARIOS / "medium.yaml")
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is validate_scenario.__code__:
            calls.append(frame.f_lineno)

    sys.setprofile(profile)
    try:
        Simulation(scenario)
    finally:
        sys.setprofile(None)
    assert calls == []
