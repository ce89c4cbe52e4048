"""Metrics are a pure function of the trace; checked against synthetic traces
and independent recounts."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from teamsim.engine import run_scenario
from teamsim.metrics import (MetricsError, compute_metrics, distributions,
                             heatmap, render_report)
from teamsim.trace import TraceLog

from conftest import MEDIUM_TASK, add_event, make_scenario, of_kind


def synthetic_trace(completion_boundary=80, agents=("M1", "W1"),
                    final_step=80) -> TraceLog:
    trace = TraceLog()
    for step in range(final_step):
        for agent in agents:
            add_event(trace, step, "action", {"agent": agent, "action": "work",
                                              "target": "T1.1", "remaining": 0})
    add_event(trace, completion_boundary - 1, "task_done",
                     {"task": "T1", "root": True, "boundary": completion_boundary})
    return trace


class TestComputeMetrics:
    def test_efficiency_from_injected_times(self):
        # 24 h of estimated work finishing at the 20 h boundary
        scenario = make_scenario(MEDIUM_TASK)
        trace = synthetic_trace(completion_boundary=80)
        report = compute_metrics(trace, scenario)
        assert report.avg_completion_time == pytest.approx(20.0)
        assert report.efficiency == pytest.approx(1.20, abs=1e-9)

    def test_speedup_from_injected_baseline(self):
        scenario = make_scenario(MEDIUM_TASK)
        trace = synthetic_trace(completion_boundary=52)  # 13 h
        report = compute_metrics(trace, scenario, baseline_hours=20.0)
        assert report.speedup == pytest.approx(20.0 / 13.0)
        assert abs(report.speedup - 1.54) <= 0.01

    def test_empty_trace_rejected(self):
        scenario = make_scenario(MEDIUM_TASK)
        with pytest.raises(MetricsError, match="empty trace"):
            compute_metrics(TraceLog(), scenario)

    def test_no_comm_alignment_is_exactly_initial(self, medium_scenario):
        result = run_scenario(medium_scenario)
        report = compute_metrics(result.trace, medium_scenario)
        assert report.alignment_score == 0.30

    def test_single_task_efficiency_times_time_is_estimate(self, simple_scenario):
        result = run_scenario(simple_scenario)
        report = compute_metrics(result.trace, simple_scenario)
        assert report.efficiency * report.avg_completion_time == pytest.approx(8.0)

    def test_recomputation_is_identical(self, medium_scenario):
        scenario = dataclasses.replace(medium_scenario, policy_name="c2c_heuristic")
        result = run_scenario(scenario)
        first = compute_metrics(result.trace, scenario)
        second = compute_metrics(result.trace, scenario)
        assert first == second

    def test_round_trip_through_file(self, tmp_path, medium_scenario):
        scenario = dataclasses.replace(medium_scenario, policy_name="c2c_heuristic")
        result = run_scenario(scenario)
        path = result.trace.write(tmp_path / "trace.jsonl")
        reread = TraceLog.read(path)
        assert compute_metrics(reread, scenario) == \
            compute_metrics(result.trace, scenario)


class TestHeatmap:
    def test_no_comm_gives_zero_matrix(self, simple_scenario):
        result = run_scenario(simple_scenario)
        cells = heatmap(result.trace, [a.agent_id for a in simple_scenario.team])
        assert cells == {}

    def test_counts_deliveries(self):
        trace = TraceLog()
        add_event(trace, 0, "action", {"agent": "W1", "action": "idle",
                                       "target": None, "remaining": 0})
        for i in range(3):
            add_event(trace, i + 1, "message_delivered", {
                "message_id": f"m{i}", "to": "M1", "from": "W1",
                "type": "HELP_REQUEST", "thread_id": f"th{i}",
            })
        cells = heatmap(trace, ["M1", "W1"])
        assert cells == {("W1", "M1"): 3}
        assert ("M1", "W1") not in cells

    def test_row_and_column_sums_match_independent_count(self, medium_scenario):
        scenario = dataclasses.replace(medium_scenario, policy_name="c2c_heuristic")
        result = run_scenario(scenario)
        agents = [a.agent_id for a in scenario.team]
        cells = heatmap(result.trace, agents)
        assert cells and all(count > 0 for count in cells.values())
        sent_count = {a: 0 for a in agents}
        received_count = {a: 0 for a in agents}
        for event in of_kind(result.trace, "message_delivered"):
            sent_count[event["from"]] += 1
            received_count[event["to"]] += 1
        for agent in agents:
            assert sum(cells.get((agent, b), 0) for b in agents) == sent_count[agent]
            assert sum(cells.get((b, agent), 0) for b in agents) == received_count[agent]


class TestDistributions:
    def trace_with_messages(self):
        trace = TraceLog()
        add_event(trace, 0, "action", {"agent": "W1", "action": "idle",
                                       "target": None, "remaining": 0})
        entries = [
            ("m1", "th1", "HELP_REQUEST", "chat", 4),
            ("m2", "th2", "HELP_REQUEST", "email", 5),
            ("m3", "th3", "NEED_CLARIFICATION", "chat", 6),
        ]
        for mid, tid, mtype, channel, step in entries:
            add_event(trace, step, "message_sent", {
                "message_id": mid, "thread_id": tid, "from": "W1",
                "to": ["M1"], "channel": channel, "type": mtype,
                "about_task": "T1.1", "words": 10, "cost_h": 0.05,
                "sent_step": step,
            })
        # one reply resolves the first help at step 6 (delivered 7)
        add_event(trace, 6, "message_sent", {
            "message_id": "m4", "thread_id": "th1", "from": "M1",
            "to": ["W1"], "channel": "chat", "type": "RESPONSE",
            "about_task": "T1.1", "words": 5, "cost_h": 0.05, "sent_step": 6,
        })
        return trace

    def test_shares_normalized_over_initiated_messages(self):
        dist = distributions(self.trace_with_messages())
        assert dist.type_shares["HELP_REQUEST"] == pytest.approx(2 / 3)
        assert dist.type_shares["NEED_CLARIFICATION"] == pytest.approx(1 / 3)
        assert dist.channel_shares["chat"] == pytest.approx(2 / 3)

    def test_latency_counts_only_answered_threads(self):
        dist = distributions(self.trace_with_messages())
        # reply sent at 6, delivered 7; request sent at 4 -> latency 3
        assert dist.response_latency_by_type["HELP_REQUEST"] == pytest.approx(3.0)
        assert "NEED_CLARIFICATION" not in dist.response_latency_by_type

    def test_meeting_start_excluded_from_shares(self, medium_scenario):
        scenario = dataclasses.replace(medium_scenario, policy_name="c2c_heuristic")
        result = run_scenario(scenario)
        dist = distributions(result.trace)
        assert "MEETING_START" not in dist.type_shares


def test_render_report_mentions_all_metrics(medium_scenario):
    result = run_scenario(medium_scenario)
    report = compute_metrics(result.trace, medium_scenario)
    text = render_report(report, "1M+4W", "medium")
    for token in ("completion_rate", "avg_completion_time_h", "alignment_score",
                  "efficiency", "heatmap", "channel shares"):
        assert token in text


def cell_by_cell_heatmap(agents: tuple[str, ...], cells: dict) -> list[str]:
    """The heatmap's lines as rendered one cell lookup at a time."""
    lines = ["        " + " ".join(f"{a:>5}" for a in agents)]
    for sender in agents:
        row = " ".join(f"{cells.get((sender, b), 0):>5}" for b in agents)
        lines.append(f"  {sender:>5} {row}")
    return lines


@st.composite
def heatmaps(draw):
    """Agents in natural id order, up to a 1M+256W team, and the cells of
    some (sender, recipient) pairs among them, counts up to six digits."""
    workers = draw(st.one_of(st.integers(0, 12), st.just(256)))
    agents = ("M1", *(f"W{i}" for i in range(1, workers + 1)))
    pairs = st.tuples(st.sampled_from(agents), st.sampled_from(agents))
    return agents, draw(st.dictionaries(pairs, st.integers(1, 999_999), max_size=300))


@pytest.fixture(scope="module")
def medium_report():
    scenario = make_scenario(MEDIUM_TASK, policy="c2c_heuristic")
    return compute_metrics(run_scenario(scenario).trace, scenario)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(heatmaps())
def test_heatmap_rows_are_the_cell_by_cell_rendering(medium_report, heatmap):
    """The heatmap's lines are what one cell lookup at a time renders, on
    drawn cells of teams up to 1M+256W, most of whose senders send nothing."""
    agents, cells = heatmap
    text = render_report(medium_report._replace(agents=agents, heatmap=cells), "c", "s")
    lines = text.split("\n")
    start = lines.index("message heatmap (rows send, columns receive):") + 1
    assert lines[start:start + len(agents) + 1] == cell_by_cell_heatmap(agents, cells)
    assert lines[start + len(agents) + 1] == ""
