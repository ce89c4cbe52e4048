"""The list-based `compute_metrics` that `MetricsFold` replaced, kept as the
oracle the fold is checked against: every event in memory, alignment sampled
step by step."""

from __future__ import annotations

import math
from collections import Counter

from teamsim.comms import MessageType
from teamsim.metrics import Distributions, MetricsError, MetricsReport
from teamsim.model import Scenario, order_key
from teamsim.trace import TraceLog


def _events(trace: TraceLog | list[dict]) -> list[dict]:
    return trace.events if isinstance(trace, TraceLog) else list(trace)


def _mean(values: list[float]) -> float:
    # Short-circuit keeps the mean of identical samples bit-exact.
    if not values:
        return 0.0
    if min(values) == max(values):
        return values[0]
    return math.fsum(values) / len(values)


def oracle_metrics(trace: TraceLog | list[dict], scenario: Scenario,
                   baseline_hours: float | None = None,
                   hours_per_step: float = 0.25) -> MetricsReport:
    events = _events(trace)
    if not events:
        raise MetricsError("empty trace")

    action_steps = [e["step"] for e in events if e["kind"] == "action"]
    if not action_steps:
        raise MetricsError("trace has no action events")
    final_step = max(action_steps) + 1

    root_ids = [f"T{i + 1}" for i in range(len(scenario.tasks))]
    root_hours = {rid: spec.estimated_hours
                  for rid, spec in zip(root_ids, scenario.tasks)}
    completion_hours: dict[str, float | None] = {rid: None for rid in root_ids}
    for event in events:
        if event["kind"] == "task_done" and event.get("root"):
            completion_hours[event["task"]] = (
                event["boundary"] * hours_per_step
            )

    completed = [rid for rid, h in completion_hours.items() if h is not None]
    completion_rate = 100.0 * len(completed) / len(root_ids)
    avg_time = (
        _mean([completion_hours[rid] for rid in completed]) if completed else None
    )

    # Every message_sent carries its cost; one without it raises KeyError.
    comm_cost = math.fsum(
        e["cost_h"] for e in events if e["kind"] == "message_sent"
    )

    alignment_score = _alignment_score(events, final_step)

    efficiency = None
    if completed and avg_time:
        efficiency = math.fsum(root_hours[rid] for rid in completed) / avg_time

    speedup = None
    if baseline_hours is not None and avg_time:
        speedup = baseline_hours / avg_time

    return MetricsReport(
        completion_rate=completion_rate,
        avg_completion_time=avg_time,
        communication_cost=comm_cost,
        alignment_score=alignment_score,
        efficiency=efficiency,
        speedup=speedup,
        heatmap=heatmap(events, [a.agent_id for a in scenario.team]),
        agents=tuple(sorted((a.agent_id for a in scenario.team), key=order_key)),
        distributions=distributions(events),
        completion_hours=completion_hours,
        final_step=final_step,
    )


def _alignment_score(events: list[dict], final_step: int) -> float:
    """Mean alignment sampled at the end of every executed step."""
    changes: dict[int, list[tuple[tuple[str, str], float]]] = {}
    for event in events:
        if event["kind"] != "af_update":
            continue
        key = (event["agent"], event["task"])
        changes.setdefault(event["step"], []).append((key, event["new"]))

    values: dict[tuple[str, str], float] = {}
    samples: list[float] = []
    for step in range(final_step):
        for key, new_value in changes.get(step, []):
            values[key] = new_value
        samples.extend(values.values())
    return _mean(samples)


def heatmap(trace: TraceLog | list[dict],
            agent_ids: list[str]) -> dict[tuple[str, str], int]:
    """Cell (i, j) counts messages from i delivered to j, both scenario
    agents; a pair with no delivery has no cell."""
    known = set(agent_ids)
    return dict(Counter(
        (event["from"], event["to"]) for event in _events(trace)
        if event["kind"] == "message_delivered"
        and event["from"] in known and event["to"] in known
    ))


def distributions(trace: TraceLog | list[dict]) -> Distributions:
    """Shares over agent-initiated messages plus mean reply latencies.

    MEETING_START is engine-emitted rather than an agent's communication
    decision, so it is excluded from the shares.
    """
    events = _events(trace)
    sent = [e for e in events if e["kind"] == "message_sent"]
    initiated = [
        e for e in sent
        if e["type"] not in (MessageType.RESPONSE.value,
                                     MessageType.MEETING_START.value)
    ]

    type_counts: dict[str, int] = {}
    channel_counts: dict[str, int] = {}
    for event in initiated:
        type_counts[event["type"]] = type_counts.get(event["type"], 0) + 1
        channel_counts[event["channel"]] = (
            channel_counts.get(event["channel"], 0) + 1
        )
    total = len(initiated)
    type_shares = {k: v / total for k, v in sorted(type_counts.items())} if total else {}
    channel_shares = (
        {k: v / total for k, v in sorted(channel_counts.items())} if total else {}
    )

    roots = {e["thread_id"]: e for e in initiated}
    latency_by_type: dict[str, list[float]] = {}
    latency_by_channel: dict[str, list[float]] = {}
    for event in sent:
        if event["type"] != MessageType.RESPONSE.value:
            continue
        root = roots.get(event["thread_id"])
        if root is None:
            continue
        latency = (event["sent_step"] + 1) - root["sent_step"]
        latency_by_type.setdefault(root["type"], []).append(float(latency))
        latency_by_channel.setdefault(root["channel"], []).append(float(latency))

    return Distributions(
        type_shares=type_shares,
        channel_shares=channel_shares,
        response_latency_by_type={k: _mean(v) for k, v in sorted(latency_by_type.items())},
        response_latency_by_channel={
            k: _mean(v) for k, v in sorted(latency_by_channel.items())
        },
    )
