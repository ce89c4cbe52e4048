"""Run metrics computed purely from the trace: recomputation is always exact.

Completion rate, average completion time, total communication cost, the
time-sampled mean alignment, efficiency (estimated hours of completed work
over wall-clock completion time), optional speedup against a baseline time,
plus the sender/recipient heatmap and message type/channel distributions.

`compute_metrics` is a fold, `MetricsFold`, that takes each event record once
in trace order. The fold is itself a trace sink, so `teamsim run` folds each
event as the engine emits it and `teamsim report` reads a trace line by line,
and neither holds the trace. Sums are exact: samples are kept as value ->
count and summed as one integer over a common power-of-two denominator, then
rounded once, which is what `math.fsum` gives over the samples listed one by
one. The alignment score, the mean of every (agent, task) value at the end of
every step, is thus Σ value × steps held / samples, in O(af_update events)
instead of one sample per pair per step. Its `af_update` steps must not go
back in the trace, as the engine writes them; `MetricsError` names one that
does. The fold reads each field unchecked, as `trace.SCHEMAS` types it: the
reader checks each line against it.
"""

from __future__ import annotations

import csv
import io
import math
from sys import intern
from collections import deque
from collections.abc import Iterable
from typing import NamedTuple

from .comms import MessageType
from .model import Scenario, order_key
from .trace import TraceLog


class MetricsError(ValueError):
    pass


class EventError(ValueError):
    """An event names a root task the scenario does not have."""


class Distributions(NamedTuple):
    type_shares: dict[str, float]
    channel_shares: dict[str, float]
    response_latency_by_type: dict[str, float]
    response_latency_by_channel: dict[str, float]


class MetricsReport(NamedTuple):
    completion_rate: float
    avg_completion_time: float | None
    communication_cost: float
    alignment_score: float
    efficiency: float | None
    speedup: float | None
    # (sender, recipient) -> messages delivered, for the pairs with any; the
    # agents in natural id order give the rows and columns.
    heatmap: dict[tuple[str, str], int]
    agents: tuple[str, ...]
    distributions: Distributions
    completion_hours: dict[str, float | None]
    final_step: int

    def csv_row(self, config: str, complexity: str) -> list[str]:
        def fmt(value: float | None, digits: int = 4) -> str:
            return "" if value is None else f"{value:.{digits}f}"

        return [
            config,
            complexity,
            f"{self.completion_rate:.1f}",
            fmt(self.avg_completion_time),
            fmt(self.communication_cost),
            fmt(self.alignment_score),
            fmt(self.efficiency),
            fmt(self.speedup),
        ]


CSV_COLUMNS = ["config", "complexity", "completion_rate", "avg_time_h",
               "comm_cost_h", "alignment", "efficiency", "speedup"]


def _events(trace: TraceLog | Iterable[dict]) -> Iterable[dict]:
    return trace.events if isinstance(trace, TraceLog) else trace


class _Samples:
    """A multiset of floats, kept as value -> count, with an exact sum.

    `fsum` and `mean` give what `math.fsum` and the mean of the same values
    listed one by one give: the exact sum rounded once, divided by the count,
    and the value itself when all samples are equal.
    """

    def __init__(self) -> None:
        self.counts: dict[float, int] = {}

    def add(self, value: float, times: int = 1) -> None:
        counts = self.counts
        counts[value] = counts.get(value, 0) + times

    def fsum(self) -> float:
        # Each finite value is num / den with den a power of two, so over the
        # largest den the sum is one integer, and int / int rounds once.
        ratios = [(value.as_integer_ratio(), times)
                  for value, times in self.counts.items() if math.isfinite(value)]
        scale = max((den for (_, den), _ in ratios), default=1)
        total = sum(num * (scale // den) * times for (num, den), times in ratios) / scale
        # NaN and infinities decide the sum as they decide math.fsum's.
        return math.fsum([total, *(v for v in self.counts if not math.isfinite(v))])

    def mean(self) -> float:
        counts = self.counts
        if not counts:
            return 0.0
        if min(counts) == max(counts):
            return next(iter(counts))
        return self.fsum() / sum(counts.values())


def _mean(values: Iterable[float]) -> float:
    samples = _Samples()
    for value in values:
        samples.add(value)
    return samples.mean()


class _Alignment:
    """Mean alignment sampled at the end of every executed step, folded over
    `af_update` events in step order.

    A value counts once per step from the step it is set in up to its next
    change or the final step. An update at or past the final step known so far
    waits, since the run may end before it.
    """

    def __init__(self) -> None:
        self.held: dict[tuple[str, str], tuple[float, int]] = {}
        self.samples = _Samples()
        self.waiting: deque[tuple[int, tuple[str, str], float]] = deque()
        self.final_step = 0
        self.last_step = 0

    def advance(self, final_step: int) -> None:
        self.final_step = final_step
        waiting = self.waiting
        while waiting and waiting[0][0] < final_step:
            self._set(*waiting.popleft())

    def update(self, record: dict) -> None:
        step = record["step"]
        if step < 0:
            return
        if step < self.last_step:
            raise MetricsError(
                f"af_update at step {step} follows one at step {self.last_step}")
        self.last_step = step
        change = (step, (record["agent"], record["task"]), record["new"])
        if step < self.final_step:
            self._set(*change)
        else:
            self.waiting.append(change)

    def _set(self, step: int, key: tuple[str, str], value: float) -> None:
        held = self.held.get(key)
        if held is not None and step > held[1]:
            self.samples.add(held[0], step - held[1])
        self.held[key] = (value, step)

    def score(self) -> float:
        """Close every held value at the final step; call once, at the end.

        What still waits lies at or past the final step and is never sampled.
        """
        for value, since in self.held.values():
            self.samples.add(value, self.final_step - since)
        self.held = {}
        return self.samples.mean()


class _Heatmap:
    """Cell (sender, recipient) counts the messages delivered from one scenario
    agent to another; a pair with no delivery has no cell."""

    def __init__(self, agent_ids: Iterable[str]) -> None:
        self.agents = tuple(sorted(agent_ids, key=order_key))
        self._known = frozenset(self.agents)
        self.cells: dict[tuple[str, str], int] = {}

    def add(self, record: dict) -> None:
        sender, recipient = record["from"], record["to"]
        if sender in self._known and recipient in self._known:
            pair = (sender, recipient)
            self.cells[pair] = self.cells.get(pair, 0) + 1


_RESPONSE = MessageType.RESPONSE.value
_MEETING_START = MessageType.MEETING_START.value


class _Distributions:
    """Shares over agent-initiated messages plus mean reply latencies.

    MEETING_START is engine-emitted rather than an agent's communication
    decision, so it is excluded from the shares. A reply is timed from the
    last message that started its thread, wherever that lies in the trace.
    """

    def __init__(self) -> None:
        self.type_counts: dict[str, int] = {}
        self.channel_counts: dict[str, int] = {}
        # thread id -> (type, channel, sent_step) of the message that started it
        self.threads: dict[str, tuple[str, str, int]] = {}
        self.replies: list[tuple[str, int]] = []

    def add(self, record: dict) -> None:
        kind = record["type"]
        if kind == _RESPONSE:
            self.replies.append((record["thread_id"], record["sent_step"]))
        elif kind != _MEETING_START:
            # Interned: the threads share a few names, not one copy each.
            kind, channel = intern(kind), intern(record["channel"])
            self.type_counts[kind] = self.type_counts.get(kind, 0) + 1
            self.channel_counts[channel] = self.channel_counts.get(channel, 0) + 1
            self.threads[record["thread_id"]] = (kind, channel, record["sent_step"])

    def result(self) -> Distributions:
        total = sum(self.type_counts.values())
        by_type: dict[str, _Samples] = {}
        by_channel: dict[str, _Samples] = {}
        for thread_id, sent_step in self.replies:
            root = self.threads.get(thread_id)
            if root is None:
                continue
            kind, channel, root_step = root
            latency = float((sent_step + 1) - root_step)
            by_type.setdefault(kind, _Samples()).add(latency)
            by_channel.setdefault(channel, _Samples()).add(latency)
        return Distributions(
            type_shares={k: v / total for k, v in sorted(self.type_counts.items())},
            channel_shares={k: v / total
                            for k, v in sorted(self.channel_counts.items())},
            response_latency_by_type={k: v.mean() for k, v in sorted(by_type.items())},
            response_latency_by_channel={
                k: v.mean() for k, v in sorted(by_channel.items())
            },
        )


class MetricsFold:
    """`compute_metrics` one event at a time: `append` each event record in
    trace order, as a `Simulation` trace sink does, then take `result()` once, which
    hands the fold's state to the report. The state grows with the roots, the
    team, the (agent, task) pairs, the (sender, recipient) pairs that messages
    reach and the message threads, not with the events."""

    def __init__(self, scenario: Scenario, baseline_hours: float | None = None,
                 hours_per_step: float = 0.25) -> None:
        self.baseline_hours = baseline_hours
        self.hours_per_step = hours_per_step
        root_ids = [f"T{i + 1}" for i in range(len(scenario.tasks))]
        self.root_hours = {rid: spec.estimated_hours
                           for rid, spec in zip(root_ids, scenario.tasks)}
        self.completion_hours: dict[str, float | None] = dict.fromkeys(root_ids)
        self.event_count = 0
        self.final_step: int | None = None  # one past the latest action step
        self.comm_cost = _Samples()
        self.alignment = _Alignment()
        self.heatmap = _Heatmap([a.agent_id for a in scenario.team])
        self.distributions = _Distributions()

    def append(self, record: dict) -> None:
        self.event_count += 1
        kind = record["kind"]
        if kind == "action":
            step = record["step"]
            if self.final_step is None or step >= self.final_step:
                self.final_step = step + 1
                self.alignment.advance(step + 1)
        elif kind == "message_sent":
            self.comm_cost.add(record["cost_h"])
            self.distributions.add(record)
        elif kind == "message_delivered":
            self.heatmap.add(record)
        elif kind == "af_update":
            self.alignment.update(record)
        elif kind == "task_done" and record["root"]:
            hours = record["boundary"] * self.hours_per_step
            task = record["task"]
            if task not in self.completion_hours:
                raise EventError(f"names root task {task!r}, which the scenario "
                                 "does not have")
            self.completion_hours[task] = hours

    def result(self) -> MetricsReport:
        if not self.event_count:
            raise MetricsError("empty trace")
        if self.final_step is None:
            raise MetricsError("trace has no action events")
        completion_hours = self.completion_hours
        completed = [rid for rid, h in completion_hours.items() if h is not None]
        completion_rate = 100.0 * len(completed) / len(self.root_hours)
        avg_time = _mean(completion_hours[rid] for rid in completed) if completed else None

        efficiency = None
        if completed and avg_time:
            efficiency = math.fsum(self.root_hours[rid] for rid in completed) / avg_time

        speedup = None
        if self.baseline_hours is not None and avg_time:
            speedup = self.baseline_hours / avg_time

        return MetricsReport(
            completion_rate=completion_rate,
            avg_completion_time=avg_time,
            communication_cost=self.comm_cost.fsum(),
            alignment_score=self.alignment.score(),
            efficiency=efficiency,
            speedup=speedup,
            heatmap=self.heatmap.cells,
            agents=self.heatmap.agents,
            distributions=self.distributions.result(),
            completion_hours=completion_hours,
            final_step=self.final_step,
        )


def compute_metrics(trace: TraceLog | Iterable[dict], scenario: Scenario,
                    baseline_hours: float | None = None,
                    hours_per_step: float = 0.25) -> MetricsReport:
    fold = MetricsFold(scenario, baseline_hours, hours_per_step)
    append = fold.append
    for record in _events(trace):
        append(record)
    return fold.result()


def heatmap(trace: TraceLog | Iterable[dict],
            agent_ids: list[str]) -> dict[tuple[str, str], int]:
    """Cell (i, j) counts messages from i delivered to j; a pair with none
    has no cell."""
    fold = _Heatmap(agent_ids)
    for record in _events(trace):
        if record["kind"] == "message_delivered":
            fold.add(record)
    return fold.cells


def distributions(trace: TraceLog | Iterable[dict]) -> Distributions:
    """Shares over agent-initiated messages plus mean reply latencies."""
    fold = _Distributions()
    for record in _events(trace):
        if record["kind"] == "message_sent":
            fold.add(record)
    return fold.result()


def render_report(report: MetricsReport, config: str, complexity: str) -> str:
    lines = [
        f"config: {config}",
        f"complexity: {complexity}",
        f"completion_rate: {report.completion_rate:.1f}%",
        "avg_completion_time_h: "
        + ("n/a" if report.avg_completion_time is None else f"{report.avg_completion_time:.2f}"),
        f"communication_cost_h: {report.communication_cost:.2f}",
        f"alignment_score: {report.alignment_score:.3f}",
        "efficiency: "
        + ("n/a" if report.efficiency is None else f"{report.efficiency:.2f}"),
        "speedup: " + ("n/a" if report.speedup is None else f"{report.speedup:.2f}"),
        "",
        "per-task completion (hours):",
    ]
    for task_id, hours in report.completion_hours.items():
        lines.append(f"  {task_id}: " + ("incomplete" if hours is None else f"{hours:.2f}"))

    lines.append("")
    lines.append("message heatmap (rows send, columns receive):")
    agents, cells = report.agents, report.heatmap
    lines.append("        " + " ".join(f"{a:>5}" for a in agents))
    for sender in agents:
        row = " ".join(f"{cells.get((sender, b), 0):>5}" for b in agents)
        lines.append(f"  {sender:>5} {row}")

    dist = report.distributions
    lines.append("")
    lines.append("message type shares: " + _format_shares(dist.type_shares))
    lines.append("channel shares: " + _format_shares(dist.channel_shares))
    lines.append("mean reply latency by type (steps): "
                 + _format_shares(dist.response_latency_by_type))
    lines.append("mean reply latency by channel (steps): "
                 + _format_shares(dist.response_latency_by_channel))
    return "\n".join(lines) + "\n"


def _format_shares(shares: dict[str, float]) -> str:
    if not shares:
        return "none"
    return ", ".join(f"{k}={v:.3f}" for k, v in shares.items())


def write_csv(rows: list[list[str]], path) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(buffer.getvalue())
