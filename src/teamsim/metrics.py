"""Run metrics computed purely from the trace: recomputation is always exact.

Completion rate, average completion time, total communication cost, the
time-sampled mean alignment, efficiency (estimated hours of completed work
over wall-clock completion time), optional speedup against a baseline time,
plus the sender/recipient heatmap and message type/channel distributions.

`compute_metrics` is a fold, `MetricsFold`, that takes each event record once
in trace order, a batch of records at a time. The fold is itself a trace
sink, so `teamsim run` folds each batch of events as the engine hands it on
and `teamsim report` folds each chunk of a trace as `TraceLog.chunks` reads
and checks it, and neither holds the trace. Sums are exact: samples are kept
as value -> count and summed as one integer over a common power-of-two
denominator, then rounded once, which is what `math.fsum` gives over the
samples listed one by one. The alignment score, the mean of every (agent,
task) value at the end of every step, is thus Σ value × steps held /
samples, in O(af_update events) instead of one sample per pair per step. Its
`af_update` steps must not go back in the trace, as the engine writes them;
`MetricsError` names one that does. The fold reads each field unchecked, as
`trace.SCHEMAS` types it: the reader checks each line against it.
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
from .model import HOURS_PER_STEP, Scenario, order_key
from .trace import TraceLog


class MetricsError(ValueError):
    pass


class EventError(ValueError):
    """An event names a root task the scenario does not have, holds a
    completion step too large to become hours, or holds a cost or an
    alignment that is not a finite number. `record` is the event's."""

    def __init__(self, record: dict, detail: str) -> None:
        super().__init__(detail)
        self.record = record


def _finite(record: dict, field: str) -> float:
    """The record's `field`, refused when it is NaN or infinite, which the
    engine never writes. An integer passes whatever its size: one beyond the
    float range is the sum's error, as the sum reports it."""
    value = record[field]
    if not -math.inf < value < math.inf:
        raise EventError(record, f"holds a {field!r} of {value!r}, not a finite number")
    return value


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
    and the value itself when all samples are equal. Where `math.fsum` would
    raise, as for a sum beyond the float range, they raise `MetricsError`
    naming the metric, `name`.
    """

    def __init__(self, name: str) -> None:
        self.name = name
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
        try:
            total = sum(num * (scale // den) * times
                        for (num, den), times in ratios) / scale
            # NaN and infinities decide the sum as they decide math.fsum's,
            # which raises ValueError for inf + -inf.
            return math.fsum([total, *(v for v in self.counts if not math.isfinite(v))])
        except OverflowError:
            raise MetricsError(f"{self.name} exceeds the float range") from None
        except ValueError as exc:
            raise MetricsError(f"{self.name} is undefined: {exc}") from None

    def mean(self) -> float:
        counts = self.counts
        if not counts:
            return 0.0
        if min(counts) == max(counts):
            return next(iter(counts))
        total = self.fsum()
        try:
            return total / sum(counts.values())
        except OverflowError:
            # More samples than a float can count, as a step of 10**400 gives.
            raise MetricsError(f"{self.name} exceeds the float range") from None


def _mean(values: Iterable[float], name: str) -> float:
    samples = _Samples(name)
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
        self.samples = _Samples("alignment score")
        self.waiting: deque[tuple[int, tuple[str, str], float]] = deque()
        self.final_step = 0
        self.last_step = 0

    def advance(self, final_step: int) -> None:
        self.final_step = final_step
        waiting = self.waiting
        while waiting and waiting[0][0] < final_step:
            self._set(*waiting.popleft())

    def update(self, record: dict) -> None:
        value = _finite(record, "new")
        step = record["step"]
        if step < 0:
            return
        if step < self.last_step:
            raise MetricsError(
                f"af_update at step {step} follows one at step {self.last_step}")
        self.last_step = step
        change = (step, (record["agent"], record["task"]), value)
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
            try:
                latency = float((sent_step + 1) - root_step)
            except OverflowError:
                raise MetricsError("reply latency exceeds the float range") from None
            by_type.setdefault(kind, _Samples("reply latency")).add(latency)
            by_channel.setdefault(channel, _Samples("reply latency")).add(latency)
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
    """`compute_metrics` a batch of events at a time: `extend` it with the
    event records in trace order, as a `Simulation` trace sink is, then take
    `result()` once, which hands the fold's state to the report. The state
    grows with the roots, the team, the (agent, task) pairs, the (sender,
    recipient) pairs that messages reach and the message threads, not with the
    events."""

    def __init__(self, scenario: Scenario, baseline_hours: float | None = None) -> None:
        self.baseline_hours = baseline_hours
        root_ids = [f"T{i + 1}" for i in range(len(scenario.tasks))]
        self.root_hours = {rid: spec.estimated_hours
                           for rid, spec in zip(root_ids, scenario.tasks)}
        self.completion_hours: dict[str, float | None] = dict.fromkeys(root_ids)
        self.event_count = 0
        self.final_step: int | None = None  # one past the latest action step
        self.comm_cost = _Samples("communication cost")
        self.alignment = _Alignment()
        self.heatmap = _Heatmap([a.agent_id for a in scenario.team])
        self.distributions = _Distributions()

    def extend(self, records: list[dict]) -> None:
        """Fold `records` in order, in one loop that holds the final step in a
        local. An `EventError` names the record it was raised for."""
        self.event_count += len(records)
        final_step = self.final_step
        try:
            for record in records:
                kind = record["kind"]
                if kind == "progress":  # counted, never read: a third of a long run's records
                    continue
                if kind == "action":
                    step = record["step"]
                    if final_step is None or step >= final_step:
                        final_step = step + 1
                        self.alignment.advance(final_step)
                elif kind == "message_sent":
                    self.comm_cost.add(_finite(record, "cost_h"))
                    self.distributions.add(record)
                elif kind == "message_delivered":
                    self.heatmap.add(record)
                elif kind == "af_update":
                    self.alignment.update(record)
                elif kind == "task_done" and record["root"]:
                    try:
                        hours = record["boundary"] * HOURS_PER_STEP
                    except OverflowError:
                        raise EventError(record, "holds a 'boundary' too large to "
                                         "become hours") from None
                    task = record["task"]
                    if task not in self.completion_hours:
                        raise EventError(record, f"names root task {task!r}, which "
                                         "the scenario does not have")
                    self.completion_hours[task] = hours
        finally:
            self.final_step = final_step

    def result(self) -> MetricsReport:
        if not self.event_count:
            raise MetricsError("empty trace")
        if self.final_step is None:
            raise MetricsError("trace has no action events")
        completion_hours = self.completion_hours
        completed = [rid for rid, h in completion_hours.items() if h is not None]
        completion_rate = 100.0 * len(completed) / len(self.root_hours)
        avg_time = (_mean((completion_hours[rid] for rid in completed),
                          "average completion time") if completed else None)

        efficiency = None
        if completed and avg_time:
            try:
                efficiency = math.fsum(self.root_hours[rid] for rid in completed) / avg_time
            except OverflowError:
                raise MetricsError("efficiency exceeds the float range") from None

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
                    baseline_hours: float | None = None) -> MetricsReport:
    fold = MetricsFold(scenario, baseline_hours)
    fold.extend(list(_events(trace)))
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
    agents, zero = report.agents, ["    0"] * len(report.agents)
    column, rows = {agent: i for i, agent in enumerate(agents)}, {}
    for (sender, recipient), count in report.heatmap.items():
        rows.setdefault(sender, zero[:])[column[recipient]] = f"{count:>5}"
    silent = " ".join(zero)
    lines.append("        " + " ".join(f"{a:>5}" for a in agents))
    lines += [f"  {a:>5} {' '.join(rows[a]) if a in rows else silent}" for a in agents]

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
