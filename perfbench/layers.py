"""Per-layer tracing installed from outside the program.

A `Tracer` replaces chosen functions and methods of the `teamsim` modules with
wrappers. A span wrapper records (name, start, end, parent span, pass id) in
memory; a count wrapper only counts calls, for functions called so often that
a span would distort the run. `uninstall` puts every original back.

Targets are named "<module>:<qualname>". A target that no longer exists is
reported as absent and skipped, so the benchmark survives deletions.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

MARKER = "__perfbench_wrapper__"
PACKAGE = "teamsim"

# Each layer is the teamsim module of the same name.
LAYERS = ("cli", "config", "engine", "policy", "model", "planner", "taskgraph",
          "comms", "alignment", "trace", "metrics")

SPAN_TARGETS = (
    "cli:main",
    "config:parse_scenario", "config:parse_scenario_text", "config:emit_scenario",
    "model:validate_scenario",
    "engine:Simulation.__init__", "engine:Simulation.run", "engine:Simulation.step",
    "engine:World.__init__", "engine:World.assigned_tasks",
    "engine:World.blocked_collaborators", "engine:World.unanswered_inbound",
    "engine:World.open_outbound_tasks", "engine:World.pending_invites",
    "engine:World.has_unprocessed_invite",
    "policy:build_context", "policy:build_policy", "policy:NoCommPolicy.decide",
    "policy:FixedStepsPolicy.decide", "policy:HeuristicPolicy.decide",
    "policy:select_recipients", "policy:compose_message", "policy:compose_reply",
    "planner:EvenPlanner.decompose", "planner:assign", "planner:build_planner",
    "taskgraph:TaskGraph.add_root", "taskgraph:TaskGraph.add_subtasks",
    "taskgraph:TaskGraph.all_roots_done",
    "comms:CommBuffer.pop_due", "comms:CommBuffer.enqueue",
    "alignment:AlignmentState.apply_delta", "alignment:effective_progress",
    "trace:TraceLog.to_jsonl", "trace:TraceLog.write", "trace:TraceLog.read",
    "metrics:compute_metrics", "metrics:render_report", "metrics:write_csv",
    "metrics:heatmap", "metrics:distributions",
)
COUNT_TARGETS = (
    "model:order_key",
    "taskgraph:TaskGraph.record_work",
    "taskgraph:TaskGraph.children",
)


def _unwrap_descriptor(raw):
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__, type(raw)
    return raw, None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.pass_id: object = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.pass_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        setattr(wrapper, MARKER, True)
        return wrapper

    def _count(self, name: str, fn):
        counts, tracer = self.counts, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name, tracer.pass_id] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARKER, True)
        return wrapper

    # -- install / uninstall --------------------------------------------------

    def _modules(self) -> list:
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def _install_one(self, target: str, make) -> None:
        module_name, qualname = target.split(":")
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        name = f"{module_name}.{qualname}"
        owner_path, _, attr = qualname.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        # Only attributes defined on the owner itself: an inherited one would
        # be wrapped twice or under the wrong name.
        if owner is None or attr not in vars(owner):
            self.absent.append(name)
            return
        raw = vars(owner)[attr]
        fn, descriptor = _unwrap_descriptor(raw)
        if not callable(fn):
            self.absent.append(name)
            return
        wrapped = make(name, fn)
        if descriptor is not None:
            wrapped = descriptor(wrapped)
        if inspect.isclass(owner):
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        # A module-level function is also bound by name in every module that
        # imported it; replace each binding.
        for other in self._modules():
            for key, value in list(vars(other).items()):
                if value is fn:
                    self._restore.append((other, key, value))
                    setattr(other, key, wrapped)

    def install(self, span_targets=SPAN_TARGETS, count_targets=COUNT_TARGETS) -> None:
        for target in span_targets:
            self._install_one(target, self._span)
        for target in count_targets:
            self._install_one(target, self._count)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def leftover_wrappers(self) -> list[str]:
        """Names of wrapped objects still reachable from the package."""
        found = []
        for module in self._modules():
            for key, value in vars(module).items():
                owners = [(key, value)]
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    owners += [(f"{key}.{k}", v) for k, v in vars(value).items()]
                for label, obj in owners:
                    fn, _ = _unwrap_descriptor(obj)
                    if getattr(fn, MARKER, False):
                        found.append(f"{module.__name__}:{label}")
        return found


# -- aggregation --------------------------------------------------------------

STEP = "engine.Simulation.step"
DECIDE = ("policy.NoCommPolicy.decide", "policy.FixedStepsPolicy.decide",
          "policy.HeuristicPolicy.decide")

# Per-layer metric -> (what is summed per pass, span or count names):
# "self" is span self time in seconds, "calls" the number of spans, "count"
# the calls seen by a count wrapper.
FUNCTION_METRICS = {
    "policy.build_context_s": ("self", ("policy.build_context",)),
    "policy.build_context_calls": ("calls", ("policy.build_context",)),
    "policy.decide_s": ("self", DECIDE),
    "policy.decide_calls": ("calls", DECIDE),
    "engine.step_calls": ("calls", (STEP,)),
    "engine.step_self_s": ("self", (STEP,)),
    **{f"engine.{q}_s": ("self", (f"engine.World.{q}",))
       for q in ("assigned_tasks", "blocked_collaborators", "unanswered_inbound",
                 "open_outbound_tasks", "pending_invites")},
    "model.order_key_calls": ("count", ("model.order_key",)),
    "model.validate_s": ("self", ("model.validate_scenario",)),
    "planner.decompose_s": ("self", ("planner.EvenPlanner.decompose",)),
    "planner.assign_s": ("self", ("planner.assign",)),
    "taskgraph.record_work_calls": ("count", ("taskgraph.TaskGraph.record_work",)),
    "taskgraph.children_calls": ("count", ("taskgraph.TaskGraph.children",)),
    "comms.pop_due_s": ("self", ("comms.CommBuffer.pop_due",)),
    "trace.to_jsonl_s": ("self", ("trace.TraceLog.to_jsonl",)),
    "trace.write_s": ("self", ("trace.TraceLog.write",)),
    "trace.read_s": ("self", ("trace.TraceLog.read",)),
    "metrics.compute_s": ("self", ("metrics.compute_metrics",)),
    "config.parse_s": ("self", ("config.parse_scenario", "config.parse_scenario_text")),
    "config.emit_s": ("self", ("config.emit_scenario",)),
}
# Read from the durations of the step spans, grouped by the run that made them.
STEP_METRICS = ("engine.step_ms_p50", "engine.step_ms_p99", "engine.plan_step_ms",
                "engine.step_ms_last_over_first_decile")


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _step_metrics(steps_by_run: list[list[float]]) -> dict[str, float]:
    if not steps_by_run:
        return dict.fromkeys(STEP_METRICS, 0.0)
    step_ms = [d * 1e3 for run in steps_by_run for d in run]
    growth = []
    for run in steps_by_run:
        # Step 0 is the plan step; the deciles compare the steps after it.
        after_plan = run[1:]
        if len(after_plan) >= 2:
            k = max(1, len(after_plan) // 10)
            growth.append(statistics.fmean(after_plan[-k:]) / statistics.fmean(after_plan[:k]))
    return {
        "engine.step_ms_p50": _percentile(step_ms, 0.5),
        "engine.step_ms_p99": _percentile(step_ms, 0.99),
        "engine.plan_step_ms": statistics.fmean(run[0] * 1e3 for run in steps_by_run),
        "engine.step_ms_last_over_first_decile": statistics.median(growth) if growth else 0.0,
    }


def summarize(tracer: Tracer, pass_ids: list) -> dict[str, float]:
    """Per-pass self times and call counts, and step shape, over the given passes."""
    wanted = set(pass_ids)
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {"self": defaultdict(float), "calls": Counter(), "count": Counter()}
    steps_by_run: dict[int, list[float]] = defaultdict(list)
    for i, (name, start, end, parent, pass_id) in enumerate(spans):
        if pass_id in wanted:
            totals["self"][name] += end - start - child_time[i]
            totals["calls"][name] += 1
            if name == STEP:
                steps_by_run[parent].append(end - start)
    for (name, pass_id), n in tracer.counts.items():
        if pass_id in wanted:
            totals["count"][name] += n

    passes = len(pass_ids)
    out = {f"{layer}.self_s": sum(v for k, v in totals["self"].items()
                                  if k.split(".")[0] == layer) / passes
           for layer in LAYERS}
    for metric, (what, names) in FUNCTION_METRICS.items():
        out[metric] = sum(totals[what][n] for n in names) / passes
    out.update(_step_metrics(list(steps_by_run.values())))
    return out


def absent_metrics(tracer: Tracer) -> list[str]:
    """Metrics whose every source is absent; they are reported as 0."""
    missing = set(tracer.absent)
    found = [m for m, (_, names) in FUNCTION_METRICS.items() if missing.issuperset(names)]
    if STEP in missing:
        found += STEP_METRICS
    return sorted(found)
