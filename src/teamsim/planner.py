"""Manager-side decomposition of root tasks and assignment of subtasks.

Decomposition happens once, in the manager's step-0 action slot. The
deterministic planner splits effort evenly across workers; the LLM planner
asks the external model for a plan and falls back to the even split when the
plan fails validation twice.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .adapter import AdapterError, ChatCompletionAdapter
from .model import AgentProfile, Scenario, order_key, skill_match_score
from .taskgraph import SubtaskSpec, TaskGraph, TaskNode
from . import prompts

HOURS_TOLERANCE = 0.20


class PlannerError(ValueError):
    pass


@dataclass(frozen=True)
class DecompositionPlan:
    subtasks: tuple[SubtaskSpec, ...]
    warnings: tuple[str, ...] = ()


def validate_plan(plan: DecompositionPlan, estimated_hours: float,
                  team: list[AgentProfile]) -> None:
    """Reject plans with bad hours totals, dependency indices, or assignees."""
    if not plan.subtasks:
        raise PlannerError("plan has no subtasks")
    total = sum(s.estimated_hours for s in plan.subtasks)
    if not (1 - HOURS_TOLERANCE) * estimated_hours <= total <= (1 + HOURS_TOLERANCE) * estimated_hours:
        raise PlannerError(
            f"plan hours {total:.2f} outside tolerance of {estimated_hours:.2f}"
        )
    known = {a.agent_id for a in team} | {a.name for a in team}
    for i, spec in enumerate(plan.subtasks):
        if spec.estimated_hours <= 0:
            raise PlannerError(f"subtask {i} has non-positive hours")
        for dep in spec.dependencies:
            if not 0 <= dep < len(plan.subtasks) or dep == i:
                raise PlannerError(f"bad dependency: subtask {i} -> index {dep}")
        if spec.suggested_assignee is not None and spec.suggested_assignee not in known:
            raise PlannerError(f"unknown assignee: {spec.suggested_assignee}")


class EvenPlanner:
    """One equally sized, dependency-free subtask per worker."""

    name = "even"

    def decompose(self, node: TaskNode, scenario: Scenario) -> DecompositionPlan:
        workers = sorted(scenario.workers, key=lambda a: order_key(a.agent_id))
        if not workers:
            raise PlannerError("empty team")
        count = len(workers)
        hours_each = node.estimated_hours / count
        skills = sorted(node.required_skills)
        specs = []
        best: dict[frozenset[str], AgentProfile] = {}
        for i in range(count):
            # Round-robin the task's skills; with more workers than skills the
            # slice goes empty, so cycle singletons instead.
            bundle = frozenset(skills[i::count]) if skills else frozenset()
            if skills and not bundle:
                bundle = frozenset({skills[i % len(skills)]})
            if bundle not in best:
                # max() keeps the first of equal scores: the lowest worker id.
                best[bundle] = max(workers, key=lambda a: skill_match_score(a, bundle))
            assignee = best[bundle]
            label = ", ".join(sorted(bundle)) or "general"
            specs.append(SubtaskSpec(
                description=f"{node.description} (workstream {i + 1}: {label})",
                estimated_hours=hours_each,
                required_skills=bundle,
                suggested_assignee=assignee.agent_id,
                dependencies=(),
            ))
        return DecompositionPlan(subtasks=tuple(specs))


class LlmPlanner:
    """Asks the external model for a plan; one retry, then even-split fallback."""

    name = "llm"

    def __init__(self, adapter: ChatCompletionAdapter) -> None:
        self.adapter = adapter

    def decompose(self, node: TaskNode, scenario: Scenario) -> DecompositionPlan:
        warnings: list[str] = []
        for attempt in range(2):
            try:
                plan = self._request_plan(node, scenario)
                validate_plan(plan, node.estimated_hours, scenario.team)
                return DecompositionPlan(plan.subtasks, tuple(warnings))
            except (AdapterError, PlannerError, KeyError, TypeError, ValueError) as exc:
                warnings.append(f"decomposition attempt {attempt + 1} failed: {exc}")
        fallback = EvenPlanner().decompose(node, scenario)
        warnings.append("falling back to even decomposition")
        return DecompositionPlan(fallback.subtasks, tuple(warnings))

    def _request_plan(self, node: TaskNode, scenario: Scenario) -> DecompositionPlan:
        messages = prompts.decomposition_messages(
            node.description, node.estimated_hours, sorted(node.required_skills),
            scenario.team, len(scenario.workers),
        )
        parsed = self.adapter.complete_json(messages)
        by_name = {a.name: a.agent_id for a in scenario.team}
        specs = []
        for raw in parsed["subtasks"]:
            assignee = raw.get("suggested_assignee")
            if assignee in by_name:
                assignee = by_name[assignee]
            specs.append(SubtaskSpec(
                description=str(raw["description"]),
                estimated_hours=float(raw["estimated_hours"]),
                required_skills=frozenset(
                    str(s).lower() for s in raw.get("required_skills", [])
                ),
                suggested_assignee=assignee,
                dependencies=tuple(int(d) for d in raw.get("dependencies", [])),
            ))
        return DecompositionPlan(subtasks=tuple(specs))


def assign(graph: TaskGraph, subtask_ids: list[str],
           team: list[AgentProfile]) -> dict[str, list[str]]:
    """Map subtasks to workers, honoring suggestions under a load cap.

    The cap ceil(n_subtasks / n_workers) keeps the spread minimal: no worker
    exceeds it, so max and min loads differ by at most one.
    """
    workers = sorted((a for a in team if not a.is_manager),
                     key=lambda a: order_key(a.agent_id))
    if not workers:
        raise PlannerError("empty team")
    cap = math.ceil(len(subtask_ids) / len(workers))
    load: dict[str, int] = {a.agent_id: 0 for a in workers}
    out: dict[str, list[str]] = {a.agent_id: [] for a in workers}
    scores: dict[frozenset[str], dict[str, float]] = {}
    # Per skill set, a heap of (-score, load, rank, id): the best open worker
    # is on top once stale entries are dropped or re-keyed. Loads only grow,
    # so a recorded load is never above the current one.
    heaps: dict[frozenset[str], list[tuple[float, int, int, str]]] = {}

    for task_id in sorted(subtask_ids, key=order_key):
        node = graph.node(task_id)
        required = node.required_skills
        if required not in scores:
            scores[required] = {a.agent_id: skill_match_score(a, required)
                                for a in workers}
        score = scores[required]
        suggested = node.assignee
        if suggested in load and load[suggested] < cap and score[suggested] > 0:
            chosen = suggested
        else:
            heap = heaps.get(required)
            if heap is None:
                heap = [(-score[a.agent_id], load[a.agent_id], i, a.agent_id)
                        for i, a in enumerate(workers) if load[a.agent_id] < cap]
                heapq.heapify(heap)
                heaps[required] = heap
            while True:
                neg_score, recorded, rank, chosen = heap[0]
                if load[chosen] >= cap:
                    heapq.heappop(heap)
                elif recorded != load[chosen]:
                    heapq.heapreplace(heap, (neg_score, load[chosen], rank, chosen))
                else:
                    break
        node.assignee = chosen
        load[chosen] += 1
        out[chosen].append(task_id)
    return out


def build_planner(name: str, adapter: ChatCompletionAdapter | None = None):
    if name == "even":
        return EvenPlanner()
    if name == "llm":
        if adapter is None:
            raise ValueError("llm planner requires an adapter")
        return LlmPlanner(adapter)
    raise ValueError(f"unknown planner: {name}")
