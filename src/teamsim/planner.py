"""Manager-side decomposition of root tasks and assignment of subtasks.

Decomposition happens once, in the manager's step-0 action slot. The
deterministic planner splits effort evenly across workers and suggests no
assignee; the LLM planner asks the external model for a plan, whose subtasks
may each suggest one, and falls back to the even split when the plan fails
validation twice. `assign` then places every subtask: on its suggested worker
while that worker is under the load cap and holds a required skill, otherwise
on the best-scoring open worker.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, NamedTuple

from .model import (AgentProfile, Scenario, _new_tuple, order_key,
                    skill_match_score)
from .taskgraph import SubtaskSpec, TaskGraph, TaskNode

if TYPE_CHECKING:  # pragma: no cover
    from .adapter import ChatCompletionAdapter

HOURS_TOLERANCE = 0.20


class PlannerError(ValueError):
    pass


class DecompositionPlan(NamedTuple):
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
    """One equally sized, dependency-free subtask per worker, with no
    suggested assignee: `assign` places each one.

    A suggestion would add nothing: the plan's W subtasks over W workers give
    `assign` a load cap of 1, and under it the natural suggestion, the
    lowest-id worker of the best score, is taken only while that worker is
    unloaded and scores above 0, when `assign`'s heap picks the same worker:
    the best score, then the lowest id, among the unloaded workers.
    `tests/planner_oracle.py` keeps a planner that makes that suggestion.
    """

    name = "even"

    def decompose(self, node: TaskNode, scenario: Scenario) -> DecompositionPlan:
        count = len(scenario.workers)
        if not count:
            raise PlannerError("empty team")
        hours_each = node.estimated_hours / count
        skills = sorted(node.required_skills)
        specs = []
        for i in range(count):
            # Round-robin the task's skills; with more workers than skills the
            # slice goes empty, so cycle singletons instead.
            bundle = frozenset(skills[i::count]) if skills else frozenset()
            if skills and not bundle:
                bundle = frozenset({skills[i % len(skills)]})
            label = ", ".join(sorted(bundle)) or "general"
            specs.append(_new_tuple(SubtaskSpec, (
                f"{node.description} (workstream {i + 1}: {label})",
                hours_each, bundle, None, ())))
        return DecompositionPlan(subtasks=tuple(specs))


class LlmPlanner:
    """Asks the external model for a plan; one retry, then even-split fallback."""

    name = "llm"

    def __init__(self, adapter: ChatCompletionAdapter) -> None:
        self.adapter = adapter

    def decompose(self, node: TaskNode, scenario: Scenario) -> DecompositionPlan:
        from .adapter import AdapterError

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
        from . import prompts

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
    profiles = {a.agent_id: a for a in workers}
    load: dict[str, int] = dict.fromkeys(profiles, 0)
    out: dict[str, list[str]] = {a.agent_id: [] for a in workers}
    # Per skill set, a heap of (-score, load, rank, id): the best open worker
    # is on top once stale entries are dropped or re-keyed. Loads only grow,
    # so a recorded load is never above the current one.
    heaps: dict[frozenset[str], list[tuple[float, int, int, str]]] = {}

    for task_id in sorted(subtask_ids, key=order_key):
        node = graph.node(task_id)
        required = node.required_skills
        suggested = node.assignee
        if (suggested in load and load[suggested] < cap
                and skill_match_score(profiles[suggested], required) > 0):
            chosen = suggested
        else:
            heap = heaps.get(required)
            if heap is None:
                heap = [(-skill_match_score(a, required), load[a.agent_id], i, a.agent_id)
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
