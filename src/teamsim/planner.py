"""Manager-side decomposition of root tasks and assignment of subtasks.

Decomposition happens once, in the manager's step-0 action slot. The even
planner splits effort evenly across workers and suggests no assignee; a plan
from `teamsim.llm.LlmPlanner` may suggest one per subtask. `assign` then
places every subtask: on its suggested worker while that worker is under the
load cap and holds a required skill, otherwise on the best-scoring open
worker.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heapreplace
from itertools import cycle
from typing import TYPE_CHECKING, NamedTuple

from .model import (AgentProfile, Scenario, _new_tuple, order_key,
                    skill_match_score)
from .taskgraph import (CycleError, SubtaskSpec, TaskGraph, TaskNode,
                        assert_acyclic)

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
    """Reject plans with bad hours totals, dependency indices or cycles, or
    assignees."""
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
    try:
        assert_acyclic([spec.dependencies for spec in plan.subtasks])
    except CycleError:
        raise PlannerError("dependency cycle") from None


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
        # Round-robin the task's skills: the subtask at position p takes every
        # count-th skill from the p-th on. With more workers than skills those
        # slices are singletons and the later subtasks cycle through them, so
        # position p takes bundle p % len(bundles). A slice of the sorted
        # skills is sorted, so it spells its bundle's label as it is.
        parts = [skills[i::count] for i in range(min(count, len(skills)) or 1)]
        bundles = [(frozenset(part), ", ".join(part) or "general") for part in parts]
        description = node.description
        return DecompositionPlan(tuple([
            _new_tuple(SubtaskSpec, (f"{description} (workstream {i}: {label})",
                                     hours_each, bundle, None, ()))
            for i, (bundle, label) in zip(range(1, count + 1), cycle(bundles))]))


def assign(graph: TaskGraph, subtask_ids: list[str],
           team: list[AgentProfile]) -> dict[str, list[str]]:
    """Map subtasks to workers, honoring suggestions under a load cap.

    The cap ceil(n_subtasks / n_workers) keeps the spread minimal: no worker
    exceeds it, so max and min loads differ by at most one. A subtask whose
    suggestion is not taken goes to the open worker with the best skill match,
    then the least load, then the lowest id.
    """
    workers = sorted((a for a in team if not a.is_manager),
                     key=lambda a: order_key(a.agent_id))
    if not workers:
        raise PlannerError("empty team")
    cap = math.ceil(len(subtask_ids) / len(workers))
    profiles: dict[str, AgentProfile] = {}
    out: dict[str, list[str]] = {}
    # Workers who hold the same skills score alike on every subtask. Per such
    # group, a heap of (load, rank, id) entries over its open workers; listed
    # in rank order before any load, each is a heap already.
    groups: dict[frozenset[str], list[tuple[int, int, str]]] = {}
    for rank, a in enumerate(workers):
        profiles[a.agent_id] = a
        out[a.agent_id] = []
        groups.setdefault(a.skills, []).append((0, rank, a.agent_id))
    load: dict[str, int] = dict.fromkeys(profiles, 0)
    # Per required skill set, a heap of (-score, entry, group), one per group,
    # holding the group's top entry as it was when recorded; no two entries
    # tie before the group, since every rank is one worker's. Loads only grow
    # and capped workers only leave, so no recorded entry sorts above the
    # current one: a stale top is dropped or re-keyed until it is current.
    heaps: dict[frozenset[str], list[tuple[float, tuple[int, int, str], list]]] = {}
    nodes = graph.nodes
    for task_id in sorted(subtask_ids, key=order_key):
        node = nodes[task_id]
        required = node.required_skills
        suggested = node.assignee
        if (suggested in load and load[suggested] < cap
                and skill_match_score(profiles[suggested], required) > 0):
            chosen = suggested
        else:
            heap = heaps.get(required)
            if heap is None:
                heap = heaps[required] = [
                    (-skill_match_score(profiles[group[0][2]], required), group[0], group)
                    for group in groups.values() if group]
                heapify(heap)
            while True:
                neg_score, recorded, group = heap[0]
                # Bring the group's top up to date. A recorded load is below
                # the cap, so a current one is too.
                while group:
                    top = group[0]
                    current = load[top[2]]
                    if current == top[0]:
                        break
                    if current >= cap:
                        heappop(group)
                    else:
                        heapreplace(group, (current, top[1], top[2]))
                if not group:
                    heappop(heap)
                elif top is not recorded:
                    heapreplace(heap, (neg_score, top, group))
                else:
                    break
            chosen = top[2]
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
        from .llm import LlmPlanner

        return LlmPlanner(adapter)
    raise ValueError(f"unknown planner: {name}")
