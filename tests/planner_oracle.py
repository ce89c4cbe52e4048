"""Oracles for the plan step, kept as they were before a faster rewrite.

`SuggestingEvenPlanner` is the even planner as it was while it suggested an
assignee for each subtask, the oracle the suggestion-free `EvenPlanner` is
checked against: the same subtasks, each suggesting the lowest-id worker with
the best skill match for its bundle, which `assign` took while that worker was
unloaded and held a required skill.

`StagedTaskGraph` is a `TaskGraph` whose `add_subtasks` works in stages, as
it did before each subtask was built in one pass: every node made PENDING and
inserted, the reverse edges and Kahn's check run over every sibling, then each
sibling's readiness refreshed.
"""

from __future__ import annotations

from teamsim.model import AgentProfile, Scenario, order_key, skill_match_score
from teamsim.planner import DecompositionPlan, PlannerError
from teamsim.taskgraph import (BadDependencyError, CycleError, GraphError,
                               NoSubtasksError, SubtaskSpec, TaskGraph, TaskNode,
                               TaskStatus)


class SuggestingEvenPlanner:
    """One equally sized, dependency-free subtask per worker, each suggesting
    the best-matching worker for its skill bundle."""

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


class StagedTaskGraph(TaskGraph):
    """`TaskGraph` with the staged `add_subtasks`. It keeps an empty child
    list for each subtask, and on an error leaves whatever the stages before
    it made."""

    def add_subtasks(self, parent_id: str, specs: list[SubtaskSpec]) -> list[TaskNode]:
        parent = self.node(parent_id)
        if self._children.get(parent_id):
            raise GraphError(f"{parent_id} already has subtasks")
        if not specs:
            raise NoSubtasksError("no subtasks")

        width = len(str(len(specs)))
        ids = [f"{parent_id}.{i + 1:0{width}d}" for i in range(len(specs))]
        self._children.setdefault(parent_id, [])
        for spec, task_id in zip(specs, ids):
            deps = set()
            for idx in spec.dependencies:
                if not 0 <= idx < len(specs):
                    raise BadDependencyError(f"bad dependency: index {idx}")
                if ids[idx] == task_id:
                    raise CycleError("cycle detected")
                deps.add(ids[idx])
            node = TaskNode(
                task_id=task_id,
                parent_id=parent_id,
                description=spec.description,
                estimated_hours=spec.estimated_hours,
                required_skills=spec.required_skills,
                assignee=spec.suggested_assignee,
                dependencies=frozenset(deps),
                status=TaskStatus.PENDING,
            )
            self.nodes[task_id] = node
            self._children[task_id] = []
            self._children[parent_id].append(task_id)

        for task_id in ids:
            for dep in self.nodes[task_id].dependencies:
                self._dependents.setdefault(dep, []).append(task_id)
        self._staged_assert_acyclic(ids)
        self._open_children[parent_id] = len(ids)
        parent.status = TaskStatus.IN_PROGRESS
        for task_id in ids:
            self._refresh_readiness(task_id)
        return [self.nodes[i] for i in ids]

    def _staged_assert_acyclic(self, sibling_ids: list[str]) -> None:
        """Kahn's algorithm over the sibling group; raises on any cycle."""
        incoming = {i: len(self.nodes[i].dependencies) for i in sibling_ids}
        queue = [i for i in sibling_ids if not incoming[i]]
        seen = 0
        while queue:
            current = queue.pop()
            seen += 1
            for other in self._dependents.get(current, []):
                incoming[other] -= 1
                if not incoming[other]:
                    queue.append(other)
        if seen != len(sibling_ids):
            raise CycleError("cycle detected")
