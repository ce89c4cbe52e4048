"""Task DAG with dependency readiness and progress accounting.

Progress is stored as accumulated effective hours. A node's completion
fraction and done flag are stored beside them and set where hours accumulate
and where the node finishes, so a read costs nothing. A parent is done
exactly when every subtask is done. Below a node's mark, a completion
fraction, a step crosses no report milestone and cannot finish the node: the
engine credits such a step itself, and `TaskGraph.reach` every other.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

# Slack against float drift when effective hours accumulate in many small
# increments; one part in 1e9 of an hour is far below one step of work.
DONE_EPS = 1e-9

# The completion fractions at which a task has a milestone to report.
REPORT_MILESTONES = (0.5, 1.0)


class GraphError(ValueError):
    pass


class CycleError(GraphError):
    pass


class BadDependencyError(GraphError):
    pass


class NoSubtasksError(GraphError):
    pass


class TaskAlreadyDoneError(GraphError):
    pass


class TaskStatus(str, Enum):
    PENDING = "pending"
    READY = "ready"
    IN_PROGRESS = "in_progress"
    DONE = "done"


class SubtaskSpec(NamedTuple):
    """Planner-facing subtask description; dependencies are sibling indices."""

    description: str
    estimated_hours: float
    required_skills: frozenset[str]
    # The worker a model-made plan proposes, which `planner.assign` takes
    # while that worker is under the load cap and holds a required skill;
    # None, as in every even-split subtask, leaves the choice to `assign`.
    suggested_assignee: str | None = None
    dependencies: tuple[int, ...] = ()


class TaskNode:
    __slots__ = ("task_id", "parent_id", "description", "estimated_hours",
                 "required_skills", "dependencies", "assignee",
                 "accumulated_effective_hours", "status", "progress", "done", "mark")

    def __init__(self, task_id: str, parent_id: str | None, description: str,
                 estimated_hours: float, required_skills: frozenset[str],
                 dependencies: frozenset[str] = frozenset(),
                 assignee: str | None = None,
                 status: TaskStatus = TaskStatus.READY) -> None:
        self.task_id = task_id
        self.parent_id = parent_id
        self.description = description
        self.estimated_hours = estimated_hours
        self.required_skills = required_skills
        self.dependencies = dependencies
        self.assignee = assignee
        self.accumulated_effective_hours = 0.0
        self.status = status
        # Completion fraction of a leaf, capped at 1; set with its hours.
        self.progress = 0.0
        # Whether `status` is DONE; set with it by `TaskGraph._mark_done`.
        self.done = False
        # Armed by `reach`; until then and once done, 0.0: every step reaches it.
        self.mark = 0.0


class TaskGraph:
    def __init__(self) -> None:
        self.nodes: dict[str, TaskNode] = {}
        self.roots: list[str] = []
        self._children: dict[str, list[str]] = {}
        # Reverse dependency edges: task -> siblings that depend on it.
        self._dependents: dict[str, list[str]] = {}
        # Parent -> number of its subtasks not yet done.
        self._open_children: dict[str, int] = {}
        # How many roots `_mark_done` has marked done.
        self._roots_done = 0

    # -- construction -----------------------------------------------------

    def add_root(self, task_id: str, description: str, estimated_hours: float,
                 required_skills: frozenset[str]) -> TaskNode:
        if task_id in self.nodes:
            raise GraphError(f"duplicate task id: {task_id}")
        if estimated_hours <= 0:
            raise GraphError(f"non-positive effort: {estimated_hours}")
        node = TaskNode(
            task_id=task_id,
            parent_id=None,
            description=description,
            estimated_hours=estimated_hours,
            required_skills=required_skills,
        )
        self.nodes[task_id] = node
        self.roots.append(task_id)
        self._children[task_id] = []
        return node

    def add_subtasks(self, parent_id: str, specs: list[SubtaskSpec]) -> list[TaskNode]:
        """Materialize sibling subtasks under `parent_id`.

        Dependency indices refer to positions in `specs`; edges are restricted
        to siblings and re-checked for cycles.
        """
        parent = self.node(parent_id)
        if self._children[parent_id]:
            raise GraphError(f"{parent_id} already has subtasks")
        if not specs:
            raise NoSubtasksError("no subtasks")

        width = len(str(len(specs)))
        ids = [f"{parent_id}.{i + 1:0{width}d}" for i in range(len(specs))]
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
        self._assert_acyclic(ids)
        self._open_children[parent_id] = len(ids)
        parent.status = TaskStatus.IN_PROGRESS
        for task_id in ids:
            self._refresh_readiness(task_id)
        return [self.nodes[i] for i in ids]

    def _assert_acyclic(self, sibling_ids: list[str]) -> None:
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

    # -- queries ----------------------------------------------------------

    def node(self, task_id: str) -> TaskNode:
        try:
            return self.nodes[task_id]
        except KeyError:
            raise GraphError(f"unknown task: {task_id}") from None

    def children(self, task_id: str) -> list[TaskNode]:
        return [self.nodes[c] for c in self._children.get(task_id, [])]

    def dependents(self, task_id: str) -> list[TaskNode]:
        """Siblings whose dependencies include `task_id`, in id order."""
        return [self.nodes[d] for d in self._dependents.get(task_id, [])]

    def all_roots_done(self) -> bool:
        return self._roots_done == len(self.roots)

    # -- mutation ----------------------------------------------------------

    def record_work(self, task_id: str, effective_hours: float) -> bool:
        """Credit effective hours to a leaf; returns True when it became done."""
        if effective_hours < 0:
            raise GraphError(f"negative effective hours: {effective_hours}")
        node = self.node(task_id)
        hours = node.accumulated_effective_hours + effective_hours
        return self.reach(node, hours, min(1.0, hours / node.estimated_hours))

    def reach(self, node: TaskNode, hours: float, progress: float) -> bool:
        """Store a leaf's hours and progress and re-arm its mark; True when done."""
        if node.done:
            raise TaskAlreadyDoneError("task already done")
        if self._children[node.task_id]:
            raise GraphError(f"{node.task_id} is not a leaf")
        node.accumulated_effective_hours = hours
        node.progress = progress
        if node.status is TaskStatus.READY:
            node.status = TaskStatus.IN_PROGRESS
        if hours >= node.estimated_hours - DONE_EPS:
            node.mark = 0.0
            self._mark_done(node)
            return True
        for milestone in REPORT_MILESTONES:  # the last is 1.0
            if milestone > progress:
                break
        # Any hours at or past the done threshold divide to at least its fraction.
        estimated = node.estimated_hours
        node.mark = min(milestone, (estimated - DONE_EPS) / estimated)
        return False

    def _mark_done(self, node: TaskNode) -> None:
        node.status = TaskStatus.DONE
        node.done = True
        for dependent_id in self._dependents.get(node.task_id, []):
            self._refresh_readiness(dependent_id)
        if node.parent_id is None:
            self._roots_done += 1
        else:
            self._open_children[node.parent_id] -= 1
            if not self._open_children[node.parent_id]:
                self._mark_done(self.nodes[node.parent_id])

    def _refresh_readiness(self, task_id: str) -> None:
        node = self.nodes[task_id]
        if node.status is TaskStatus.PENDING and all(
            self.nodes[d].done for d in node.dependencies
        ):
            node.status = TaskStatus.READY
