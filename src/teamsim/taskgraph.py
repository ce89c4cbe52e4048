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


def assert_acyclic(dependencies: list[tuple[int, ...]]) -> None:
    """Kahn's algorithm over one sibling group, given each sibling's
    dependencies as indices in range and none its own; raises CycleError on
    any cycle. Only the siblings on an edge are visited."""
    incoming: dict[int, int] = {}
    dependents: dict[int, list[int]] = {}
    for i, deps in enumerate(dependencies):
        if deps:
            deps = set(deps)
            incoming[i] = len(deps)
            for dep in deps:
                dependents.setdefault(dep, []).append(i)
    queue = [i for i in dependents if i not in incoming]
    while queue:
        for other in dependents.get(queue.pop(), ()):
            incoming[other] -= 1
            if not incoming[other]:
                queue.append(other)
    if any(incoming.values()):
        raise CycleError("cycle detected")


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


_NO_DEPENDENCIES: frozenset[str] = frozenset()


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
        # Each node with subtasks -> their ids; a leaf has no entry.
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
        return node

    def add_subtasks(self, parent_id: str, specs: list[SubtaskSpec]) -> list[TaskNode]:
        """Materialize sibling subtasks under `parent_id`, all or none.

        Dependency indices refer to positions in `specs`; edges are restricted
        to siblings and checked for cycles. A new subtask is READY when it
        depends on nothing and PENDING otherwise: no sibling is done yet.
        """
        parent = self.node(parent_id)
        if parent_id in self._children:
            raise GraphError(f"{parent_id} already has subtasks")
        if not specs:
            raise NoSubtasksError("no subtasks")

        count = len(specs)
        # Ids numbered from 1, zero-padded to one width so that they sort alike
        # as text and in natural order.
        ids = list(map(f"{parent_id}.{{:0{len(str(count))}d}}".format,
                       range(1, count + 1)))
        created: list[TaskNode] = []
        # The positions of the subtasks that depend on a sibling.
        linked: list[int] = []
        for i, task_id, (description, hours, skills, assignee, deps) in zip(
                range(count), ids, specs):
            if not deps:
                created.append(TaskNode(task_id, parent_id, description, hours, skills,
                                        _NO_DEPENDENCIES, assignee, TaskStatus.READY))
                continue
            for idx in deps:
                if not 0 <= idx < count:
                    raise BadDependencyError(f"bad dependency: index {idx}")
                if idx == i:
                    raise CycleError("cycle detected")
            linked.append(i)
            created.append(TaskNode(task_id, parent_id, description, hours, skills,
                                    frozenset([ids[idx] for idx in deps]), assignee,
                                    TaskStatus.PENDING))
        if linked:
            assert_acyclic([spec.dependencies for spec in specs])
            for i in linked:
                task_id = ids[i]
                for dep in created[i].dependencies:
                    self._dependents.setdefault(dep, []).append(task_id)
        self.nodes.update(zip(ids, created))
        self._children[parent_id] = ids
        self._open_children[parent_id] = count
        parent.status = TaskStatus.IN_PROGRESS
        return created

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
        if node.task_id in self._children:
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
