"""The even planner as it was while it suggested an assignee for each subtask,
kept as the oracle the suggestion-free `EvenPlanner` is checked against: the
same subtasks, each suggesting the lowest-id worker with the best skill match
for its bundle, which `assign` took while that worker was unloaded and held a
required skill."""

from __future__ import annotations

from teamsim.model import AgentProfile, Scenario, order_key, skill_match_score
from teamsim.planner import DecompositionPlan, PlannerError
from teamsim.taskgraph import SubtaskSpec, TaskNode


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
