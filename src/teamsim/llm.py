"""The model-backed policy, planner and alignment evaluator, which only an
LLM run loads. Each builds its prompt from the run's state, asks the external
model through a `ChatCompletionAdapter`, reads the reply as one JSON object
and falls back to the deterministic path, with a warning, on any failure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import prompts
from .adapter import AdapterError
from .alignment import clamp_af, rule_based_delta
from .comms import REQUEST_TYPES, MessageType
from .model import Scenario, order_key
from .planner import DecompositionPlan, EvenPlanner, PlannerError, validate_plan
from .policy import HeuristicPolicy, Intention, IntentionKind, Policy, PolicyContext
from .taskgraph import SubtaskSpec, TaskNode

if TYPE_CHECKING:  # pragma: no cover
    from .adapter import ChatCompletionAdapter
    from .engine import PendingAfEvaluation, World

# A reported alignment becomes a delta in this band: the cap is the largest single-reply
# gain; the floor keeps one bad reply from undershooting the 0.01 minimum from 0.30.
DELTA_MIN = -0.29
DELTA_MAX = 0.50


class LlmPolicy(Policy):
    """Delegates the intention choice to an external model; heuristic fallback."""

    name = "c2c_llm"
    reads_deliveries = True

    def __init__(self, adapter: ChatCompletionAdapter) -> None:
        self.adapter = adapter

    def decide(self, context: PolicyContext) -> Intention:
        try:
            parsed = self.adapter.complete_json(self._messages(context))
            # The model's reasoning, if it gives one, is not kept.
            kind = IntentionKind(str(parsed.get("intention", "")).strip().upper())
        except (AdapterError, ValueError) as exc:
            fallback = HeuristicPolicy().decide(context)
            return fallback._replace(warnings=(*fallback.warnings,
                                               f"intention adapter fallback: {exc}"))
        return Intention(kind, _task_for(kind, context[4], context[5]))

    @staticmethod
    def _messages(context: PolicyContext) -> list[dict]:
        world, agent_id = context[4], context[5]
        tasks_block = "\n".join(
            f"- {view.task_id}: {view.description} | progress "
            f"{view.progress:.0%} | alignment {view.af:.2f} | "
            f"{view.hours_worked:.2f}/{view.estimated_hours:.2f} hours"
            for view in context.assigned[:3]) or "- (no assigned tasks)"
        inbox_desc = ", ".join(f"{k}: {v}" for k, v in
                               sorted(world.delivered[agent_id].items())) or "empty"
        message_info = (f"Inbox: {inbox_desc}. Unanswered requests awaiting you: "
                        f"{len(context.unanswered_inbound)}.")
        last = world.last_actions.get(agent_id)
        sent = f" ({last.message_type})" if last and last.message_type else ""
        last_info = (f"Last action: {last.kind}{sent} at step {last.step}." if last
                     else "Last action: none.")
        return prompts.intention_messages(context.agent.name, context.agent.role.value,
                                          tasks_block, message_info, last_info)


def _task_for(kind: IntentionKind, world: World, agent_id: str) -> str | None:
    """The task `HeuristicPolicy` names with `kind`; None names the active one."""
    if kind is IntentionKind.REPORT_PROGRESS and world.due[agent_id]:
        return min(world.due[agent_id], key=order_key)  # the oldest due report
    blocked = world.blocked[agent_id] if kind is IntentionKind.SCHEDULE_MEETING else {}
    if blocked is None:
        blocked = world.blocked_collaborators(agent_id)
    # The first task two blocked collaborators wait on, not yet convened on.
    return next((task_id for task_id, agents in blocked.items()
                 if len(agents) >= 2 and task_id not in world.organized[agent_id]), None)


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
        return DecompositionPlan(EvenPlanner().decompose(node, scenario).subtasks,
                                 (*warnings, "falling back to even decomposition"))

    def _request_plan(self, node: TaskNode, scenario: Scenario) -> DecompositionPlan:
        messages = prompts.decomposition_messages(
            node.description, node.estimated_hours, sorted(node.required_skills),
            scenario.team, len(scenario.workers))
        parsed = self.adapter.complete_json(messages)
        by_name = {a.name: a.agent_id for a in scenario.team}
        specs = []
        for raw in parsed["subtasks"]:
            if not isinstance(raw, dict):
                raise PlannerError("subtask is not a JSON object")
            assignee = raw.get("suggested_assignee")
            specs.append(SubtaskSpec(
                str(raw["description"]), float(raw["estimated_hours"]),
                frozenset(str(s).lower() for s in raw.get("required_skills", [])),
                by_name.get(assignee, assignee),
                tuple(int(d) for d in raw.get("dependencies", []))))
        return DecompositionPlan(subtasks=tuple(specs))


def normalize_reported_alignment(old_af: float, reported_new_af: float) -> float:
    """The delta from `old_af` to a model's reported new alignment, which
    wins over any change it reports, clamped into the band."""
    return min(DELTA_MAX, max(DELTA_MIN, clamp_af(reported_new_af) - old_af))


class LlmEvaluator:
    """Asks the external model how much a reply improved task understanding."""

    name = "llm"
    reads_text = True

    def __init__(self, adapter: ChatCompletionAdapter) -> None:
        self.adapter = adapter

    def evaluate(self, world: World, pending: PendingAfEvaluation) -> tuple[float, str | None]:
        if pending.root_type not in REQUEST_TYPES:  # meetings and updates: the table's impact
            return rule_based_delta(pending.root_type), None
        node = world.graph.node(pending.task_id)
        old_af = world.alignment.get(pending.agent_id, pending.task_id)
        stats = world.stats[pending.agent_id, pending.task_id]
        reply = pending.reply
        messages = prompts.evaluation_messages(
            pending.task_id, node.description, sorted(node.required_skills),
            stats.hours_worked, node.estimated_hours, old_af, MessageType.RESPONSE.value,
            reply.from_agent, world.threads[reply.thread_id].root.content, reply.content)
        try:
            reported = float(self.adapter.complete_json(messages)["new_alignment_factor"])
            return normalize_reported_alignment(old_af, reported), None
        except (AdapterError, KeyError, TypeError, ValueError) as exc:
            return rule_based_delta(pending.root_type), f"evaluator fallback: {exc}"
