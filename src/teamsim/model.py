"""Foundational domain types and time arithmetic shared by every other module."""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

HOURS_PER_STEP = 0.25  # the step grid of every run
DEFAULT_MAX_STEPS = 160

# Builds a named tuple at C level, without the Python `__new__` its class has.
_new_tuple = tuple.__new__

POLICY_NAMES = ("no_comm", "fixed_steps", "c2c_heuristic", "c2c_llm")
EVALUATOR_NAMES = ("rule_based", "llm")


class Role(str, Enum):
    MANAGER = "manager"
    WORKER = "worker"


class ScenarioError(ValueError):
    """Base class for scenario validation failures."""


class NoManagerError(ScenarioError):
    pass


class NoWorkerError(ScenarioError):
    pass


class MultipleManagersError(ScenarioError):
    pass


class EmptyTeamError(ScenarioError):
    pass


class NonPositiveEffortError(ScenarioError):
    pass


class NonFiniteEffortError(ScenarioError):
    pass


@functools.cache
def order_key(identifier: str) -> tuple:
    """Natural-order sort key so W2 < W10 and T1.2 < T1.10.

    Memoized: a run sorts the same bounded set of agent, task and meeting ids
    over and over.
    """
    return tuple(
        int(part) if part.isdigit() else part
        for part in re.split(r"(\d+)", identifier)
    )


def hours_to_steps(hours: float, hours_per_step: float = HOURS_PER_STEP) -> int:
    """Number of whole steps needed to cover `hours`, rounding up to the grid.

    Exact on grid multiples for binary grids (0.25, 0.5, ...) because the
    division is then exact in floating point.
    """
    if hours < 0:
        raise ValueError(f"negative hours: {hours}")
    if hours_per_step <= 0:
        raise ValueError(f"non-positive hours_per_step: {hours_per_step}")
    if hours == 0:
        return 0
    return math.ceil(hours / hours_per_step)


class SimClock:
    """Discrete simulation clock. `step` counts completed step boundaries."""

    __slots__ = ("step", "max_steps")

    def __init__(self, step: int = 0, max_steps: int = DEFAULT_MAX_STEPS) -> None:
        self.step = step
        self.max_steps = max_steps

    def advance(self) -> None:
        if self.step >= self.max_steps:
            raise RuntimeError("clock past max_steps")
        self.step += 1


class AgentProfile(NamedTuple):
    agent_id: str
    name: str
    role: Role
    skills: frozenset[str]

    @property
    def is_manager(self) -> bool:
        return self.role is Role.MANAGER


def skill_match_score(agent: AgentProfile, required: set[str] | frozenset[str]) -> float:
    """Fraction of required skills the agent holds; 1.0 when nothing is required."""
    if not required:
        return 1.0
    return len(agent.skills & required) / len(required)


class TaskSpec(NamedTuple):
    description: str
    estimated_hours: float
    required_skills: frozenset[str]


# The one dataclass: `dataclasses.replace` derives a scenario's variants.
@dataclass
class Scenario:
    name: str
    team: list[AgentProfile]
    tasks: list[TaskSpec]
    policy_name: str = "no_comm"
    evaluator_name: str = "rule_based"
    skill_pool: tuple[str, ...] = ()
    team_label: str = ""

    @property
    def manager(self) -> AgentProfile:
        return next(a for a in self.team if a.is_manager)

    @property
    def workers(self) -> list[AgentProfile]:
        return [a for a in self.team if not a.is_manager]


def validate_scenario(raw: Scenario) -> Scenario:
    """Enforce scenario invariants and normalize skill tags to lower case."""
    if not raw.team:
        raise EmptyTeamError("empty team")
    managers = [a for a in raw.team if a.role is Role.MANAGER]
    if not managers:
        raise NoManagerError("no manager")
    if len(managers) > 1:
        raise MultipleManagersError(f"{len(managers)} managers, expected exactly one")
    if len(managers) == len(raw.team):
        raise NoWorkerError("no worker")
    if not raw.tasks:
        raise ScenarioError("no tasks")
    for spec in raw.tasks:
        if spec.estimated_hours <= 0:
            raise NonPositiveEffortError(
                f"non-positive effort: {spec.estimated_hours}"
            )
        if not math.isfinite(spec.estimated_hours):
            # NaN passes the test above, and neither NaN nor inf hours ever end.
            raise NonFiniteEffortError(f"non-finite effort: {spec.estimated_hours}")
    if raw.policy_name not in POLICY_NAMES:
        raise ScenarioError(f"unknown policy: {raw.policy_name}")
    if raw.evaluator_name not in EVALUATOR_NAMES:
        raise ScenarioError(f"unknown evaluator: {raw.evaluator_name}")

    # Agents and tasks are rebuilt by position through `tuple.__new__`, which
    # runs no Python-level `__new__` or `_replace`.
    seen: set[str] = set()
    team: list[AgentProfile] = []
    for agent_id, name, role, skills in raw.team:
        if agent_id in seen:
            raise ScenarioError(f"duplicate agent id: {agent_id}")
        seen.add(agent_id)
        if not skills:
            raise ScenarioError(f"agent {agent_id} has no skills")
        team.append(_new_tuple(AgentProfile, (
            agent_id, name, role, frozenset([s.lower() for s in skills]))))

    tasks = [_new_tuple(TaskSpec, (description, float(hours),
                                   frozenset([s.lower() for s in required])))
             for description, hours, required in raw.tasks]
    pool = tuple([s.lower() for s in raw.skill_pool])
    return replace(raw, team=team, tasks=tasks, skill_pool=pool)
