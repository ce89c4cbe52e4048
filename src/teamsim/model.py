"""Foundational domain types and time arithmetic shared by every other module."""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
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
def _digit_runs_split():
    """The split of an id at its runs of decimal digits, keeping the runs.
    Compiled at the first call, not at import."""
    return re.compile(r"(\d+)").split


@functools.cache
def order_key(identifier: str) -> tuple:
    """Natural-order sort key so W2 < W10 and T1.2 < T1.10.

    The split puts each run of decimal digits at an odd index, and only those
    runs become ints. The text between them stays text, also where it holds
    a digit that is not decimal, such as the `²` of `W1²`.

    Memoized: a run sorts the same bounded set of agent, task and meeting ids
    over and over.
    """
    parts = _digit_runs_split()(identifier)
    parts[1::2] = map(int, parts[1::2])
    return tuple(parts)


def hours_to_steps(hours: float) -> int:
    """Number of whole steps needed to cover `hours`, rounding up to the grid.

    Exact on grid multiples because HOURS_PER_STEP is a power of two, so the
    division is exact in floating point.
    """
    if hours < 0:
        raise ValueError(f"negative hours: {hours}")
    return math.ceil(hours / HOURS_PER_STEP)


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


def validate_scenario(scenario: Scenario) -> Scenario:
    """Enforce scenario invariants and return `scenario` as given."""
    team = scenario.team
    if not scenario.tasks:
        raise ScenarioError("no tasks")
    if not team:
        raise EmptyTeamError("empty team")
    # C-level passes over the agents: a wide team adds no Python frame here.
    managers = list(map(attrgetter("role"), team)).count(Role.MANAGER)
    if not managers:
        raise NoManagerError("no manager")
    if managers > 1:
        raise MultipleManagersError(f"{managers} managers, expected exactly one")
    if managers == len(team):
        raise NoWorkerError("no worker")
    for spec in scenario.tasks:
        if spec.estimated_hours <= 0:
            raise NonPositiveEffortError(
                f"non-positive effort: {spec.estimated_hours}"
            )
        if not math.isfinite(spec.estimated_hours):
            # NaN passes the test above, and neither NaN nor inf hours ever end.
            raise NonFiniteEffortError(f"non-finite effort: {spec.estimated_hours}")
    if scenario.policy_name not in POLICY_NAMES:
        raise ScenarioError(f"unknown policy: {scenario.policy_name}")
    if scenario.evaluator_name not in EVALUATOR_NAMES:
        raise ScenarioError(f"unknown evaluator: {scenario.evaluator_name}")
    ids = list(map(attrgetter("agent_id"), team))
    if len(set(ids)) < len(ids):
        raise ScenarioError(
            f"duplicate agent id: {next(a for i, a in enumerate(ids) if a in ids[:i])}")
    if not all(map(attrgetter("skills"), team)):
        raise ScenarioError(
            f"agent {next(a.agent_id for a in team if not a.skills)} has no skills")
    return scenario
