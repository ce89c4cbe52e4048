"""Scenario file parsing, team shorthand expansion, and scenario emission.

Scenario files are YAML with a team block (either the "1M+4W" shorthand or an
explicit agent list) and a tasks block of description/hours/skills entries.
Round trip holds: parse(emit(scenario)) == scenario.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import yaml

from .model import (AgentProfile, Role, Scenario, ScenarioError, TaskSpec,
                    validate_scenario)

MANAGER_SKILLS = ("planning", "coordination")
WORKER_SKILLS_PER_AGENT = 3
WORKER_SKILL_STRIDE = 2

_SHORTHAND = re.compile(r"^(\d+)M\+(\d+)W$", re.IGNORECASE)


def _represent_str(dumper: yaml.SafeDumper, data: str) -> yaml.ScalarNode:
    # The pure-Python emitter writes U+0085 raw in plain and single-quoted
    # scalars, where every reader takes it for a line break; in double quotes
    # both emitters escape it as "\N".
    style = '"' if "\x85" in data else None
    return dumper.represent_scalar("tag:yaml.org,2002:str", data, style=style)


def _dumper(base: type) -> type:
    """A subclass of the PyYAML dumper `base` that double-quotes U+0085."""
    dumper = type(base.__name__, (base,), {})
    dumper.add_representer(str, _represent_str)
    return dumper


# libyaml's safe loader and dumper where PyYAML was built with libyaml, the
# pure-Python ones elsewhere. The C emitter also escapes non-BMP characters,
# which both loaders read back unchanged.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = _dumper(getattr(yaml, "CSafeDumper", yaml.SafeDumper))


@dataclass
class RunConfig:
    scenario_path: str
    policy: str | None = None
    evaluator: str | None = None
    seed: int | None = None
    out_dir: str = "out"
    max_steps: int | None = None
    endpoint: str | None = None
    model: str | None = None
    temperature: float = 0.7
    baseline_hours: float | None = None
    parallel_decide: bool = False

    def needs_adapter(self, scenario: Scenario) -> bool:
        policy = self.policy or scenario.policy_name
        evaluator = self.evaluator or scenario.evaluator_name
        return policy == "c2c_llm" or evaluator == "llm"


def expand_team_shorthand(shorthand: str, skill_pool: list[str]) -> list[AgentProfile]:
    """Expand "NM+KW" into explicit agents with a documented skill rotation.

    Worker i takes WORKER_SKILLS_PER_AGENT consecutive pool entries starting
    at offset (i-1)*WORKER_SKILL_STRIDE, wrapping around, so adjacent workers
    overlap and every pool skill is held by at least one worker.
    """
    match = _SHORTHAND.match(shorthand.strip())
    if match is None:
        raise ScenarioError(f"malformed team shorthand: {shorthand!r}")
    managers, workers = int(match.group(1)), int(match.group(2))
    if not skill_pool:
        raise ScenarioError("team shorthand needs a non-empty skill pool")
    team: list[AgentProfile] = []
    for m in range(managers):
        team.append(AgentProfile(
            agent_id=f"M{m + 1}",
            name=f"Manager {m + 1}",
            role=Role.MANAGER,
            skills=frozenset(MANAGER_SKILLS),
        ))
    pool = [s.lower() for s in skill_pool]
    for w in range(workers):
        start = (w * WORKER_SKILL_STRIDE) % len(pool)
        skills = frozenset(
            pool[(start + j) % len(pool)] for j in range(WORKER_SKILLS_PER_AGENT)
        )
        team.append(AgentProfile(
            agent_id=f"W{w + 1}",
            name=f"Worker {w + 1}",
            role=Role.WORKER,
            skills=skills,
        ))
    return team


def parse_scenario_text(text: str, name_hint: str = "scenario") -> Scenario:
    try:
        return _parse_scenario_text(text, name_hint)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        # A field of the wrong type, such as `hours: abc` or `tasks: 5`.
        raise ScenarioError(f"malformed scenario field: {exc}") from exc


def _parse_scenario_text(text: str, name_hint: str) -> Scenario:
    try:
        data = yaml.load(text, Loader=_LOADER)
    except (yaml.YAMLError, UnicodeEncodeError) as exc:
        # libyaml encodes the text to UTF-8 first, and a lone surrogate fails
        # there; the pure-Python reader rejects it as a YAMLError.
        raise ScenarioError(f"malformed scenario syntax: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("malformed scenario: expected a mapping at top level")

    if "tasks" not in data:
        raise ScenarioError("missing field: tasks")
    if "team" not in data:
        raise ScenarioError("missing field: team")

    tasks: list[TaskSpec] = []
    for i, raw in enumerate(data["tasks"]):
        if not isinstance(raw, dict):
            raise ScenarioError(f"malformed task entry {i}")
        for required in ("description", "hours"):
            if required not in raw:
                raise ScenarioError(f"missing field: tasks[{i}].{required}")
        tasks.append(TaskSpec(
            description=str(raw["description"]),
            estimated_hours=float(raw["hours"]),
            required_skills=frozenset(
                str(s).lower() for s in raw.get("skills", [])
            ),
        ))

    declared_pool = [str(s).lower() for s in data.get("skill_pool", [])]
    task_skills = sorted({s for t in tasks for s in t.required_skills})
    pool = declared_pool or task_skills
    if declared_pool:
        for i, task in enumerate(tasks):
            unknown = task.required_skills - set(declared_pool)
            if unknown:
                raise ScenarioError(
                    f"unknown skill reference in tasks[{i}]: {sorted(unknown)}"
                )

    team_raw = data["team"]
    team_label = ""
    if isinstance(team_raw, str):
        team_label = team_raw.strip()
        team = expand_team_shorthand(team_label, pool)
    elif isinstance(team_raw, list):
        team = []
        for i, raw in enumerate(team_raw):
            if not isinstance(raw, dict):
                raise ScenarioError(f"malformed team entry {i}")
            for required in ("id", "role", "skills"):
                if required not in raw:
                    raise ScenarioError(f"missing field: team[{i}].{required}")
            role_text = str(raw["role"]).lower()
            if role_text not in (Role.MANAGER.value, Role.WORKER.value):
                raise ScenarioError(f"malformed role in team[{i}]: {raw['role']!r}")
            team.append(AgentProfile(
                agent_id=str(raw["id"]),
                name=str(raw.get("name", raw["id"])),
                role=Role(role_text),
                skills=frozenset(str(s).lower() for s in raw["skills"]),
            ))
        team_label = str(data.get("team_label", "")) or _derive_label(team)
    else:
        raise ScenarioError("malformed team block")

    scenario = Scenario(
        name=str(data.get("name", name_hint)),
        team=team,
        tasks=tasks,
        policy_name=str(data.get("policy", "no_comm")),
        evaluator_name=str(data.get("evaluator", "rule_based")),
        seed=int(data.get("seed", 0)),
        skill_pool=tuple(pool),
        team_label=team_label,
    )
    return validate_scenario(scenario)


def parse_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"unreadable scenario file: {exc}") from exc
    return parse_scenario_text(text, name_hint=path.stem)


def _derive_label(team: list[AgentProfile]) -> str:
    managers = sum(1 for a in team if a.role is Role.MANAGER)
    workers = len(team) - managers
    return f"{managers}M+{workers}W"


def emit_scenario(scenario: Scenario) -> str:
    """Serialize a scenario with an explicit team so the file is self-contained."""
    data = {
        "name": scenario.name,
        "seed": scenario.seed,
        "policy": scenario.policy_name,
        "evaluator": scenario.evaluator_name,
        "skill_pool": list(scenario.skill_pool),
        "team_label": scenario.team_label,
        "team": [
            {
                "id": agent.agent_id,
                "name": agent.name,
                "role": agent.role.value,
                "skills": sorted(agent.skills),
            }
            for agent in scenario.team
        ],
        "tasks": [
            {
                "description": task.description,
                "hours": task.estimated_hours,
                "skills": sorted(task.required_skills),
            }
            for task in scenario.tasks
        ],
    }
    return yaml.dump(data, Dumper=_DUMPER, sort_keys=False, allow_unicode=True)
