"""Shared scenario builders and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import random
import socket
from pathlib import Path

import pytest

from teamsim import engine, trace
from teamsim.comms import Message
from teamsim.config import expand_team_shorthand, parse_scenario
from teamsim.model import (AgentProfile, Role, Scenario, TaskSpec, order_key,
                           validate_scenario)
from teamsim.planner import DecompositionPlan
from teamsim.policy import TaskAssignmentView
from teamsim.taskgraph import NoSubtasksError, SubtaskSpec, TaskGraph

SKILL_POOL = ["backend", "api", "authentication", "oauth", "testing", "documentation"]

SIMPLE_TASK = TaskSpec(
    description=(
        "Fix five independent bugs across modules: login validation, data "
        "parsing, UI rendering glitches, API timeout handling, and a database "
        "connection leak. No cross-dependencies."
    ),
    estimated_hours=8.0,
    required_skills=frozenset({"backend", "frontend", "database", "api", "testing"}),
)

MEDIUM_TASK = TaskSpec(
    description=(
        "Integrate an external API with authentication, including token "
        "management and error and latency handling; deliver minimal usage docs."
    ),
    estimated_hours=24.0,
    required_skills=frozenset(
        {"backend", "api", "authentication", "oauth", "testing", "documentation"}
    ),
)

COMPLEX_TASK = TaskSpec(
    description=(
        "Build a user authentication service covering registration, login, "
        "password reset, OAuth 2.0 sign-in, JWT issuance and refresh, session "
        "management, and security hardening."
    ),
    estimated_hours=40.0,
    required_skills=frozenset(
        {"backend", "security", "database", "oauth", "authentication",
         "frontend", "testing"}
    ),
)


def make_scenario(task: TaskSpec, team_label: str = "1M+4W",
                  policy: str = "no_comm", name: str = "scenario") -> Scenario:
    pool = sorted(task.required_skills)
    team = expand_team_shorthand(team_label, pool)
    return validate_scenario(Scenario(
        name=name,
        team=team,
        tasks=[task],
        policy_name=policy,
        evaluator_name="rule_based",
        skill_pool=tuple(pool),
        team_label=team_label,
    ))


def eight_roots_scenario() -> Scenario:
    """Eight shipped-size roots on a 1M+16W team under the heuristic policy."""
    team = expand_team_shorthand("1M+16W", SKILL_POOL)
    return validate_scenario(Scenario(
        name="eight_roots", team=team,
        tasks=[MEDIUM_TASK, SIMPLE_TASK, COMPLEX_TASK, MEDIUM_TASK] * 2,
        policy_name="c2c_heuristic", skill_pool=tuple(SKILL_POOL),
        team_label="1M+16W",
    ))


def make_team(workers: int = 2, worker_skills: list[frozenset[str]] | None = None
              ) -> list[AgentProfile]:
    team = [AgentProfile("M1", "Manager 1", Role.MANAGER,
                         frozenset({"planning", "coordination"}))]
    for i in range(workers):
        skills = (worker_skills[i] if worker_skills
                  else frozenset({"backend", "testing"}))
        team.append(AgentProfile(f"W{i + 1}", f"Worker {i + 1}", Role.WORKER, skills))
    return team


def chain_scenario() -> Scenario:
    """Three workers; W1's subtask blocks W2 and W3 under ChainPlanner."""
    team = make_team(3, worker_skills=[frozenset({"backend"}),
                                       frozenset({"api"}),
                                       frozenset({"testing"})])
    return validate_scenario(Scenario(
        name="deps", team=team,
        tasks=[TaskSpec("gateway", 3.0,
                        frozenset({"backend", "api", "testing"}))],
        skill_pool=("backend", "api", "testing"),
    ))


class ChainPlanner:
    """One base subtask that the two other subtasks depend on."""

    name = "chain"

    def decompose(self, node, scenario):
        return DecompositionPlan(subtasks=(
            SubtaskSpec("base", 1.0, frozenset({"backend"}), "W1", ()),
            SubtaskSpec("api layer", 1.0, frozenset({"api"}), "W2", (0,)),
            SubtaskSpec("tests", 1.0, frozenset({"testing"}), "W3", (0,)),
        ))


class RandomDagPlanner:
    """Random sibling DAGs: dependencies only point at earlier siblings."""

    name = "random_dag"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def decompose(self, node, scenario):
        rng = random.Random(f"{self.seed}:{node.task_id}")
        count = rng.randint(2, 6)
        skills = sorted(node.required_skills) or ["backend"]
        subtasks = []
        for i in range(count):
            deps = tuple(j for j in range(i) if rng.random() < 0.3)
            subtasks.append(SubtaskSpec(
                description=f"part {i}",
                estimated_hours=node.estimated_hours / count,
                required_skills=frozenset({rng.choice(skills)}),
                suggested_assignee=None,
                dependencies=deps,
            ))
        return DecompositionPlan(subtasks=tuple(subtasks))


def random_dag_run(seed: int) -> tuple[Scenario, RandomDagPlanner]:
    """A medium and a simple root on a 1M+5W team, planned as random DAGs
    whose dependencies block collaborators."""
    scenario = make_scenario(MEDIUM_TASK, "1M+5W", "c2c_heuristic")
    scenario = dataclasses.replace(scenario, tasks=[MEDIUM_TASK, SIMPLE_TASK])
    return scenario, RandomDagPlanner(seed)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# The 12 shipped runs: every shipped scenario under every deterministic policy.
SHIPPED_RUNS = [(name, policy) for name in ("simple", "medium", "complex", "multi_task")
                for policy in ("no_comm", "fixed_steps", "c2c_heuristic")]


def shipped_scenario(name: str, policy: str) -> Scenario:
    return dataclasses.replace(parse_scenario(SCENARIOS / f"{name}.yaml"),
                               policy_name=policy)


def replay_runs() -> list[tuple[Scenario, object]]:
    """(scenario, planner) of the 12 shipped runs and the meeting run, whose
    `ChainPlanner` base task blocks two collaborators."""
    runs: list[tuple[Scenario, object]] = [
        (shipped_scenario(name, policy), None) for name, policy in SHIPPED_RUNS]
    runs.append((dataclasses.replace(chain_scenario(), policy_name="c2c_heuristic"),
                 ChainPlanner()))
    return runs


def log_deliveries(world) -> dict[str, list[Message]]:
    """Wrap `world.deliver` to record, per agent, every message delivered to
    it, in delivery order."""
    delivered: dict[str, list[Message]] = {a: [] for a in world.agent_order}
    deliver = world.deliver

    def logging(message, recipient, t):
        delivered[recipient].append(message)
        deliver(message, recipient, t)

    world.deliver = logging
    return delivered


def watch_task_views(monkeypatch, on_build) -> None:
    """Call `on_build()` at each task view built. `teamsim.engine` builds
    every view: `World.task_view`, which a context's `assigned` reads, and a
    message's start, which builds the view of the task it is about in its
    own frame. Both build it by position through the module's `_new_tuple`,
    so that is the one place watched."""
    new_tuple = engine._new_tuple

    def watched(cls, fields):
        if cls is TaskAssignmentView:
            on_build()
        return new_tuple(cls, fields)

    monkeypatch.setattr(engine, "_new_tuple", watched)


def replay_af_updates(records) -> dict[tuple[str, str], float]:
    """Every pair's alignment rebuilt from a run's `af_update` events alone:
    0.30 on `init`, then clamp(old + delta). Each event's `old` must be the
    previous event's `new` for its pair, and its `new` the replayed value."""
    values: dict[tuple[str, str], float] = {}
    for record in records:
        if record["kind"] != "af_update":
            continue
        key = (record["agent"], record["task"])
        if record["cause"] == "init":
            assert key not in values and record["old"] is None, record
            values[key] = 0.30
        else:
            assert record["old"] == values[key], record
            values[key] = min(1.00, max(0.01, record["old"] + record["delta"]))
        assert record["new"] == values[key], record
    return values


def ready_tasks(graph: TaskGraph) -> list[str]:
    """Non-done leaves of `graph` whose dependencies are all done, in id order."""
    return sorted((task_id for task_id, node in graph.nodes.items()
                   if not node.done and not graph.children(task_id)
                   and all(graph.nodes[d].done for d in node.dependencies)),
                  key=order_key)


def node_progress(graph: TaskGraph, task_id: str) -> float:
    """A leaf's completion fraction, or a parent's weighted roll-up."""
    if not graph.children(task_id):
        return graph.node(task_id).progress
    return parent_progress(graph, task_id)


def parent_progress(graph: TaskGraph, parent_id: str) -> float:
    """Weighted mean of subtask completion, weights = effort estimates."""
    kids = graph.children(parent_id)
    if not kids:
        raise NoSubtasksError("no subtasks")
    total = sum(k.estimated_hours for k in kids)
    return sum(k.estimated_hours * node_progress(graph, k.task_id) for k in kids) / total


def refused_port() -> int:
    """A loopback port that nothing listens on, so a connection is refused."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def of_kind(log: trace.TraceLog, kind: str) -> list[dict]:
    """The records of one event kind in a `TraceLog`, in trace order."""
    return [record for record in log.events if record["kind"] == kind]


def add_event(log: trace.TraceLog, step: int, kind: str, fields: dict) -> None:
    """Append the record of one event to `log`, numbered as the engine numbers
    it: `seq` counts the events before it."""
    log.extend([{"step": step, "seq": len(log.events), "kind": kind, **fields}])


def trace_codecs() -> list[tuple[str, trace.Codec]]:
    """Every trace codec this host can run: orjson where it is installed,
    and the standard-library fallback that stands in for it elsewhere."""
    fast = trace.orjson_codec()
    return ([("orjson", fast)] if fast else []) + [("stdlib", trace.STDLIB_CODEC)]


@pytest.fixture
def each_codec(monkeypatch):
    """Iterate `each_codec()` to run a loop body once under each trace codec,
    masking orjson by swapping the codec `teamsim.trace` resolved."""
    def codecs():
        for name, codec in trace_codecs():
            monkeypatch.setattr(trace, "_codec", codec)
            yield name
    return codecs


@pytest.fixture
def simple_scenario() -> Scenario:
    return make_scenario(SIMPLE_TASK, name="simple")


@pytest.fixture
def medium_scenario() -> Scenario:
    return make_scenario(MEDIUM_TASK, name="medium")


@pytest.fixture
def complex_scenario() -> Scenario:
    return make_scenario(COMPLEX_TASK, name="complex")
