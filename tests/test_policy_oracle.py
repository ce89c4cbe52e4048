"""The table-reading decides choose what the view-based decides chose.

`policy_oracle` keeps `HeuristicPolicy.decide` and `FixedStepsPolicy.decide`
as they were while they read task views through context properties. Every
run below checks, at every agent-step a deterministic decide runs, that the
decide returns the oracle's intention on the same context. The decide runs
first: an inbox list it should have filtered, or a stale set it should have
rebuilt, is still as `World` left it when the decide reads it. The oracle's
reads after it only filter and rebuild again, so the run's trace is the
unchecked run's.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings

import policy_oracle
from teamsim.comms import MeetingStatus
from teamsim.engine import Simulation
from teamsim.model import Role
from teamsim.policy import FixedStepsPolicy, HeuristicPolicy

from conftest import ChainPlanner, chain_scenario, shipped_scenario, watch_task_views
from test_step_cost import roots_scenario
from test_world_indexes import build_simulation, specs

SHIPPED = ("simple", "medium", "complex", "multi_task")


@contextlib.contextmanager
def checked_against_the_oracle():
    """Patch both deterministic decides to assert the oracle's intention at
    every call; yields the count of checked decides by policy name."""
    checked: Counter = Counter()
    heuristic, fixed = HeuristicPolicy.decide, FixedStepsPolicy.decide

    def heuristic_checked(self, context):
        intention = heuristic(self, context)
        assert intention == policy_oracle.heuristic_decide(context), \
            (context.step, context.agent.agent_id)
        checked[HeuristicPolicy.name] += 1
        return intention

    def fixed_checked(self, context):
        intention = fixed(self, context)
        assert intention == policy_oracle.fixed_steps_decide(context, self.interval), \
            (context.step, context.agent.agent_id)
        checked[FixedStepsPolicy.name] += 1
        return intention

    with mock.patch.object(HeuristicPolicy, "decide", heuristic_checked), \
            mock.patch.object(FixedStepsPolicy, "decide", fixed_checked):
        yield checked


def run_checked(make_simulation) -> tuple[Simulation, Counter]:
    """Run the simulation `make_simulation()` builds with every decide
    checked, and require the trace of the same run unchecked."""
    with checked_against_the_oracle() as checked:
        simulation = make_simulation()
        simulation.run()
    assert simulation.world.trace.events == make_simulation().run().trace.events
    return simulation, checked


@pytest.mark.parametrize("name", SHIPPED)
@pytest.mark.parametrize("policy", ["c2c_heuristic", "fixed_steps"])
def test_decides_match_the_oracle_on_the_shipped_runs(name, policy):
    _, checked = run_checked(lambda: Simulation(shipped_scenario(name, policy)))
    assert checked[policy] > 0


def test_decides_match_the_oracle_on_the_sixteen_root_run():
    _, checked = run_checked(lambda: Simulation(roots_scenario(16), max_steps=2000))
    assert checked["c2c_heuristic"] > 6000


def test_decides_match_the_oracle_through_a_meeting():
    scenario = dataclasses.replace(chain_scenario(), policy_name="c2c_heuristic")
    simulation, checked = run_checked(
        lambda: Simulation(scenario, planner=ChainPlanner()))
    assert checked["c2c_heuristic"] > 0
    assert any(m.status is MeetingStatus.HELD
               for m in simulation.world.meetings.values())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(specs)
def test_decides_match_the_oracle_on_generated_runs(spec):
    _, checked = run_checked(lambda: build_simulation(spec))
    assert sum(checked.values()) > 0


def fixed_steps_needs_views(context) -> bool:
    """Whether a `fixed_steps` decide may read `context.assigned`: a worker's
    report step, or the step after its report."""
    interval = FixedStepsPolicy().interval
    if context.agent.role is not Role.WORKER:
        return False
    last = context[4].last_actions.get(context.agent.agent_id)
    follow_up = (last is not None and last.message_type == "PROGRESS_UPDATE"
                 and last.step > 0 and last.step % interval == 0)
    return follow_up or (context.step > 0 and context.step % interval == 0)


@pytest.mark.parametrize("name", SHIPPED)
@pytest.mark.parametrize("policy", ["no_comm", "c2c_heuristic", "fixed_steps"])
def test_deterministic_decides_build_no_task_view(monkeypatch, name, policy):
    """No decide of `no_comm` or `c2c_heuristic` builds a task view; a
    `fixed_steps` decide builds them, through `World.task_view`, only on a
    report or follow-up step. Every builder is watched, the engine's own
    included, though a decide reaches only `World.task_view`."""
    built: list[tuple[int, str]] = []
    deciding: list = []

    def counting():
        if deciding:
            built.append((deciding[-1].step, deciding[-1].agent.agent_id))

    watch_task_views(monkeypatch, counting)
    simulation = Simulation(shipped_scenario(name, policy))
    decide = simulation.policy.decide
    allowed: set[tuple[int, str]] = set()

    def watched(context):
        if policy == "fixed_steps" and fixed_steps_needs_views(context):
            allowed.add((context.step, context.agent.agent_id))
        deciding.append(context)
        try:
            return decide(context)
        finally:
            deciding.pop()

    simulation.policy.decide = watched
    simulation.run()
    assert set(built) <= allowed
    if policy != "fixed_steps":
        assert built == []
