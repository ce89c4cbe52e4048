"""Decomposition planners and assignment balancing."""

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from teamsim.adapter import ChatCompletionAdapter
from teamsim.engine import Simulation
from teamsim.llm import LlmPlanner
from teamsim.model import (AgentProfile, Role, Scenario, TaskSpec, order_key,
                           skill_match_score, validate_scenario)
from teamsim.planner import (DecompositionPlan, EvenPlanner, PlannerError, assign,
                             validate_plan)
from teamsim.taskgraph import SubtaskSpec, TaskGraph

from conftest import MEDIUM_TASK, SIMPLE_TASK, make_scenario, make_team
from planner_oracle import SuggestingEvenPlanner


def scenario_for(task, label="1M+4W"):
    return make_scenario(task, team_label=label)


def root_node(scenario):
    graph = TaskGraph()
    task = scenario.tasks[0]
    node = graph.add_root("T1", task.description, task.estimated_hours,
                          task.required_skills)
    return graph, node


class TestEvenPlanner:
    def test_simple_task_even_split(self):
        scenario = scenario_for(SIMPLE_TASK)
        _, node = root_node(scenario)
        plan = EvenPlanner().decompose(node, scenario)
        assert len(plan.subtasks) == 4
        for subtask in plan.subtasks:
            assert subtask.estimated_hours == pytest.approx(2.0)
            assert subtask.dependencies == ()

    @pytest.mark.parametrize("hours,label,expected", [
        (40.0, "1M+4W", 10.0),
        (24.0, "1M+8W", 3.0),
    ])
    def test_split_sizes(self, hours, label, expected):
        task = TaskSpec("build it", hours, MEDIUM_TASK.required_skills)
        scenario = scenario_for(task, label)
        _, node = root_node(scenario)
        plan = EvenPlanner().decompose(node, scenario)
        assert len(plan.subtasks) == len(scenario.workers)
        assert all(s.estimated_hours == pytest.approx(expected) for s in plan.subtasks)

    def test_all_task_skills_covered(self):
        scenario = scenario_for(SIMPLE_TASK)
        _, node = root_node(scenario)
        plan = EvenPlanner().decompose(node, scenario)
        covered = frozenset().union(*(s.required_skills for s in plan.subtasks))
        assert covered == node.required_skills

    def test_more_workers_than_skills_cycles_singletons(self):
        scenario = scenario_for(MEDIUM_TASK, "1M+16W")
        _, node = root_node(scenario)
        plan = EvenPlanner().decompose(node, scenario)
        assert len(plan.subtasks) == 16
        assert all(s.required_skills for s in plan.subtasks)

    def test_deterministic(self):
        scenario = scenario_for(SIMPLE_TASK)
        _, node = root_node(scenario)
        assert EvenPlanner().decompose(node, scenario) == \
            EvenPlanner().decompose(node, scenario)

    def test_empty_team_rejected(self):
        team = [AgentProfile("M1", "M", Role.MANAGER, frozenset({"planning"}))]
        scenario = Scenario(name="x", team=team, tasks=[SIMPLE_TASK])
        graph = TaskGraph()
        node = graph.add_root("T1", "d", 8.0, frozenset({"backend"}))
        with pytest.raises(PlannerError, match="empty team"):
            EvenPlanner().decompose(node, scenario)


class TestValidatePlan:
    def plan(self, hours_each=2.0, deps=(), assignee="W1", count=4):
        subtasks = tuple(
            SubtaskSpec(f"part {i}", hours_each, frozenset({"backend"}),
                        assignee, tuple(deps))
            for i in range(count)
        )
        return DecompositionPlan(subtasks=subtasks)

    def test_accepts_reasonable_plan(self):
        validate_plan(self.plan(), 8.0, make_team(2))

    def test_hours_out_of_tolerance(self):
        with pytest.raises(PlannerError, match="outside tolerance"):
            validate_plan(self.plan(hours_each=4.0), 8.0, make_team(2))

    def test_bad_dependency_index(self):
        with pytest.raises(PlannerError, match="bad dependency"):
            validate_plan(self.plan(deps=(9,)), 8.0, make_team(2))

    @pytest.mark.parametrize("deps", [[(1,), (0,)], [(2,), (0,), (1,)],
                                      [(), (2,), (3,), (1,)]],
                             ids=["two", "three", "three-behind-a-root"])
    def test_dependency_cycle(self, deps):
        subtasks = tuple(SubtaskSpec(f"part {i}", 8.0 / len(deps), frozenset({"backend"}),
                                     None, d) for i, d in enumerate(deps))
        with pytest.raises(PlannerError, match="dependency cycle"):
            validate_plan(DecompositionPlan(subtasks), 8.0, make_team(2))

    def test_dependency_chain_accepted(self):
        subtasks = tuple(SubtaskSpec(f"part {i}", 2.0, frozenset({"backend"}), None, d)
                         for i, d in enumerate([(), (0,), (0, 1), (2,)]))
        validate_plan(DecompositionPlan(subtasks), 8.0, make_team(2))

    def test_unknown_assignee(self):
        with pytest.raises(PlannerError, match="unknown assignee"):
            validate_plan(self.plan(assignee="W9"), 8.0, make_team(2))


def stub_adapter(replies):
    """Adapter whose transport returns canned chat-completion bodies."""
    queue = list(replies)

    def transport(url, body, headers):
        if not queue:
            raise OSError("no more replies")
        reply = queue.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return json.dumps(
            {"choices": [{"message": {"content": reply}}]}
        ).encode("utf-8")

    return ChatCompletionAdapter(endpoint="http://localhost:0", model="stub",
                                 max_retries=0, transport=transport)


def plan_json(count, hours_each, assignee="Worker 1"):
    return json.dumps({
        "subtasks": [
            {
                "description": f"part {i}",
                "estimated_hours": hours_each,
                "required_skills": ["backend"],
                "suggested_assignee": assignee,
                "dependencies": [],
            }
            for i in range(count)
        ],
        "decomposition_rationale": "split by area",
    })


class TestLlmPlanner:
    def test_valid_plan_accepted(self):
        scenario = scenario_for(SIMPLE_TASK)
        _, node = root_node(scenario)
        planner = LlmPlanner(stub_adapter([plan_json(4, 2.0)]))
        plan = planner.decompose(node, scenario)
        assert len(plan.subtasks) == 4
        assert plan.warnings == ()
        # assignee name mapped back to the agent id
        assert plan.subtasks[0].suggested_assignee == "W1"

    def test_invalid_then_valid_uses_retry(self):
        scenario = scenario_for(SIMPLE_TASK)
        _, node = root_node(scenario)
        planner = LlmPlanner(stub_adapter([plan_json(4, 9.0), plan_json(4, 2.0)]))
        plan = planner.decompose(node, scenario)
        assert len(plan.subtasks) == 4
        assert len(plan.warnings) == 1

    def test_two_failures_fall_back_to_even(self):
        scenario = scenario_for(SIMPLE_TASK)
        _, node = root_node(scenario)
        planner = LlmPlanner(stub_adapter(["not json at all", "still not json"]))
        plan = planner.decompose(node, scenario)
        assert len(plan.subtasks) == 4
        assert any("falling back" in w for w in plan.warnings)
        assert all(s.estimated_hours == pytest.approx(2.0) for s in plan.subtasks)

    def test_cyclic_plan_is_retried_then_falls_back_in_a_run(self):
        # Such a plan passed validation, and `add_subtasks` then raised
        # `CycleError` out of `Simulation.run`.
        cyclic = json.dumps({"subtasks": [
            {"description": "a", "estimated_hours": 4.0, "required_skills": ["backend"],
             "dependencies": [1]},
            {"description": "b", "estimated_hours": 4.0, "required_skills": ["backend"],
             "dependencies": [0]},
        ]})
        scenario = scenario_for(SIMPLE_TASK)
        planner = LlmPlanner(stub_adapter([cyclic, cyclic]))
        result = Simulation(scenario, planner=planner).run()
        assert result.completed
        assert [(e["source"], e["detail"]) for e in result.trace.events
                if e["kind"] == "warning"] == [
            ("planner", "decomposition attempt 1 failed: dependency cycle"),
            ("planner", "decomposition attempt 2 failed: dependency cycle"),
            ("planner", "falling back to even decomposition")]
        subtasks = [n for n in result.world.graph.nodes.values() if n.parent_id]
        assert len(subtasks) == 4 and not any(n.dependencies for n in subtasks)

    def test_subtask_that_is_not_an_object_is_retried_then_falls_back(self):
        # Such a subtask raised `AttributeError` out of `decompose`.
        scenario = scenario_for(SIMPLE_TASK)
        _, node = root_node(scenario)
        bad = json.dumps({"subtasks": ["x"]})
        plan = LlmPlanner(stub_adapter([bad, bad])).decompose(node, scenario)
        assert plan.warnings == (
            "decomposition attempt 1 failed: subtask is not a JSON object",
            "decomposition attempt 2 failed: subtask is not a JSON object",
            "falling back to even decomposition")
        assert len(plan.subtasks) == 4

    def test_transport_failure_falls_back(self):
        scenario = scenario_for(SIMPLE_TASK)
        _, node = root_node(scenario)
        planner = LlmPlanner(stub_adapter([OSError("down"), OSError("down")]))
        plan = planner.decompose(node, scenario)
        assert all(s.dependencies == () for s in plan.subtasks)
        assert any("falling back" in w for w in plan.warnings)


class TestAssign:
    def materialize(self, scenario, plan):
        graph = TaskGraph()
        task = scenario.tasks[0]
        graph.add_root("T1", task.description, task.estimated_hours,
                       task.required_skills)
        nodes = graph.add_subtasks("T1", list(plan.subtasks))
        return graph, [n.task_id for n in nodes]

    def test_distinct_skills_give_bijection(self):
        skills = [frozenset({"a"}), frozenset({"b"}), frozenset({"c"}),
                  frozenset({"d"})]
        team = make_team(4, worker_skills=skills)
        scenario = validate_scenario(Scenario(
            name="x", team=team,
            tasks=[TaskSpec("t", 8.0, frozenset("abcd"))]))
        graph = TaskGraph()
        graph.add_root("T1", "t", 8.0, frozenset("abcd"))
        specs = [SubtaskSpec(f"p{i}", 2.0, frozenset({tag}), None, ())
                 for i, tag in enumerate("abcd")]
        nodes = graph.add_subtasks("T1", specs)
        result = assign(graph, [n.task_id for n in nodes], scenario.team)
        loads = sorted(len(v) for v in result.values())
        assert loads == [1, 1, 1, 1]
        for worker, task_ids in result.items():
            for task_id in task_ids:
                node = graph.node(task_id)
                worker_profile = next(a for a in scenario.team
                                      if a.agent_id == worker)
                assert node.required_skills <= worker_profile.skills

    def test_tie_breaks_to_lower_agent_id(self):
        team = make_team(2, worker_skills=[frozenset({"x"}), frozenset({"x"})])
        graph = TaskGraph()
        graph.add_root("T1", "t", 2.0, frozenset({"x"}))
        nodes = graph.add_subtasks("T1", [SubtaskSpec("p", 2.0,
                                                      frozenset({"x"}), None, ())])
        result = assign(graph, [n.task_id for n in nodes], team)
        assert result["W1"] == ["T1.1"]
        assert result["W2"] == []

    def test_eight_subtasks_over_four_workers_spread_minimally(self):
        scenario = scenario_for(MEDIUM_TASK)
        specs = [SubtaskSpec(f"p{i}", 3.0,
                             frozenset({sorted(MEDIUM_TASK.required_skills)[i % 6]}),
                             None, ())
                 for i in range(8)]
        graph = TaskGraph()
        graph.add_root("T1", "t", 24.0, MEDIUM_TASK.required_skills)
        nodes = graph.add_subtasks("T1", specs)
        result = assign(graph, [n.task_id for n in nodes], scenario.team)
        loads = [len(v) for v in result.values()]
        assert sum(loads) == 8
        # oracle: minimal spread means no rebalancing single move can improve
        assert max(loads) - min(loads) <= 1
        assert max(loads) == math.ceil(8 / 4)

    def test_no_overlap_assigns_with_warning_free_fallback(self):
        team = make_team(2, worker_skills=[frozenset({"q"}), frozenset({"q"})])
        graph = TaskGraph()
        graph.add_root("T1", "t", 2.0, frozenset({"zz"}))
        nodes = graph.add_subtasks(
            "T1", [SubtaskSpec("p", 2.0, frozenset({"zz"}), None, ())])
        result = assign(graph, [n.task_id for n in nodes], team)
        assert sorted(len(v) for v in result.values()) == [0, 1]

    def test_every_subtask_assigned_exactly_once(self):
        scenario = scenario_for(MEDIUM_TASK, "1M+8W")
        _, node = root_node(scenario)
        plan = EvenPlanner().decompose(node, scenario)
        graph, ids = self.materialize(scenario, plan)
        result = assign(graph, ids, scenario.team)
        flat = [t for tasks in result.values() for t in tasks]
        assert sorted(flat) == sorted(ids)


def oracle_assign(graph, subtask_ids, team):
    """The linear-scan `assign`: a min() over every open worker per fallback."""
    workers = sorted((a for a in team if not a.is_manager),
                     key=lambda a: order_key(a.agent_id))
    cap = math.ceil(len(subtask_ids) / len(workers))
    rank = {a.agent_id: i for i, a in enumerate(workers)}
    load = {a.agent_id: 0 for a in workers}
    out = {a.agent_id: [] for a in workers}
    for task_id in sorted(subtask_ids, key=order_key):
        node = graph.node(task_id)
        score = {a.agent_id: skill_match_score(a, node.required_skills)
                 for a in workers}
        suggested = node.assignee
        if suggested in load and load[suggested] < cap and score[suggested] > 0:
            chosen = suggested
        else:
            chosen = min((a for a in load if load[a] < cap),
                         key=lambda a: (-score[a], load[a], rank[a]))
        node.assignee = chosen
        load[chosen] += 1
        out[chosen].append(task_id)
    return out


ASSIGN_POOL = ("a", "b", "c", "d", "e")


@st.composite
def assign_inputs(draw):
    """A shuffled 1M+1W..1M+40W team and a subtask list, up to 3x its width."""
    skill_set = st.frozensets(st.sampled_from(ASSIGN_POOL), max_size=3)
    workers = draw(st.integers(1, 40))
    team = draw(st.permutations(
        make_team(workers, worker_skills=[draw(skill_set) for _ in range(workers)])))
    # A few distinct required-skill sets, the empty one and unheld ones included.
    required = draw(st.lists(skill_set, min_size=1, max_size=4))
    suggestion = st.one_of(
        st.none(), st.just("W99"), st.just("M1"),
        st.integers(1, workers).map(lambda i: f"W{i}"))
    specs = [SubtaskSpec(f"p{i}", 1.0, draw(st.sampled_from(required)), draw(suggestion))
             for i in range(draw(st.integers(1, 3 * workers)))]
    return team, specs


def _graph(specs):
    graph = TaskGraph()
    graph.add_root("T1", "t", float(len(specs)), frozenset(ASSIGN_POOL))
    return graph, [n.task_id for n in graph.add_subtasks("T1", specs)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(assign_inputs())
def test_assign_matches_linear_scan_oracle(inputs):
    team, specs = inputs
    graph, ids = _graph(specs)
    oracle_graph, _ = _graph(specs)
    result = assign(graph, ids, team)
    expected = oracle_assign(oracle_graph, ids, team)
    assert list(result.items()) == list(expected.items())
    assert ([graph.node(i).assignee for i in ids]
            == [oracle_graph.node(i).assignee for i in ids])


# Skills a drawn worker may hold, and two that no worker holds.
HELD_SKILLS = ["s1", "s2", "s3", "s4", "s5", "s6"]
UNHELD_SKILLS = ["x1", "x2"]


def _even_scenario(worker_skills, roots, policy="c2c_heuristic", order=None):
    """A validated scenario of one manager and workers W1.. holding
    `worker_skills`, listed in `order` (by default in reverse), with `roots`
    as (hours, required skills) pairs."""
    workers = [AgentProfile(f"W{i + 1}", f"Worker {i + 1}", Role.WORKER, skills)
               for i, skills in enumerate(worker_skills)]
    if order is None:
        order = reversed(range(len(workers)))
    team = [AgentProfile("M1", "Manager 1", Role.MANAGER,
                         frozenset({"planning", "coordination"}))]
    team += [workers[i] for i in order]
    tasks = [TaskSpec(f"root {i + 1}", hours, frozenset(skills))
             for i, (hours, skills) in enumerate(roots)]
    return validate_scenario(Scenario(name="even", team=team, tasks=tasks,
                                      policy_name=policy))


@st.composite
def even_plan_scenarios(draw):
    """1 to 64 workers whose skills overlap or are disjoint, and 1 to 8 roots
    whose skills some, one, or no worker holds."""
    held = st.frozensets(st.sampled_from(HELD_SKILLS), min_size=1, max_size=3)
    worker_skills = [draw(held) for _ in range(draw(st.integers(1, 64)))]
    required = st.frozensets(st.sampled_from(HELD_SKILLS + UNHELD_SKILLS), max_size=6)
    roots = [(draw(st.sampled_from([2.0, 7.5, 24.0])), draw(required))
             for _ in range(draw(st.integers(1, 8)))]
    return _even_scenario(worker_skills, roots,
                          draw(st.sampled_from(["no_comm", "c2c_heuristic"])),
                          draw(st.permutations(range(len(worker_skills)))))


def _planned(planner, scenario, index):
    """Root `index` of `scenario` decomposed by `planner` and assigned: the
    plan without suggestions, `assign`'s result and each subtask's holder."""
    graph = TaskGraph()
    task = scenario.tasks[index]
    node = graph.add_root(f"T{index + 1}", task.description, task.estimated_hours,
                          task.required_skills)
    plan = planner.decompose(node, scenario)
    ids = [n.task_id for n in graph.add_subtasks(node.task_id, list(plan.subtasks))]
    result = assign(graph, ids, scenario.team)
    return ([spec._replace(suggested_assignee=None) for spec in plan.subtasks],
            list(result.items()), [(i, graph.node(i).assignee) for i in ids])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(even_plan_scenarios())
# Two subtasks share a bundle whose best worker (W1) ties with W2: a cap above
# one would let the suggestion stack both on W1.
@example(_even_scenario([frozenset({"s1"}), frozenset({"s1"}), frozenset({"s2"})],
                        [(6.0, {"s1"})]))
# Bundles that differ per subtask, one held by no worker, over shuffled ids.
@example(_even_scenario([frozenset({"s1", "s2"}), frozenset({"s3"}),
                         frozenset({"s2", "s4"}), frozenset({"s5"})],
                        [(8.0, {"s1", "s2", "s3", "x1"}), (4.0, set())]))
def test_even_plan_is_placed_as_the_suggesting_plan_was(scenario):
    """The even plan no longer suggests assignees; `assign` must place every
    subtask where the suggestion put it, and a run must write the same trace."""
    for index in range(len(scenario.tasks)):
        assert (_planned(EvenPlanner(), scenario, index)
                == _planned(SuggestingEvenPlanner(), scenario, index))
    traces = [Simulation(scenario, planner=planner, max_steps=4).run().trace.to_jsonl()
              for planner in (EvenPlanner(), SuggestingEvenPlanner())]
    assert traces[0] == traces[1]
