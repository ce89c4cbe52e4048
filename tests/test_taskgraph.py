"""Task DAG behavior, including the independent oracles for readiness and
weighted parent progress, queries that only tests ask (kept in conftest)."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from teamsim.taskgraph import (BadDependencyError, CycleError, NoSubtasksError,
                               SubtaskSpec, TaskAlreadyDoneError, TaskGraph,
                               TaskStatus)

from conftest import parent_progress, ready_tasks
from planner_oracle import StagedTaskGraph


def spec(hours=2.0, deps=(), skills=frozenset({"backend"})):
    return SubtaskSpec(description="part", estimated_hours=hours,
                       required_skills=skills, dependencies=tuple(deps))


def build_graph(specs):
    graph = TaskGraph()
    graph.add_root("T1", "root", sum(s.estimated_hours for s in specs),
                   frozenset({"backend"}))
    graph.add_subtasks("T1", specs)
    return graph


class TestAddSubtasks:
    def test_independent_specs_all_ready(self):
        graph = build_graph([spec() for _ in range(5)])
        assert len(ready_tasks(graph)) == 5

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError, match="cycle detected"):
            build_graph([spec(deps=(1,)), spec(deps=(0,))])

    def test_chain_only_head_ready(self):
        graph = build_graph([spec(), spec(deps=(0,)), spec(deps=(1,))])
        assert ready_tasks(graph) == ["T1.1"]

    def test_bad_dependency_index(self):
        with pytest.raises(BadDependencyError, match="bad dependency"):
            build_graph([spec(deps=(9,))])

    def test_self_dependency_rejected(self):
        with pytest.raises(CycleError):
            build_graph([spec(deps=(0,))])

    def test_double_decomposition_rejected(self):
        graph = build_graph([spec()])
        with pytest.raises(ValueError, match="already has subtasks"):
            graph.add_subtasks("T1", [spec()])


@st.composite
def sibling_specs(draw):
    """1 to 12 specs with no edges, with edges to earlier siblings only, or
    with any edges: later siblings, self-edges, repeats and indices out of
    range, so also cycles of any length."""
    count = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["none", "earlier", "any"]))
    specs = []
    for i in range(count):
        if shape == "none":
            deps = []
        elif shape == "earlier":
            deps = draw(st.lists(st.integers(0, i - 1), max_size=3)) if i else []
        else:
            deps = draw(st.lists(st.integers(-2, count + 1), max_size=3))
        specs.append(SubtaskSpec(f"part {i}", draw(st.sampled_from([0.5, 2.0])),
                                 frozenset({"backend"}),
                                 draw(st.sampled_from([None, "W1", "W2"])),
                                 tuple(deps)))
    return specs


def _outcome(graph, specs):
    """What `add_subtasks` under T1 gives: the subtask ids it returns, or the
    type and text of the error it raises."""
    try:
        return [n.task_id for n in graph.add_subtasks("T1", specs)]
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


def _graph_with_root(cls):
    graph = cls()
    graph.add_root("T1", "root", 8.0, frozenset({"backend"}))
    return graph


@settings(max_examples=400, deadline=None, derandomize=True)
@given(sibling_specs())
# A chain, a diamond and a three-cycle.
@example([spec(), spec(deps=(0,)), spec(deps=(1,))])
@example([spec(), spec(deps=(0,)), spec(deps=(0,)), spec(deps=(1, 2))])
@example([spec(deps=(2,)), spec(deps=(0,)), spec(deps=(1,))])
def test_add_subtasks_matches_the_staged_oracle(specs):
    """Built in one pass, the subtasks hold the statuses, dependencies and
    assignees, and the graph the reverse edges and open-child counts, that
    the staged build gave; a bad plan raises the same error, and leaves the
    graph as it was."""
    graph, oracle = _graph_with_root(TaskGraph), _graph_with_root(StagedTaskGraph)
    outcome = _outcome(graph, specs)
    assert outcome == _outcome(oracle, specs)
    if isinstance(outcome, tuple):
        assert list(graph.nodes) == ["T1"]
        assert graph.nodes["T1"].status is TaskStatus.READY
        assert (graph._children, graph._dependents, graph._open_children) == ({}, {}, {})
        return
    assert list(graph.nodes) == list(oracle.nodes)
    for task_id, node in graph.nodes.items():
        expected = oracle.nodes[task_id]
        assert (node.status, node.dependencies, node.assignee, node.parent_id,
                node.description, node.estimated_hours, node.required_skills) == (
            expected.status, expected.dependencies, expected.assignee,
            expected.parent_id, expected.description, expected.estimated_hours,
            expected.required_skills)
    assert graph._dependents == oracle._dependents
    assert graph._open_children == oracle._open_children
    assert graph._children == {k: v for k, v in oracle._children.items() if v}


class TestReadyTasks:
    def test_matches_brute_force_on_random_dags(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(2, 10)
            specs = []
            for i in range(n):
                deps = tuple(j for j in range(i) if rng.random() < 0.4)
                specs.append(spec(hours=rng.uniform(0.5, 4.0), deps=deps))
            graph = build_graph(specs)
            # advance a random subset of tasks to done via recorded work
            for _ in range(rng.randint(0, 2 * n)):
                ready = ready_tasks(graph)
                if not ready:
                    break
                task = rng.choice(ready)
                graph.record_work(task, graph.node(task).estimated_hours)

            # oracle: exhaustive dependency scan over leaves
            expected = set()
            for task_id, node in graph.nodes.items():
                if graph.children(task_id) or node.done:
                    continue
                if all(graph.node(d).done for d in node.dependencies):
                    expected.add(task_id)
            assert set(ready_tasks(graph)) == expected

    def test_done_never_ready_again(self):
        graph = build_graph([spec(), spec()])
        graph.record_work("T1.1", 2.0)
        assert "T1.1" not in ready_tasks(graph)


class TestParentProgress:
    def test_weighted_mean(self):
        graph = build_graph([spec(hours=2.0), spec(hours=6.0)])
        graph.record_work("T1.1", 2.0)   # P = 1.0
        graph.record_work("T1.2", 3.0)   # P = 0.5
        assert parent_progress(graph, "T1") == pytest.approx(0.625, abs=1e-12)

    def test_completion_case(self):
        graph = build_graph([spec(hours=1.0), spec(hours=3.0)])
        graph.record_work("T1.1", 1.0)
        graph.record_work("T1.2", 3.0)
        assert parent_progress(graph, "T1") == pytest.approx(1.0, abs=1e-12)

    def test_matches_scalar_recomputation(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 8)
            specs = [spec(hours=rng.uniform(0.5, 10.0)) for _ in range(n)]
            graph = build_graph(specs)
            fractions = []
            for i, subtask in enumerate(specs):
                worked = rng.uniform(0, subtask.estimated_hours * 1.2)
                task_id = ready_tasks(graph)[0] if False else f"T1.{i + 1}"
                if worked > 0 and not graph.node(task_id).done:
                    graph.record_work(task_id, worked)
                fractions.append(min(1.0, worked / subtask.estimated_hours))
            weights = [s.estimated_hours for s in specs]
            expected = (
                math.fsum(w * p for w, p in zip(weights, fractions))
                / math.fsum(weights)
            )
            assert parent_progress(graph, "T1") == pytest.approx(expected, rel=1e-12)

    def test_no_subtasks_error(self):
        graph = TaskGraph()
        graph.add_root("T1", "root", 2.0, frozenset())
        with pytest.raises(NoSubtasksError, match="no subtasks"):
            parent_progress(graph, "T1")

    def test_invariant_under_weight_scaling(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(2, 6)
            hours = [rng.uniform(0.5, 5.0) for _ in range(n)]
            worked = [rng.uniform(0, h) for h in hours]
            scale = rng.uniform(0.1, 9.0)

            def build(scaled):
                graph = build_graph([spec(hours=h * (scale if scaled else 1.0))
                                     for h in hours])
                for i, w in enumerate(worked):
                    if w > 0:
                        graph.record_work(f"T1.{i + 1}",
                                          w * (scale if scaled else 1.0))
                return parent_progress(graph, "T1")

            assert build(False) == pytest.approx(build(True), rel=1e-9)


class TestRecordWork:
    def test_below_threshold_stays_in_progress(self):
        graph = build_graph([spec(hours=2.0)])
        graph.record_work("T1.1", 1.9)
        graph.record_work("T1.1", 0.075)
        node = graph.node("T1.1")
        assert node.status is TaskStatus.IN_PROGRESS
        assert not node.done

    def test_reaching_threshold_completes(self):
        graph = build_graph([spec(hours=2.0)])
        graph.record_work("T1.1", 1.9)
        assert graph.record_work("T1.1", 0.1) is True
        assert graph.node("T1.1").done

    def test_parent_done_only_when_all_subtasks_done(self):
        graph = build_graph([spec() for _ in range(5)])
        for i in range(1, 5):
            graph.record_work(f"T1.{i}", 2.0)
            assert not graph.node("T1").done
        graph.record_work("T1.5", 2.0)
        assert graph.node("T1").done

    def test_work_on_done_task_rejected(self):
        graph = build_graph([spec(hours=1.0)])
        graph.record_work("T1.1", 1.0)
        with pytest.raises(TaskAlreadyDoneError, match="task already done"):
            graph.record_work("T1.1", 0.1)

    def test_accumulation_monotone_and_overshoot_capped(self):
        graph = build_graph([spec(hours=1.0), spec(hours=1.0)])
        graph.record_work("T1.1", 5.0)
        node = graph.node("T1.1")
        assert node.accumulated_effective_hours == 5.0
        assert node.progress == 1.0
        assert parent_progress(graph, "T1") == pytest.approx(0.5)

    def test_parents_done_exactly_when_last_child_finishes(self):
        rng = random.Random(7)
        for _ in range(60):
            graph = TaskGraph()

            def decompose(parent_id):
                n = rng.randint(1, 8)
                graph.add_subtasks(parent_id, [
                    spec(hours=rng.uniform(0.5, 3.0),
                         deps=tuple(j for j in range(i) if rng.random() < 0.3))
                    for i in range(n)])

            for r in range(rng.randint(1, 3)):
                graph.add_root(f"T{r + 1}", "root", 1.0, frozenset({"backend"}))
                decompose(f"T{r + 1}")
            # Split some subtasks again so roll-ups chain through two levels.
            for task_id in [t for t in graph.nodes if t.count(".") == 1]:
                if rng.random() < 0.3:
                    decompose(task_id)

            while not graph.all_roots_done():
                task = rng.choice(ready_tasks(graph))
                node = graph.node(task)
                graph.record_work(task, rng.choice(
                    [node.estimated_hours, node.estimated_hours / 2]))
                # oracle: a parent is done iff every one of its children is
                for task_id in graph.nodes:
                    kids = graph.children(task_id)
                    if kids:
                        assert graph.node(task_id).done == all(k.done for k in kids)

    def test_dependency_unlocks_when_dep_completes(self):
        graph = build_graph([spec(), spec(deps=(0,))])
        assert graph.node("T1.2").status is TaskStatus.PENDING
        graph.record_work("T1.1", 2.0)
        assert graph.node("T1.2").status is TaskStatus.READY
