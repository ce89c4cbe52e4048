"""The engine's work step: a step below its task's mark is one add and one
compare, a step that reaches it goes through `TaskGraph.reach`. Drawn runs
check it against `TaskGraph.record_work` and the milestone test it replaced,
and every check the work step made still fires."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from teamsim.alignment import AF_INIT, AF_MAX, AF_MIN, AlignmentState, effective_progress
from teamsim.engine import (IDLE_ACTION, ActionKind, ActiveAction, AgentTaskStats,
                            Simulation)
from teamsim.model import HOURS_PER_STEP, Scenario, TaskSpec, validate_scenario
from teamsim.planner import DecompositionPlan
from teamsim.taskgraph import (DONE_EPS, REPORT_MILESTONES, GraphError, SubtaskSpec,
                               TaskAlreadyDoneError, TaskGraph)

from conftest import make_team, of_kind

LEAF = "T1.1"


class OneLeafPlanner:
    """The root becomes one subtask of `hours`, held by W1."""

    name = "one_leaf"

    def __init__(self, hours: float) -> None:
        self.hours = hours

    def decompose(self, node, scenario):
        return DecompositionPlan(subtasks=(
            SubtaskSpec("leaf", self.hours, frozenset({"backend"}), "W1"),))


def planned_simulation(hours: float) -> Simulation:
    """A 1M+1W run whose plan has landed: W1 holds the one leaf."""
    scenario = validate_scenario(Scenario(
        name="one_leaf", team=make_team(1),
        tasks=[TaskSpec("root", hours, frozenset({"backend"}))]))
    simulation = Simulation(scenario, planner=OneLeafPlanner(hours))
    simulation.step()
    assert simulation.world.active_task_id["W1"] == LEAF
    return simulation


def reference_steps(hours: float, afs: list[float]):
    """Per work step: (effective, progress, done, pending milestone, due),
    as `record_work` and the milestone loop before the mark computed them."""
    graph = TaskGraph()
    graph.add_root("T1", "root", hours, frozenset({"backend"}))
    graph.add_subtasks("T1", [SubtaskSpec("leaf", hours, frozenset({"backend"}))])
    node = graph.node(LEAF)
    pending, due = None, set()
    for af in afs:
        before = node.progress
        effective = effective_progress(HOURS_PER_STEP, af)
        done = graph.record_work(LEAF, effective)
        after = node.progress
        for milestone in REPORT_MILESTONES:
            if before < milestone <= after:
                pending = milestone
                due.add(LEAF)
        yield effective.hex(), after.hex(), done, pending, set(due)
        if done:
            return


def engine_steps(hours: float, afs: list[float]):
    """The same per work step, read off the engine's run."""
    simulation = planned_simulation(hours)
    world = simulation.world
    for af in afs:
        world.alignment.values["W1", LEAF] = af
        simulation.step()
        record = of_kind(world.trace, "progress")[-1]
        assert record["step"] == world.clock.step - 1 and record["af"] == af
        done = world.graph.node(LEAF).done
        yield (record["effective"].hex(), record["progress"].hex(), done,
               world.stats["W1", LEAF].pending_milestone, set(world.due["W1"]))
        if done:
            return


def work_sums(afs: list[float]) -> list[float]:
    """The leaf's hours after each step, summed as the engine sums them."""
    sums, total = [], 0.0
    for af in afs:
        total += HOURS_PER_STEP * af
        sums.append(total)
    return sums


@st.composite
def work_runs(draw):
    """Runs of alignment spells, and an estimate the drawn work lands on
    exactly at one half, at done, or within `DONE_EPS` of done, or one of up
    to 5,000 h, where a step's progress falls below 1e-4."""
    spells = draw(st.lists(st.tuples(st.floats(AF_MIN, AF_MAX), st.integers(1, 12)),
                           min_size=1, max_size=5))
    afs = [af for af, steps in spells for _ in range(steps)]
    sums = work_sums(afs)
    at = draw(st.sampled_from(sums))
    hours = draw(st.one_of(
        st.floats(0.001, 5000.0),
        st.just(2 * at), st.just(at),
        st.floats(-2 * DONE_EPS, 2 * DONE_EPS).map(lambda slack: at + slack)))
    return hours, afs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(work_runs())
def test_work_step_matches_record_work_and_the_milestone_loop(run):
    hours, afs = run
    assert list(engine_steps(hours, afs)) == list(reference_steps(hours, afs))


@pytest.mark.parametrize("hours,afs", [
    (2 * work_sums([0.3] * 4)[-1], [0.3] * 8),  # lands on 0.5, then done
    (0.3, [0.4] * 3),                           # 0.1 + 0.1 + 0.1
    (5000.0, [0.01, 1.0, 0.5]),                 # progress below 1e-4
])
def test_work_step_examples(hours, afs):
    assert list(engine_steps(hours, afs)) == list(reference_steps(hours, afs))


def work_on(simulation: Simulation, task_id: str) -> None:
    """Run the action phase with W1 working `task_id` and M1 idle."""
    world = simulation.world
    world.active.update({"M1": IDLE_ACTION,
                         "W1": ActiveAction(ActionKind.WORK, task_id, 1, None)})
    simulation._execute_actions(world.clock.step)


def test_working_a_done_task_is_refused():
    simulation = planned_simulation(0.15)
    while not simulation.world.graph.node(LEAF).done:
        simulation.step()
    assert simulation.world.graph.node(LEAF).mark == 0.0
    with pytest.raises(TaskAlreadyDoneError):
        work_on(simulation, LEAF)


def test_working_a_parent_is_refused():
    simulation = planned_simulation(1.0)
    world = simulation.world
    world.alignment.values["W1", "T1"] = AF_INIT
    world.stats["W1", "T1"] = AgentTaskStats()
    with pytest.raises(GraphError, match="T1 is not a leaf"):
        work_on(simulation, "T1")
    assert world.graph.node("T1").accumulated_effective_hours == 0.0


def test_working_an_unknown_task_is_refused():
    with pytest.raises(KeyError, match="T9"):
        work_on(planned_simulation(1.0), "T9")


def test_a_fresh_leaf_goes_through_reach_on_its_first_step():
    simulation = planned_simulation(1.0)
    node = simulation.world.graph.node(LEAF)
    assert (node.status.value, node.mark) == ("ready", 0.0)
    simulation.step()
    assert node.status.value == "in_progress"
    assert node.mark == REPORT_MILESTONES[0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8))
def test_every_alignment_write_stays_in_range(deltas):
    """The work step reads an alignment without checking its range: `init`
    and `apply_delta`, the two writers, keep every value in it."""
    state = AlignmentState()
    assert AF_MIN <= state.init("W1", "T1") <= AF_MAX
    for delta in deltas:
        state.apply_delta("W1", "T1", delta)
        assert AF_MIN <= state.values["W1", "T1"] <= AF_MAX
        assert not math.isnan(state.values["W1", "T1"])
