"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, not configurable.
"""

import math
import random
import socket
import time

import pytest

from teamsim.alignment import AlignmentState
from teamsim.engine import Simulation, run_scenario
from teamsim.metrics import compute_metrics
from teamsim.model import (AgentProfile, Role, Scenario, TaskSpec,
                           validate_scenario)
from teamsim.policy import Intention, IntentionKind, Policy
from teamsim.taskgraph import SubtaskSpec
from teamsim.trace import TraceLog

from conftest import (COMPLEX_TASK, MEDIUM_TASK, SIMPLE_TASK, RandomDagPlanner,
                      add_event, make_scenario, of_kind, parent_progress,
                      replay_af_updates, replay_runs)

TIME_TOLERANCE_H = 0.25
EFFICIENCY_TOLERANCE = 0.02
SPEEDUP_TOLERANCE = 0.01
RUNTIME_BUDGET_S = 1.0
RANDOM_RUNS = 1000
KERNEL_SAMPLES = 10_000
ROLLUP_SAMPLES = 1000
REPLY_WINDOW_STEPS = 4


def run_baseline(task, name):
    scenario = make_scenario(task, name=name)
    started = time.perf_counter()
    result = run_scenario(scenario)
    elapsed = time.perf_counter() - started
    return scenario, result, elapsed


class TestCriterion1BaselineTimes:
    def test_baseline_times(self, monkeypatch):
        # any socket use would mean a network dependency crept in
        def no_network(*args, **kwargs):
            raise AssertionError("baseline run attempted network access")

        monkeypatch.setattr(socket, "socket", no_network)
        expectations = [
            (SIMPLE_TASK, "simple", 7.0),
            (MEDIUM_TASK, "medium", 20.0),
            (COMPLEX_TASK, "complex", 33.5),
        ]
        measured = []
        for task, name, target in expectations:
            _, result, elapsed = run_baseline(task, name)
            assert result.completed
            hours = result.completion_hours("T1")
            assert abs(hours - target) <= TIME_TOLERANCE_H + 1e-9, (name, hours)
            assert elapsed < RUNTIME_BUDGET_S, (name, elapsed)
            measured.append((name, hours, elapsed))
        detail = ", ".join(f"{n}={h}h ({e * 1000:.0f}ms)" for n, h, e in measured)
        print(f"\nACCEPTANCE 1: PASS - baseline times within +/-0.25h: {detail}")


class TestCriterion2BaselineEfficiency:
    def test_baseline_efficiency_and_alignment(self):
        expectations = [
            (SIMPLE_TASK, "simple", 1.14),
            (MEDIUM_TASK, "medium", 1.20),
            (COMPLEX_TASK, "complex", 1.19),
        ]
        measured = []
        for task, name, target in expectations:
            scenario, result, _ = run_baseline(task, name)
            report = compute_metrics(result.trace, scenario)
            assert abs(report.efficiency - target) <= EFFICIENCY_TOLERANCE, \
                (name, report.efficiency)
            assert report.alignment_score == 0.30, (name, report.alignment_score)
            measured.append((name, report.efficiency))
        detail = ", ".join(f"{n}={e:.4f}" for n, e in measured)
        print(f"\nACCEPTANCE 2: PASS - efficiencies within +/-0.02 ({detail}), "
              "alignment exactly 0.30")


class TestCriterion3SpeedupFormula:
    def test_speedup_from_injected_times(self):
        scenario = make_scenario(MEDIUM_TASK)
        trace = TraceLog()
        for step in range(52):
            add_event(trace, step, "action", {"agent": "M1", "action": "idle",
                                              "target": None, "remaining": 0})
        add_event(trace, 51, "task_done", {"task": "T1", "root": True, "boundary": 52})
        report = compute_metrics(trace, scenario, baseline_hours=20.0)
        assert report.avg_completion_time == pytest.approx(13.0)
        assert abs(report.speedup - 1.54) <= SPEEDUP_TOLERANCE
        print(f"\nACCEPTANCE 3: PASS - speedup 20h/13h = {report.speedup:.4f} "
              "within +/-0.01 of 1.54")


class RandomIntentionPolicy(Policy):
    """Scripted chaos: a random but reproducible intention every decision."""

    name = "scripted_random"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def decide(self, context):
        rng = random.Random(f"{self.seed}:{context.agent.agent_id}:{context.step}")
        kind = rng.choice(list(IntentionKind))
        return Intention(kind)


def random_small_scenario(rng: random.Random) -> Scenario:
    skills = ["backend", "api", "testing", "oauth"]
    team = [AgentProfile("M1", "M1", Role.MANAGER, frozenset({"planning"}))]
    for i in range(rng.randint(1, 3)):
        team.append(AgentProfile(
            f"W{i + 1}", f"W{i + 1}", Role.WORKER,
            frozenset(rng.sample(skills, rng.randint(2, 3))),
        ))
    tasks = [
        TaskSpec(f"scripted task {t}", rng.choice([0.5, 1.0, 1.5, 2.0]),
                 frozenset(rng.sample(skills, 2)))
        for t in range(rng.randint(1, 2))
    ]
    # The draw that once set the scenario's `seed`, kept so that every later
    # draw, and so every run, stays as it was.
    rng.randint(0, 10 ** 6)
    return validate_scenario(Scenario(name="scripted", team=team, tasks=tasks))


class TestCriterion4SafProperties:
    def test_randomized_runs_hold_saf_invariants(self):
        master = random.Random(20240615)
        violations = []
        for run_index in range(RANDOM_RUNS):
            rng = random.Random(master.random())
            scenario = random_small_scenario(rng)
            sim = Simulation(
                scenario,
                policy=RandomIntentionPolicy(run_index),
                planner=RandomDagPlanner(run_index),
                max_steps=rng.randint(12, 28),
            )
            result = sim.run()
            trace = result.trace

            sent_step = {}
            for event in of_kind(trace, "message_sent"):
                sent_step[event["message_id"]] = event["sent_step"]

            delivery_counts = {}
            for event in of_kind(trace, "message_delivered"):
                mid = event["message_id"]
                if event["step"] <= sent_step[mid]:
                    violations.append((run_index, "read-before-send", mid))
                key = (mid, event["to"])
                delivery_counts[key] = delivery_counts.get(key, 0) + 1
            for key, count in delivery_counts.items():
                if count != 1:
                    violations.append((run_index, "duplicate-delivery", key))

            per_step = {}
            for event in of_kind(trace, "action"):
                key = (event["step"], event["agent"])
                per_step[key] = per_step.get(key, 0) + 1
            agents = [a.agent_id for a in scenario.team]
            for step in range(result.final_step):
                for agent in agents:
                    if per_step.get((step, agent), 0) != 1:
                        violations.append((run_index, "action-count", (step, agent)))

            replies_per_thread = {}
            for event in of_kind(trace, "message_sent"):
                if event["type"] == "RESPONSE":
                    tid = event["thread_id"]
                    replies_per_thread[tid] = replies_per_thread.get(tid, 0) + 1
            for tid, rounds in replies_per_thread.items():
                if rounds > 3:
                    violations.append((run_index, "thread-depth", tid))

        assert violations == [], violations[:20]
        print(f"\nACCEPTANCE 4: PASS - {RANDOM_RUNS} randomized scripted runs, "
              "zero SAF violations (causality, one action per step, depth<=3, "
              "exactly-once delivery)")


class TestCriterion5Determinism:
    @pytest.mark.parametrize("policy", ["no_comm", "fixed_steps", "c2c_heuristic"])
    def test_byte_identical_traces(self, tmp_path, policy):
        scenario = make_scenario(MEDIUM_TASK, policy=policy)
        hashes = []
        for label, parallel in (("serial-1", False), ("serial-2", False),
                                ("parallel", True)):
            result = run_scenario(scenario, parallel_decide=parallel)
            path = result.trace.write(tmp_path / f"{policy}-{label}.jsonl")
            hashes.append(path.read_bytes())
        assert hashes[0] == hashes[1] == hashes[2]
        if policy == "c2c_heuristic":
            print("\nACCEPTANCE 5: PASS - byte-identical traces across reruns "
                  "and concurrent decision execution (no_comm, fixed_steps, "
                  "c2c_heuristic)")


class TestCriterion6AlignmentKernel:
    def test_kernel_against_oracles(self):
        rng = random.Random(424242)
        state = AlignmentState()
        state.init("W1", "T1")
        for _ in range(KERNEL_SAMPLES):
            af = rng.uniform(0.01, 1.00)
            delta = rng.uniform(-0.7, 0.7)
            state.values[("W1", "T1")] = af
            applied = state.apply_delta("W1", "T1", delta)
            oracle = min(1.00, max(0.01, af + delta))
            assert applied == oracle, (af, delta)

        from teamsim.alignment import effective_progress
        for _ in range(KERNEL_SAMPLES):
            hours = rng.uniform(0, 12)
            af = rng.uniform(0.01, 1.00)
            assert effective_progress(hours, af) == hours * af

        # The trace's `af_update` events are the alignment history.
        runs = replay_runs()
        for scenario, planner in runs:
            result = Simulation(scenario, planner=planner).run()
            assert replay_af_updates(result.trace.events) == \
                result.world.alignment.values
        print(f"\nACCEPTANCE 6: PASS - {KERNEL_SAMPLES} clamp updates match the "
              "oracle exactly, effective progress exact, af_update replay "
              f"reproduces the final state of {len(runs)} runs")


class TestCriterion7WeightedRollup:
    def test_rollup_against_scalar_oracle(self):
        from teamsim.taskgraph import TaskGraph

        rng = random.Random(777)
        worst = 0.0
        for _ in range(ROLLUP_SAMPLES):
            count = rng.randint(2, 9)
            weights = [rng.uniform(0.1, 10.0) for _ in range(count)]
            worked = [rng.uniform(0, w * 1.3) for w in weights]

            def build(scale=1.0):
                graph = TaskGraph()
                graph.add_root("T1", "root", sum(weights) * scale, frozenset())
                graph.add_subtasks("T1", [
                    SubtaskSpec(f"s{i}", weights[i] * scale, frozenset(), None, ())
                    for i in range(count)
                ])
                for i in range(count):
                    if worked[i] > 0 and not graph.node(f"T1.{i + 1}").done:
                        graph.record_work(f"T1.{i + 1}", worked[i] * scale)
                return parent_progress(graph, "T1")

            fractions = [min(1.0, worked[i] / weights[i]) for i in range(count)]
            oracle = (math.fsum(w * p for w, p in zip(weights, fractions))
                      / math.fsum(weights))
            value = build()
            assert value == pytest.approx(oracle, rel=1e-12)
            worst = max(worst, abs(value - oracle) / max(oracle, 1e-300))

            scaled = build(scale=rng.uniform(0.2, 8.0))
            assert scaled == pytest.approx(value, rel=1e-9)
        print(f"\nACCEPTANCE 7: PASS - {ROLLUP_SAMPLES} weighted roll-ups match "
              f"scalar recomputation (worst rel err {worst:.2e}) and are "
              "invariant under uniform weight scaling")


class TestCriterion8DirectionalImprovement:
    def test_heuristic_beats_no_comm_on_medium(self):
        baseline = run_scenario(make_scenario(MEDIUM_TASK))
        improved = run_scenario(make_scenario(MEDIUM_TASK,
                                              policy="c2c_heuristic"))
        assert improved.completed
        t_base = baseline.completion_hours("T1")
        t_c2c = improved.completion_hours("T1")
        assert t_c2c < t_base
        print(f"\nACCEPTANCE 8: PASS - c2c_heuristic medium {t_c2c}h strictly "
              f"faster than no_comm {t_base}h (same scenario)")


class TestCriterion9Scalability:
    def test_speedup_monotone_and_cost_sublinear(self):
        baseline = run_scenario(make_scenario(MEDIUM_TASK, "1M+4W"))
        baseline_hours = baseline.completion_hours("T1")

        labels = ["1M+4W", "1M+8W", "1M+16W"]
        team_sizes = [5, 9, 17]
        times, costs, speedups = [], [], []
        for label in labels:
            scenario = make_scenario(MEDIUM_TASK, label, policy="c2c_heuristic")
            result = run_scenario(scenario)
            assert result.completed, label
            report = compute_metrics(result.trace, scenario,
                                     baseline_hours=baseline_hours)
            times.append(result.completion_hours("T1"))
            costs.append(report.communication_cost)
            speedups.append(report.speedup)

        assert speedups[0] <= speedups[1] <= speedups[2], speedups
        cost_ratio = costs[2] / costs[0]
        team_ratio = team_sizes[2] / team_sizes[0]
        assert cost_ratio < team_ratio, (cost_ratio, team_ratio)
        print(f"\nACCEPTANCE 9: PASS - speedups {[round(s, 3) for s in speedups]} "
              f"non-decreasing; comm cost ratio {cost_ratio:.2f} < "
              f"team-size ratio {team_ratio:.2f}")


class TestCriterion10FixedStepsSchedule:
    def test_worker_comm_only_on_the_cadence(self):
        scenario = make_scenario(MEDIUM_TASK, policy="fixed_steps")
        result = run_scenario(scenario)
        assert result.completed
        workers = {a.agent_id for a in scenario.workers}
        roots = {}
        initiations = []
        for record in of_kind(result.trace, "message_sent"):
            if record["type"] in ("RESPONSE", "MEETING_START"):
                continue
            roots[record["thread_id"]] = record["sent_step"]
            if record["from"] in workers:
                initiations.append((record["from"], record["sent_step"],
                                    record["type"]))
        assert initiations, "fixed_steps produced no worker communications"
        for sender, step, mtype in initiations:
            assert step % 16 in (0, 1), (sender, step, mtype)
        for record in of_kind(result.trace, "message_sent"):
            if record["type"] != "RESPONSE":
                continue
            root_step = roots[record["thread_id"]]
            assert record["sent_step"] - root_step <= REPLY_WINDOW_STEPS, record
        steps_used = sorted({step for _, step, _ in initiations})
        print(f"\nACCEPTANCE 10: PASS - fixed_steps worker initiations only at "
              f"steps mod 16 in (0, 1) (raw steps {steps_used}); replies within "
              f"{REPLY_WINDOW_STEPS} steps of their request")
