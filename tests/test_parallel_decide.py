"""The parallel decide with the context reads of a step overlapping.

`GatedPolicy` makes each decide wait at a `threading.Barrier` before it reads
any context field, so the decides of a step start their `World` reads
together, as many at once as the decide pool has threads. Each pool thread
then gives up the interpreter lock at every line of `engine.py` it runs, so
the reads interleave line by line. A `World` query that keeps per-call state
outside its locals, such as a scratch attribute on `World`, then hands one
agent another agent's answer, and the trace differs from the serial run's.
"""

import dataclasses
import sys
import threading
import time

import pytest

from teamsim import engine
from teamsim.engine import Simulation
from teamsim.policy import HeuristicPolicy

from conftest import (ChainPlanner, chain_scenario, eight_roots_scenario,
                      random_dag_run, shipped_scenario)

# `Simulation._decide` runs a step's decides on min(8, team size) threads when
# there are at least two; a miscount here breaks a barrier, never hangs.
POOL_THREADS = 8
BARRIER_TIMEOUT_S = 10.0
# The context fields that query `World`, each read by every gated decide
# before the heuristic reads `World`'s per-agent tables itself.
WORLD_FIELDS = ("assigned", "unanswered_inbound", "blocked_collaborators")


class GatedPolicy(HeuristicPolicy):
    """The heuristic policy, each decide held at its batch's barrier first.

    The decides of a step arrive in batches of one pool's worth of threads:
    a thread blocked at a barrier takes no next decide until that barrier
    lets its batch through.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._barriers: list[threading.Barrier] = []
        self._arrived = 0
        self._threads = 1
        self.largest_batch = 0

    def start_step(self, decides: int, threads: int) -> None:
        self._barriers = [threading.Barrier(min(threads, decides - first))
                          for first in range(0, decides, threads)]
        self._arrived = 0
        self._threads = threads
        self.largest_batch = max(self.largest_batch, self._barriers[0].parties)

    def decide(self, context):
        with self._lock:
            barrier = self._barriers[self._arrived // self._threads]
            self._arrived += 1
        barrier.wait(BARRIER_TIMEOUT_S)
        for field in WORLD_FIELDS:
            getattr(context, field)
        return super().decide(context)


class GatedSimulation(Simulation):
    def _decide(self, contexts):
        if contexts:
            parallel = self.parallel_decide and len(contexts) > 1
            threads = (min(POOL_THREADS, len(self.world.agent_order))
                       if parallel else 1)
            self.policy.start_step(len(contexts), threads)
        return super()._decide(contexts)


def _yield_each_line(frame, event, arg):
    if event == "line":
        time.sleep(0)
    return _yield_each_line


def _trace_engine(frame, event, arg):
    return _yield_each_line if frame.f_code.co_filename == engine.__file__ else None


def _trace(scenario, planner, parallel_decide: bool) -> tuple[str, int]:
    """The run's trace and the most decides one barrier held at once."""
    policy = GatedPolicy()
    interval, tracer = sys.getswitchinterval(), threading.gettrace()
    if parallel_decide:
        sys.setswitchinterval(1e-6)
        # The decide pool starts its threads during the run, so they all
        # carry this tracer.
        threading.settrace(_trace_engine)
    try:
        result = GatedSimulation(scenario, policy=policy, planner=planner,
                                 parallel_decide=parallel_decide).run()
    finally:
        threading.settrace(tracer)
        sys.setswitchinterval(interval)
    return result.trace.to_jsonl(), policy.largest_batch


def _first_difference(expected: str, actual: str) -> tuple | None:
    """The first differing line of two traces and its number, or None:
    reported instead of a diff of two whole traces."""
    if actual == expected:
        return None
    lines = zip(expected.splitlines(), actual.splitlines())
    return next(((number, want, got) for number, (want, got) in enumerate(lines)
                 if want != got), ("lengths", len(expected), len(actual)))


# The shipped scenarios and a 1M+16W team with eight roots, whose plans
# block no collaborator; and plans that do, one of them holding a meeting.
RUNS = {
    **{name: (shipped_scenario(name, "c2c_heuristic"), None)
       for name in ("simple", "medium", "complex", "multi_task")},
    "eight_roots": (eight_roots_scenario(), None),
    "random_dag_0": random_dag_run(0),
    "random_dag_19": random_dag_run(19),
    "chain_meeting": (dataclasses.replace(chain_scenario(),
                                          policy_name="c2c_heuristic"),
                      ChainPlanner()),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_overlapping_reads_write_the_serial_trace(name):
    scenario, planner = RUNS[name]
    serial, serial_batch = _trace(scenario, planner, parallel_decide=False)
    parallel, parallel_batch = _trace(scenario, planner, parallel_decide=True)
    assert serial_batch == 1
    assert parallel_batch == min(POOL_THREADS, len(scenario.team))
    assert _first_difference(serial, parallel) is None


def test_serial_gated_run_is_the_plain_run():
    scenario, planner = RUNS["random_dag_0"]
    plain = Simulation(scenario, planner=planner).run().trace.to_jsonl()
    assert _first_difference(plain, _trace(scenario, planner, False)[0]) is None
