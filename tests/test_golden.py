"""Golden traces: the sha256 of `trace.jsonl` for fixed deterministic runs.

A refactor that changes one byte of any of these traces changes behaviour.
Each digest is taken under every trace codec: orjson and the standard-library
fallback write the same bytes, both through `TraceLog` and through the
`TraceWriter` that `teamsim run` writes with. Every record of these runs is
also checked against its kind's schema, keys in order, with the check the
reader makes on each line it reads.
The shipped-scenario digests are the same ones the benchmark pins in
`perfbench/cases.py`; the dependency, meeting and random-DAG cases cover the
engine paths that no benchmark workload reaches. The shipped scenarios and the
meeting case are also run with the parallel decide, whose thread pool reads
the contexts' fields, and must write the same bytes.
"""

import contextlib
import dataclasses
import hashlib
import io
import runpy
import sys
from pathlib import Path

import pytest

from teamsim.cli import main
from teamsim.config import parse_scenario, parse_scenario_text
from teamsim.engine import Simulation
from teamsim.model import Scenario
from teamsim import trace
from teamsim.trace import SCHEMAS

from conftest import (MEDIUM_TASK, ChainPlanner, chain_scenario,
                      eight_roots_scenario, make_scenario, random_dag_run)

ROOT = Path(__file__).resolve().parent.parent

SHIPPED = {
    ("complex", "c2c_heuristic"):
        "0c709cad2523c5b7228a8c8e5e7ed8452a9b321724e049794b4ce43df2aad3df",
    ("complex", "fixed_steps"):
        "0f755f41ae54e308c36bad7885a06a7c358eed9d743a22e6d4050e6bd06fb7c0",
    ("complex", "no_comm"):
        "6c4a343e68194dab9965ef6a3b3f061b2e536944150a190dcd55436575154296",
    ("medium", "c2c_heuristic"):
        "108ef17c508c25ce27ba66def9c47db7e7ad80aaaea0f780a332011427e654fb",
    ("medium", "fixed_steps"):
        "272304dce1d76106cba20ed6ca14985ff6c4c76c788dc83ee59916ed46f91cda",
    ("medium", "no_comm"):
        "7486de951c591f1997170da36d5fe6214a4f292f2108f286c293c55ddb3374f0",
    ("multi_task", "c2c_heuristic"):
        "c3e1fec2b6a6a4c9b21199ceb0c964c4474399c4b45256efdf0a7ee373211e5a",
    ("multi_task", "fixed_steps"):
        "70c2201e0fd0ce2a5fbc83784a16a6e50afaa7a8ae747cbc0ace1856d47a5c48",
    ("multi_task", "no_comm"):
        "ff09242502022f43ba0039356c9784696fab3a0dd7f95d4af5549c43fc102bc5",
    ("simple", "c2c_heuristic"):
        "72d01e66f1be05a880084384954615a9a80a1411ae48dff517f93b5a60c8fc0f",
    ("simple", "fixed_steps"):
        "c5d1b9dbdfb1b1a49f31eccd05c6ff70cf6e5f2523c919dbe929b6ef6e839908",
    ("simple", "no_comm"):
        "85c35ba521743eb56001ee8dc6c8175a147c9f080f6d3745df5fa55dd7faf764",
}

# The sha256 of the `scenario.yaml` that `teamsim run` writes for each of
# the runs above, taken while PyYAML's dumper wrote every one of them.
SHIPPED_SCENARIO_YAML = {
    ("complex", "c2c_heuristic"):
        "2dba7e6862adb7e8b47221e821847080f46e18d8fcd9559470bee105fde7ced5",
    ("complex", "fixed_steps"):
        "7c774322bcd1ddcf01adf127e2e374b6608f099b84133f911709a3aa2c7f5388",
    ("complex", "no_comm"):
        "fb690edae83ee7598a5bf88e3c75745bcf1c11735d76c2738cfb2f0cdd3392a8",
    ("medium", "c2c_heuristic"):
        "499626f1620468d0e7828c8314987a78d9c914d494bcbecb4265402848425b55",
    ("medium", "fixed_steps"):
        "2bed988a04e280088c0e24ec3e8e25f298673b339bdcf550b5c47f8e994f53d2",
    ("medium", "no_comm"):
        "c177be48f5c3b8548346eaecf2b929ced5e2a72b146470c1d87eeb0fa38869c4",
    ("multi_task", "c2c_heuristic"):
        "c5aa91df0f48a94dea725cc371c02f16aa3786ac5df72a90a6a81d095c2d36ef",
    ("multi_task", "fixed_steps"):
        "fe762a976b4958c2474037770fde1b97e11fc65fa3b71fcbe6e0af42798ccd5b",
    ("multi_task", "no_comm"):
        "10c38909fb00fb296de4f4d39bd7664c6be1b86e77803b3876b79c10f5524e0a",
    ("simple", "c2c_heuristic"):
        "d7a211758f07ae7f6a5b44700029cda9d2fb53531648fa399473116aad8360b3",
    ("simple", "fixed_steps"):
        "579a4db21da998140c957993d04ba522652aea68b4f9ad79787d3925f34f956b",
    ("simple", "no_comm"):
        "193f24f3dcbbbe1e7f47d141ab8e6f72fd6e54a09c0e56b2c5a9483e74d056b9",
}


def _check_schema(records: list[dict]) -> None:
    """Each record has `step`, `seq`, `kind` and its kind's fields in order,
    each of a type its schema accepts: the check the reader makes. The whole
    run passes the column check too, so the reader never reads a real trace
    again line by line."""
    for seq, record in enumerate(records):
        schema = SCHEMAS[record["kind"]]
        assert list(record) == ["step", "seq", "kind", *schema.fields], record
        assert record["seq"] == seq
        assert trace._fault(record, seq) is None, record
    assert trace._conforms(records)


def _digests(each_codec, scenario: Scenario, planner=None,
             parallel_decide: bool = False) -> set[str]:
    """The trace's sha256 under every codec: one digest when they agree.

    A parallel decide runs with its threads switching about every
    microsecond, so that a context read touching another agent's `World`
    entry could lose an update and change the trace.
    """
    interval = sys.getswitchinterval()
    if parallel_decide:
        sys.setswitchinterval(1e-6)
    try:
        trace = Simulation(scenario, planner=planner,
                           parallel_decide=parallel_decide).run().trace
    finally:
        sys.setswitchinterval(interval)
    _check_schema(trace.events)
    return {hashlib.sha256(trace.to_jsonl().encode("utf-8")).hexdigest()
            for _ in each_codec()}


@pytest.mark.parametrize("name,policy,parallel_decide", [
    pytest.param(name, policy, parallel_decide,
                 id=f"{name}-{policy}" + ("-parallel" if parallel_decide else ""))
    for name, policy in sorted(SHIPPED) for parallel_decide in (False, True)])
def test_shipped_scenarios(each_codec, name, policy, parallel_decide):
    scenario = parse_scenario(ROOT / "scenarios" / f"{name}.yaml")
    scenario = dataclasses.replace(scenario, policy_name=policy)
    assert _digests(each_codec, scenario, parallel_decide=parallel_decide) == \
        {SHIPPED[name, policy]}


@pytest.mark.parametrize("name,policy", sorted(SHIPPED))
def test_cli_run_writes_the_shipped_digests(each_codec, tmp_path, name, policy):
    """`teamsim run` writes each line through `TraceWriter`, not `TraceLog`,
    and `scenario.yaml` in the bytes pinned while PyYAML wrote it."""
    for codec in each_codec():
        out = tmp_path / codec
        with contextlib.redirect_stdout(io.StringIO()):
            main(["run", "--scenario", str(ROOT / "scenarios" / f"{name}.yaml"),
                  "--policy", policy, "--out", str(out)])
        digest = hashlib.sha256((out / "trace.jsonl").read_bytes()).hexdigest()
        assert digest == SHIPPED[name, policy]
        digest = hashlib.sha256((out / "scenario.yaml").read_bytes()).hexdigest()
        assert digest == SHIPPED_SCENARIO_YAML[name, policy]


def test_shipped_digests_match_benchmark_pins():
    cases = runpy.run_path(str(ROOT / "perfbench" / "cases.py"))
    pinned = {tuple(key.split(":")[0].split("/")[:2]): digest
              for key, digest in cases["PINNED"]["paper_grid"].items()}
    assert pinned == SHIPPED


def test_wide_medium_team(each_codec):
    scenario = make_scenario(MEDIUM_TASK, "1M+64W", "c2c_heuristic")
    assert _digests(each_codec, scenario) == {
        "9e7359df1c90375fe0b3591c5880ac3ed673fed7626500746edee1dfa6899546"}


# The benchmark's `wide_team` input at its default seed: one generated root on
# a 1M+256W team, so the load cap is 1 and most subtasks miss their suggested
# worker and take the `assign` fallback.
WIDE_ROOT_YAML = """\
name: wide_team
team: 1M+256W
skill_pool: [backend, api, authentication, oauth, testing, documentation]
tasks:
  - description: "Generated root task 1 over 5 skills."
    hours: 24.5
    skills: [backend, api, authentication, oauth, documentation]
"""

WIDE_ROOT = {
    "no_comm": "a34594c8fda2604dfb9ae1c3e26bb6e4c35b10f7ab4b6d7f0108649ca1e03e80",
    "c2c_heuristic": "485a9b1170753ff81b39e056cbc8f07b7d0cb379aa158b5dcf25f091a90516cd",
}


@pytest.mark.parametrize("policy", sorted(WIDE_ROOT))
def test_wide_root_256_workers(each_codec, policy):
    scenario = parse_scenario_text(WIDE_ROOT_YAML)
    scenario = dataclasses.replace(scenario, policy_name=policy)
    assert _digests(each_codec, scenario) == {WIDE_ROOT[policy]}


def test_wide_root_digests_match_benchmark_pins():
    cases = runpy.run_path(str(ROOT / "perfbench" / "cases.py"))
    pinned = {key.split("/")[1]: digest
              for key, digest in cases["PINNED"]["wide_team"].items()
              if key.endswith(":trace.jsonl")}
    assert pinned == WIDE_ROOT


def test_eight_roots(each_codec):
    assert _digests(each_codec, eight_roots_scenario()) == {
        "b4e140d540d19fb2cea3e06f5b74998c290a984adcb78b86a6143bd986109b00"}


def test_chain_planner_meeting(each_codec):
    """The one golden run that holds a meeting, serial and parallel."""
    scenario = dataclasses.replace(chain_scenario(), policy_name="c2c_heuristic")
    for parallel_decide in (False, True):
        assert _digests(each_codec, scenario, ChainPlanner(), parallel_decide) == {
            "9fddbe03258f51612e2f046a95be208a97ae790a8f6034f7706ee4937c9f9fcf"}


@pytest.mark.parametrize("seed,digest,parallel_decide", [
    pytest.param(seed, digest, parallel_decide,
                 id=str(seed) + ("-parallel" if parallel_decide else ""))
    for seed, digest in [
        (0, "64e917acdc88e652eedfc6f706d02a136c3221e9ad7d9425a875c3af15185fdc"),
        (19, "545fb567fda483914132d89d5bc991c713ca140b109c7fa9811e769ecdf284ef"),
    ] for parallel_decide in (False, True)])
def test_random_dag_plans(each_codec, seed, digest, parallel_decide):
    """Plans whose dependencies block collaborators, the parallel decide's
    contexts reading the blocked-collaborator maps too."""
    scenario, planner = random_dag_run(seed)
    assert _digests(each_codec, scenario, planner, parallel_decide) == {digest}
