"""Scenario files, team shorthand, round-tripping, and the CLI surface."""

import contextlib
import csv
import functools
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from teamsim import cli, config, trace
from teamsim.cli import main
from teamsim.config import (RunConfig, emit_scenario, expand_team_shorthand,
                            parse_scenario, parse_scenario_text)
from teamsim.engine import Simulation
from teamsim.model import (EVALUATOR_NAMES, POLICY_NAMES, AgentProfile, Role,
                           Scenario, ScenarioError, TaskSpec)
from teamsim.trace import TraceLog

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

APPENDIX_STYLE = """\
name: simple
team: 1M+4W
seed: 3
policy: no_comm
tasks:
  - description: "Fix five independent bugs across modules: login validation, data parsing, UI rendering glitches, API timeout handling, and a database connection leak. No cross-dependencies."
    hours: 8.0
    skills: ["backend", "frontend", "database", "api", "testing"]
"""

EXPLICIT_TEAM = """\
name: custom
seed: 1
team:
  - {id: M1, name: Morgan, role: manager, skills: [planning, coordination]}
  - {id: W1, name: Kai, role: worker, skills: [backend, api]}
  - {id: W2, name: Ash, role: worker, skills: [testing, api]}
tasks:
  - description: "Ship the integration"
    hours: 4.0
    skills: [backend, api, testing]
"""


SIMPLE = (SCENARIOS / "simple.yaml").read_text(encoding="utf-8")
SIMPLE_POOL = "skill_pool: [backend, frontend, database, api, testing]"
SIMPLE_SKILLS = "    skills: [backend, frontend, database, api, testing]"


class TestParsing:
    def test_appendix_style_block(self):
        scenario = parse_scenario_text(APPENDIX_STYLE)
        assert scenario.tasks[0].estimated_hours == 8.0
        assert len(scenario.tasks[0].required_skills) == 5
        assert len(scenario.team) == 5

    def test_shorthand_expansion_counts(self):
        team = expand_team_shorthand("1M+8W", ["a", "b", "c", "d"])
        assert len(team) == 9
        assert sum(1 for a in team if a.role is Role.MANAGER) == 1
        for worker in team[1:]:
            assert 2 <= len(worker.skills) <= 4

    def test_rotation_covers_pool(self):
        pool = ["a", "b", "c", "d", "e", "f"]
        team = expand_team_shorthand("1M+4W", pool)
        union = frozenset().union(*(w.skills for w in team[1:]))
        assert union == frozenset(pool)

    def test_shorthand_follows_the_documented_rotation(self):
        # Each distinct rotation is built once and shared; every agent must
        # still be the one the documented formula gives.
        for size in range(1, 9):
            pool = [f"S{i}" for i in range(size)]
            team = expand_team_shorthand("2M+13W", pool)
            assert team[:2] == [
                AgentProfile(f"M{m}", f"Manager {m}", Role.MANAGER,
                             frozenset(config.MANAGER_SKILLS)) for m in (1, 2)]
            for w, agent in enumerate(team[2:]):
                start = w * config.WORKER_SKILL_STRIDE
                skills = frozenset(pool[(start + j) % size].lower()
                                   for j in range(config.WORKER_SKILLS_PER_AGENT))
                assert agent == AgentProfile(f"W{w + 1}", f"Worker {w + 1}",
                                             Role.WORKER, skills)
                assert type(agent) is AgentProfile

    def test_shorthand_team_size_is_bounded(self):
        bound = config.MAX_SHORTHAND_AGENTS
        assert len(expand_team_shorthand(f"1M+{bound - 1}W", ["a"])) == bound
        with pytest.raises(ScenarioError, match=f"has {bound + 1} agents, more "
                                                f"than {bound}"):
            expand_team_shorthand(f"1M+{bound}W", ["a"])

    def test_explicit_team(self):
        scenario = parse_scenario_text(EXPLICIT_TEAM)
        assert [a.agent_id for a in scenario.team] == ["M1", "W1", "W2"]
        assert scenario.team_label == "1M+2W"

    def test_normalizes_skill_case(self):
        scenario = parse_scenario_text(
            EXPLICIT_TEAM.replace("skills: [backend, api]}", "skills: [Backend, API]}")
            .replace("skills: [backend, api, testing]", "skills: [Backend, TESTING]")
            + "skill_pool: [BACKEND, Api, testing]\n")
        assert scenario.team[1].skills == frozenset({"backend", "api"})
        assert scenario.tasks[0].required_skills == frozenset({"backend", "testing"})
        assert scenario.skill_pool == ("backend", "api", "testing")

    def test_multi_task_scenario(self):
        text = EXPLICIT_TEAM + (
            "  - description: \"Document the rollout\"\n"
            "    hours: 2.0\n"
            "    skills: [api]\n"
        )
        scenario = parse_scenario_text(text)
        assert len(scenario.tasks) == 2

    def test_missing_field_error(self):
        with pytest.raises(ScenarioError, match="missing field: tasks"):
            parse_scenario_text("team: 1M+2W\n")
        with pytest.raises(ScenarioError, match="tasks\\[0\\].hours"):
            parse_scenario_text(
                "team: 1M+2W\ntasks:\n  - description: x\n")

    def test_unknown_skill_reference(self):
        text = (
            "team: 1M+2W\n"
            "skill_pool: [backend]\n"
            "tasks:\n"
            "  - description: x\n"
            "    hours: 1.0\n"
            "    skills: [warp-drive]\n"
        )
        with pytest.raises(ScenarioError, match="unknown skill reference"):
            parse_scenario_text(text)

    def test_malformed_yaml(self):
        with pytest.raises(ScenarioError, match="malformed scenario syntax"):
            parse_scenario_text("team: [unclosed\n")

    @pytest.mark.parametrize("tasks", [
        "tasks: 5\n",
        "tasks:\n  - {description: x, hours: abc, skills: [a]}\n",
        "tasks:\n  - {description: x, hours: 1.0, skills: 7}\n",
        # A string or mapping is refused, not iterated into one-letter skills
        # or its keys.
        "tasks:\n  - {description: x, hours: 1.0, skills: abc}\n",
        "tasks:\n  - {description: x, hours: 1.0, skills: {a: 1}}\n",
        "skill_pool: backend\ntasks:\n  - {description: x, hours: 1.0, skills: [backend]}\n",
    ], ids=["tasks-not-a-list", "hours-not-a-number", "skills-not-a-list",
            "skills-a-string", "skills-a-mapping", "skill-pool-a-string"])
    def test_wrongly_typed_field(self, tasks):
        with pytest.raises(ScenarioError, match="malformed scenario field"):
            parse_scenario_text("team: 1M+2W\n" + tasks)

    def test_malformed_shorthand(self):
        with pytest.raises(ScenarioError, match="malformed team shorthand"):
            parse_scenario_text(
                "team: 2X+1Y\ntasks:\n  - {description: x, hours: 1.0, skills: [a]}\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            parse_scenario(tmp_path / "nope.yaml")

    def test_merge_key_is_not_a_duplicate(self):
        """A key a YAML merge (`<<`) brings in may be given again beside it:
        the later value wins, as in any YAML reader."""
        scenario = parse_scenario_text(textwrap.dedent("""\
            name: merged
            team: 1M+2W
            tasks:
              - &base
                description: "Ship the integration"
                hours: 4.0
                skills: [backend, api]
              - <<: *base
                hours: 2.0
            """))
        assert [(t.description, t.estimated_hours) for t in scenario.tasks] == [
            ("Ship the integration", 4.0), ("Ship the integration", 2.0)]
        assert scenario.tasks[1].required_skills == {"backend", "api"}

    def test_round_trip(self):
        scenario = parse_scenario_text(APPENDIX_STYLE)
        assert parse_scenario_text(emit_scenario(scenario)) == scenario
        explicit = parse_scenario_text(EXPLICIT_TEAM)
        assert parse_scenario_text(emit_scenario(explicit)) == explicit

    @pytest.mark.parametrize("name", ["simple", "medium", "complex", "multi_task"])
    def test_old_seed_key_is_read_and_ignored(self, name):
        """A shipped scenario still carries the `seed:` key that once set a
        scenario seed: it parses as the same file without the key does, and
        emits without it."""
        text = (SCENARIOS / f"{name}.yaml").read_text(encoding="utf-8")
        assert "\nseed: 7\n" in text
        scenario = parse_scenario_text(text)
        assert scenario == parse_scenario_text(text.replace("\nseed: 7\n", "\n"))
        emitted = emit_scenario(scenario)
        assert "seed" not in yaml.safe_load(emitted)
        assert parse_scenario_text(emitted) == scenario


WIDE_TEAM = """\
name: wide
team: 1M+64W
skill_pool: [backend, api, authentication, oauth, testing, documentation]
tasks:
  - description: "Integrate an external API with authentication."
    hours: 24.0
    skills: [backend, api, authentication, oauth, testing, documentation]
  - description: "Harden the token refresh path"
    hours: 7.5
    skills: [oauth, testing]
"""


class TestLibyaml:
    def test_libyaml_is_used_when_available(self):
        loader, dumper = config._pyyaml()
        if yaml.__with_libyaml__:
            assert loader.__bases__ == (yaml.CSafeLoader,)
            assert dumper.__bases__ == (yaml.CSafeDumper,)
        else:
            assert loader.__bases__ == (yaml.SafeLoader,)
            assert dumper.__bases__ == (yaml.SafeDumper,)

    @pytest.mark.parametrize("text", [
        *(pytest.param((SCENARIOS / f"{name}.yaml").read_text(encoding="utf-8"),
                       id=name)
          for name in ("simple", "medium", "complex", "multi_task")),
        pytest.param(WIDE_TEAM, id="1M+64W"),
    ])
    def test_same_scenario_and_text_as_pure_python(self, monkeypatch, text):
        scenario = parse_scenario_text(text)
        emitted = emit_scenario(scenario)
        reparsed = parse_scenario_text(emitted)
        pure = (config._loader(yaml.SafeLoader), config._dumper(yaml.SafeDumper))
        monkeypatch.setattr(config, "_pyyaml", lambda: pure)
        monkeypatch.setattr(config, "_read_hand_written", lambda text: None)
        assert parse_scenario_text(text) == scenario
        assert emit_scenario(scenario) == emitted
        assert parse_scenario_text(emitted) == reparsed == scenario

    @pytest.mark.parametrize("content", [
        "team: [unclosed\n",
        "team: 1M+2W\n  tasks: x\n- y\n",
        "name: \"open\nteam: 1M+2W\n",
        "name: a\x01b\n",
    ], ids=["unclosed-flow", "bad-indent", "unclosed-quote", "control-char"])
    def test_malformed_yaml_is_one_line_exit_5(self, tmp_path, capsys, content):
        path = tmp_path / "bad.yaml"
        path.write_text(content, encoding="utf-8")
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("scenario error: malformed scenario syntax")
        assert err.count("\n") == 1

    def test_lone_surrogate_is_a_syntax_error(self):
        with pytest.raises(ScenarioError, match="malformed scenario syntax"):
            parse_scenario_text("name: \ud800\nteam: 1M+1W\n")

    def test_non_ascii_is_written_raw(self):
        scenario = parse_scenario_text(
            APPENDIX_STYLE.replace("name: simple", "name: \"Café – naïve\""))
        assert "name: Café – naïve\n" in emit_scenario(scenario)


# Astral characters and U+0085 are escaped by the emitter and must still come
# back unchanged.
_chars = st.one_of(
    st.sampled_from(["\x85", "\U0001F600", "\U00010348", "\u2028", "\t", "#",
                     ":", "'", '"', "-", " "]),
    st.characters(codec="utf-8"),
)
_texts = st.text(_chars, max_size=12)
_skills = st.text(_chars, min_size=1, max_size=8).map(str.lower)


@st.composite
def scenarios(draw) -> Scenario:
    tasks = draw(st.lists(st.builds(
        TaskSpec,
        description=_texts,
        estimated_hours=st.floats(0.01, 1e6),
        required_skills=st.frozensets(_skills, max_size=3),
    ), min_size=1, max_size=3))
    ids = draw(st.lists(_texts, min_size=2, max_size=4, unique=True))
    team = [
        AgentProfile(agent_id=agent_id, name=draw(_texts),
                     role=Role.MANAGER if i == 0 else Role.WORKER,
                     skills=draw(st.frozensets(_skills, min_size=1, max_size=3)))
        for i, agent_id in enumerate(ids)
    ]
    pool = {s for t in tasks for s in t.required_skills}
    pool |= draw(st.frozensets(_skills, max_size=2))
    name = draw(_texts)
    policy_name = draw(st.sampled_from(POLICY_NAMES))
    evaluator_name = draw(st.sampled_from(EVALUATOR_NAMES))
    # The draw that once set the scenario's `seed`, kept so that the
    # generated examples stay as they were.
    draw(st.integers(0, 2 ** 31))
    return Scenario(
        name=name,
        team=team,
        tasks=tasks,
        policy_name=policy_name,
        evaluator_name=evaluator_name,
        skill_pool=tuple(sorted(pool)) or ("x",),
        team_label=draw(_texts.filter(bool)),
    )


# libyaml's emitter where PyYAML has it, and the pure-Python one everywhere.
_DUMPERS = [config._dumper(yaml.SafeDumper)] + (
    [config._dumper(yaml.CSafeDumper)] if yaml.__with_libyaml__ else [])


@settings(max_examples=50, deadline=None, derandomize=True)
@given(scenarios())
def test_emitted_scenario_parses_back(scenario):
    loader = config._pyyaml()[0]
    for dumper in _DUMPERS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(config, "_pyyaml", lambda: (loader, dumper))
            assert parse_scenario_text(emit_scenario(scenario)) == scenario


def _node_paths(data, path=()):
    """The path of every node of a loaded YAML document, the root's first."""
    yield path
    if isinstance(data, (dict, list)):
        for key, value in (data.items() if isinstance(data, dict) else enumerate(data)):
            yield from _node_paths(value, path + (key,))


_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                     st.text(max_size=8))
_nodes = st.one_of(_scalars, st.lists(_scalars, max_size=3),
                   st.dictionaries(st.text(max_size=6), _scalars, max_size=3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=st.sampled_from(["simple", "medium", "complex", "multi_task"]),
       data=st.data())
def test_one_node_replaced_runs_or_is_one_scenario_error(name, data):
    """A shipped scenario with any one node replaced by a scalar, list or
    mapping runs, or is refused in one line: never a traceback."""
    document = yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text(encoding="utf-8"))
    path = data.draw(st.sampled_from(list(_node_paths(document))))
    value = data.draw(_nodes)
    if path:
        functools.reduce(operator.getitem, path[:-1], document)[path[-1]] = value
    else:
        document = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "edited.yaml"
        scenario.write_text(yaml.safe_dump(document, allow_unicode=True), encoding="utf-8")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--scenario", str(scenario), "--out",
                         str(Path(tmp) / "out"), "--max-steps", "4"])
    assert code in (0, 2, 5)
    if code == 5:
        assert err.getvalue().startswith("scenario error: ")
        assert err.getvalue().count("\n") == 1


@pytest.fixture
def scenario_file(tmp_path) -> Path:
    path = tmp_path / "simple.yaml"
    path.write_text(APPENDIX_STYLE, encoding="utf-8")
    return path


class TestCliRun:
    def test_happy_path_writes_outputs(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        assert code == 0
        for name in ("trace.jsonl", "metrics.csv", "report.txt", "scenario.yaml"):
            assert (out / name).exists()
        csv_text = (out / "metrics.csv").read_text(encoding="utf-8")
        rows = list(csv.reader(csv_text.splitlines()))
        assert rows[0][:3] == ["config", "complexity", "completion_rate"]
        assert rows[1][0] == "1M+4W"
        assert rows[1][2] == "100.0"
        assert "completion_rate: 100.0%" in capsys.readouterr().out

    def test_step_cap_exits_incomplete(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(scenario_file),
                     "--out", str(out), "--max-steps", "4"])
        assert code == 2

    def test_llm_policy_without_endpoint_exits_3(self, scenario_file, tmp_path):
        code = main(["run", "--scenario", str(scenario_file),
                     "--policy", "c2c_llm", "--out", str(tmp_path / "o")])
        assert code == 3

    def test_zero_steps_is_a_one_line_error(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(scenario_file),
                     "--out", str(out), "--max-steps", "0"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("metrics error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"team: [unclosed\n", b"name: \xff\n", None],
                             ids=["malformed", "not-utf8", "missing"])
    def test_bad_scenario_is_a_one_line_error(self, tmp_path, capsys, content):
        path = tmp_path / "bad.yaml"
        if content is not None:
            path.write_bytes(content)
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field,content", [
        ("skill_pool", APPENDIX_STYLE + "skill_pool: backend\n"),
        ("tasks[0].skills", APPENDIX_STYLE.replace(
            '["backend", "frontend", "database", "api", "testing"]', "backend")),
        ("team[0].skills", EXPLICIT_TEAM.replace("[planning, coordination]", "planning")),
    ], ids=["skill_pool", "task-skills", "agent-skills"])
    def test_scalar_skills_are_a_one_line_error(self, tmp_path, capsys, field,
                                                content):
        path = tmp_path / "scalar.yaml"
        path.write_text(content, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and err.count("\n") == 1
        assert f"{field} must be a list" in err
        assert not out.exists()

    @pytest.mark.parametrize("field,content", [
        ("polcy", APPENDIX_STYLE.replace("policy: no_comm", "polcy: no_comm")),
        ("tasks[0].hour", APPENDIX_STYLE.replace("    hours: 8.0\n",
                                                 "    hours: 8.0\n    hour: 99\n")),
        ("team[1].nmae", EXPLICIT_TEAM.replace("name: Kai", "nmae: Kai")),
    ], ids=["top-level", "task", "team-entry"])
    def test_unknown_field_is_a_one_line_error(self, tmp_path, capsys, field,
                                               content):
        # Before it was rejected, a misspelt key was dropped and the run
        # exited 0 with the key's default.
        path = tmp_path / "typo.yaml"
        path.write_text(content, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 5
        assert capsys.readouterr().err == f"scenario error: unknown field: {field}\n"
        assert not out.exists()

    @pytest.mark.parametrize("field,content", [
        ("policy", APPENDIX_STYLE.replace("policy: no_comm",
                                          "policy: c2c_heuristic\npolicy: no_comm")),
        ("tasks[0].hours", APPENDIX_STYLE.replace("    hours: 8.0\n",
                                                  "    hours: 8.0\n    hours: 99\n")),
        ("team[1].name", EXPLICIT_TEAM.replace("name: Kai", "name: Kai, name: Kay")),
    ], ids=["top-level", "task", "team-entry"])
    def test_duplicate_field_is_a_one_line_error(self, tmp_path, capsys, field,
                                                 content):
        # Before it was rejected, the last of the two values was run, with
        # exit 0.
        path = tmp_path / "twice.yaml"
        path.write_text(content, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 5
        assert capsys.readouterr().err == f"scenario error: duplicate field: {field}\n"
        assert not out.exists()

    @pytest.mark.parametrize("content,error", [
        (SIMPLE.replace("name: simple", "name: [1, 2]"),
         "malformed scenario field: name must be a string, not list"),
        (SIMPLE.replace("name: simple", "name: null"),
         "malformed scenario field: name must be a string, not NoneType"),
        (re.sub(r"description: .*", "description: 5", SIMPLE),
         "malformed scenario field: tasks[0].description must be a string, not int"),
        (SIMPLE.replace(SIMPLE_POOL + "\n", "").replace(SIMPLE_SKILLS, "    skills: [null]"),
         "malformed scenario field: tasks[0].skills[0] must be a string, not NoneType"),
        (SIMPLE.replace(SIMPLE_POOL, "skill_pool: [backend, null]")
         .replace(SIMPLE_SKILLS, "    skills: [backend]"),
         "malformed scenario field: skill_pool[1] must be a string, not NoneType"),
        (SIMPLE.replace(SIMPLE_POOL + "\n", "").replace(SIMPLE_SKILLS, "    skills: [true]"),
         "malformed scenario field: tasks[0].skills[0] must be a string, not bool"),
        (SIMPLE.replace(SIMPLE_POOL + "\n", "").replace(SIMPLE_SKILLS, "    skills: [[a, b]]"),
         "malformed scenario field: tasks[0].skills[0] must be a string, not list"),
        (EXPLICIT_TEAM.replace("id: W1", "id: 1"),
         "malformed scenario field: team[1].id must be a string, not int"),
        (SIMPLE.replace("hours: 8.0", "hours: 1" + "0" * 400),
         "malformed scenario field: "
         "tasks[0].hours must be a number a float can hold, not int"),
        ("team: 1M+4W\ntasks: []\n", "no tasks"),
    ], ids=["name-list", "name-null", "description-int", "skill-null", "pool-null",
            "skill-bool", "skill-list", "agent-id-int", "hours-past-float", "no-tasks"])
    def test_value_not_of_its_fields_type_is_a_one_line_error(self, tmp_path, capsys,
                                                               content, error):
        # Before they were refused, the first eight ran with the value turned
        # into text, such as the name "[1, 2]" or a skill named "none"; the
        # ninth ended in a traceback, and the last named the skill pool.
        path = tmp_path / "typed.yaml"
        path.write_text(content, encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 5
        assert capsys.readouterr().err == f"scenario error: {error}\n"
        assert not out.exists()

    def test_team_label_beside_a_shorthand_reaches_the_report(self, tmp_path):
        # It was dropped, and the report named the shorthand.
        path = tmp_path / "labelled.yaml"
        path.write_text(SIMPLE.replace("team: 1M+4W\n", "team: 1M+4W\nteam_label: foo\n"),
                        encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        assert (out / "report.txt").read_text(encoding="utf-8").startswith("config: foo\n")
        assert parse_scenario(out / "scenario.yaml").team_label == "foo"

    def test_team_id_with_a_non_decimal_digit_runs(self, tmp_path, capsys):
        # `²` is a digit to `str.isdigit` but not to the id sort's pattern; the
        # sort made an int of it, and `run` ended in a traceback (exit 1).
        path = tmp_path / "superscript.yaml"
        path.write_text(EXPLICIT_TEAM.replace("{id: W1,", "{id: W1\u00b2,"),
                        encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        workers = {event["agent"] for event in TraceLog.read(out / "trace.jsonl").events
                   if event["kind"] == "af_update"}
        assert workers == {"W1\u00b2", "W2"}
        assert main(["report", "--run", str(out)]) == 0

    @pytest.mark.parametrize("hours", [".nan", ".inf"])
    def test_non_finite_hours_are_a_one_line_error(self, tmp_path, capsys, hours):
        # Before they were rejected, such hours ran to the step cap (exit 2).
        path = tmp_path / "endless.yaml"
        path.write_text(APPENDIX_STYLE.replace("hours: 8.0", f"hours: {hours}"),
                        encoding="utf-8")
        out = tmp_path / "o"
        code = main(["run", "--scenario", str(path), "--out", str(out)])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("scenario error: non-finite effort: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("hours,kind", [
        ('"8"', "str"), ("true", "bool"), ("[8]", "list"), ("null", "NoneType"),
    ], ids=["string", "bool", "list", "null"])
    def test_hours_not_a_number_are_a_one_line_error(self, tmp_path, capsys, hours,
                                                     kind):
        # Before they were refused, `"8"` ran as 8 h and `true` as 1 h.
        path = tmp_path / "typed.yaml"
        path.write_text(APPENDIX_STYLE.replace("hours: 8.0", f"hours: {hours}"),
                        encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 5
        assert capsys.readouterr().err == (
            "scenario error: malformed scenario field: "
            f"tasks[0].hours must be a number, not {kind}\n")
        assert not out.exists()

    @pytest.mark.parametrize("hours", ["8", "8.0", "8.0e+0"])
    def test_integer_and_float_hours_run(self, hours):
        scenario = parse_scenario_text(APPENDIX_STYLE.replace("hours: 8.0",
                                                              f"hours: {hours}"))
        assert scenario.tasks[0].estimated_hours == 8.0

    @pytest.mark.parametrize("team", [
        APPENDIX_STYLE.replace("team: 1M+4W", "team: 1M+0W"),
        re.sub(r"  - \{id: W.*\n", "", EXPLICIT_TEAM)], ids=["shorthand", "list"])
    def test_team_without_a_worker_is_a_one_line_error(self, tmp_path, capsys,
                                                        team):
        # Before it was rejected, such a team passed validation and `run`
        # ended in a planner traceback (exit 1), leaving a partial trace.
        path = tmp_path / "alone.yaml"
        path.write_text(team, encoding="utf-8")
        out = tmp_path / "o"
        code = main(["run", "--scenario", str(path), "--out", str(out)])
        assert code == 5
        assert capsys.readouterr().err == "scenario error: no worker\n"
        assert not out.exists()

    @pytest.mark.parametrize("team,agents", [
        ("1M+99999999999W", 100_000_000_000),
        ("99999999999M+1W", 100_000_000_000),
        (f"1M+{config.MAX_SHORTHAND_AGENTS}W", config.MAX_SHORTHAND_AGENTS + 1),
    ], ids=["workers", "managers", "one-over"])
    def test_huge_team_shorthand_is_a_one_line_error(self, tmp_path, capsys,
                                                     monkeypatch, team, agents):
        # The parent commit built agents until memory ran out. The bound is
        # checked before any agent is built: building one here raises.
        def refuse(*args, **kwargs):
            raise AssertionError("an agent was built")

        monkeypatch.setattr(config, "AgentProfile", refuse)
        path = tmp_path / "huge.yaml"
        path.write_text(APPENDIX_STYLE.replace("team: 1M+4W", f"team: {team}"),
                        encoding="utf-8")
        out = tmp_path / "o"
        code = main(["run", "--scenario", str(path), "--out", str(out),
                     "--max-steps", "0"])
        assert capsys.readouterr().err == (
            f"scenario error: team shorthand '{team}' has {agents} agents, more "
            f"than {config.MAX_SHORTHAND_AGENTS}\n")
        assert code == 5
        assert not out.exists()

    def test_deeply_nested_field_is_a_one_line_error(self, tmp_path, capsys):
        depth = 20_000
        path = tmp_path / "deep.yaml"
        path.write_text(re.sub(r"description: .*", f"description: {'[' * depth}"
                               f"{']' * depth}", APPENDIX_STYLE), encoding="utf-8")
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("scenario error: malformed scenario field: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("out", ["file/sub", "file", "taken"],
                             ids=["under-a-file", "is-a-file", "trace-is-a-dir"])
    def test_unwritable_out_is_a_one_line_error(self, scenario_file, tmp_path,
                                                capsys, out):
        (tmp_path / "file").write_text("x", encoding="utf-8")
        (tmp_path / "taken" / "trace.jsonl").mkdir(parents=True)
        code = main(["run", "--scenario", str(scenario_file),
                     "--out", str(tmp_path / out)])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1

    def test_unwritable_out_fails_at_the_first_event(self, scenario_file, tmp_path,
                                                     capsys, monkeypatch):
        # The error comes before a second step is simulated, not after the run.
        steps = []
        step = Simulation.step

        def counting(sim):
            steps.append(sim.world.clock.step)
            step(sim)

        monkeypatch.setattr(Simulation, "step", counting)
        (tmp_path / "file").write_text("x", encoding="utf-8")
        code = main(["run", "--scenario", str(scenario_file),
                     "--out", str(tmp_path / "file" / "sub")])
        assert code == 5
        assert capsys.readouterr().err.startswith("output error: ")
        assert steps == [0]

    def test_run_that_raises_midway_leaves_a_partial_trace(self, scenario_file,
                                                           tmp_path, capsys,
                                                           monkeypatch):
        step = Simulation.step

        def failing(sim):
            if sim.world.clock.step == 5:
                raise RuntimeError("step 5 failed")
            step(sim)

        monkeypatch.setattr(Simulation, "step", failing)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="step 5 failed"):
            main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        monkeypatch.undo()
        lines = (out / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines and json.loads(lines[-1])["step"] == 4
        assert sorted(p.name for p in out.iterdir()) == ["trace.jsonl"]
        assert main(["report", "--run", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("run directory missing ") and err.count("\n") == 1

    def test_run_that_raises_midway_removes_an_earlier_runs_outputs(
            self, tmp_path, capsys, monkeypatch):
        # `report` must not fold the partial trace under the earlier run's
        # scenario, nor find the earlier run's report beside it.
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(SCENARIOS / "medium.yaml"),
                     "--out", str(out)]) == 0
        step = Simulation.step

        def failing(sim):
            if sim.world.clock.step == 5:
                raise RuntimeError("step 5 failed")
            step(sim)

        monkeypatch.setattr(Simulation, "step", failing)
        with pytest.raises(RuntimeError, match="step 5 failed"):
            main(["run", "--scenario", str(SCENARIOS / "simple.yaml"),
                  "--out", str(out)])
        monkeypatch.undo()
        lines = (out / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines and json.loads(lines[-1])["step"] == 4
        assert sorted(p.name for p in out.iterdir()) == ["trace.jsonl"]
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("run directory missing ") and err.count("\n") == 1

    def test_zero_steps_leaves_an_earlier_run_unchanged(self, scenario_file,
                                                        tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        before = {p.name: (p.stat().st_ino, p.read_bytes()) for p in out.iterdir()}
        assert main(["run", "--scenario", str(SCENARIOS / "medium.yaml"),
                     "--out", str(out), "--max-steps", "0"]) == 4
        after = {p.name: (p.stat().st_ino, p.read_bytes()) for p in out.iterdir()}
        assert after == before

    def test_run_into_a_used_directory_writes_what_a_fresh_run_writes(
            self, scenario_file, tmp_path, capsys):
        names = ("trace.jsonl", "scenario.yaml", "report.txt", "metrics.csv")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        main(["run", "--scenario", str(scenario_file), "--policy", "c2c_heuristic",
              "--out", str(out)])
        old = {name: (out / name).read_bytes() for name in names}
        main(["run", "--scenario", str(scenario_file), "--policy", "no_comm",
              "--out", str(out)])
        main(["run", "--scenario", str(scenario_file), "--policy", "no_comm",
              "--out", str(fresh)])
        for name in names:
            assert (out / name).read_bytes() == (fresh / name).read_bytes() != old[name]

    def test_outputs_replace_links_instead_of_writing_through(self, scenario_file,
                                                             tmp_path, capsys):
        """`run`, `report` and `compare` write every output as a new file: an
        output that is a symbolic link is replaced, and the file it named is
        left as it was. Before, each was truncated and written through."""
        out, grid = tmp_path / "out", tmp_path / "grid"

        def link(directory, *names):
            directory.mkdir(exist_ok=True)
            for name in names:
                target = tmp_path / f"{directory.name}-{name}"
                target.write_text("kept\n", encoding="utf-8")
                (directory / name).unlink(missing_ok=True)
                (directory / name).symlink_to(target)

        def replaced(directory, *names):
            for name in names:
                assert not (directory / name).is_symlink()
                assert (directory / name).read_text(encoding="utf-8") != "kept\n"
                assert (tmp_path / f"{directory.name}-{name}").read_text(
                    encoding="utf-8") == "kept\n"

        outputs = ("trace.jsonl", "report.txt", "metrics.csv")
        link(out, *outputs)
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 0
        replaced(out, *outputs)
        link(out, "report.txt", "metrics.csv")
        assert main(["report", "--run", str(out)]) == 0
        replaced(out, "report.txt", "metrics.csv")
        link(grid, "compare.txt", "compare.csv")
        assert main(["compare", "--scenario", str(scenario_file), "--policies",
                     "no_comm,c2c_heuristic", "--out", str(grid)]) == 0
        replaced(grid, "compare.txt", "compare.csv")

    def test_negative_step_cap_is_a_usage_error(self, scenario_file, tmp_path,
                                                capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scenario", str(scenario_file), "--out", str(out),
                  "--max-steps", "-3"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --max-steps: must be 0 or more, got '-3'\n")
        assert not out.exists()

    @pytest.mark.parametrize("hours", ["0", "-1", "nan", "inf"])
    def test_baseline_hours_not_above_zero_is_a_usage_error(
            self, scenario_file, tmp_path, capsys, hours):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scenario", str(scenario_file), "--out", str(out),
                  "--baseline-hours", hours])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --baseline-hours: must be a finite number above 0, "
            f"got '{hours}'\n")
        assert not out.exists()

    @pytest.mark.parametrize("temperature", ["nan", "inf", "-5"])
    def test_temperature_not_finite_and_nonnegative_is_a_usage_error(
            self, scenario_file, tmp_path, capsys, temperature):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scenario", str(scenario_file), "--out", str(out),
                  "--temperature", temperature])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --temperature: must be a finite number, 0 or more, "
            f"got '{temperature}'\n")
        assert not out.exists()

    def test_zero_temperature_is_accepted(self, scenario_file, tmp_path):
        assert main(["run", "--scenario", str(scenario_file),
                     "--out", str(tmp_path / "out"), "--temperature", "0"]) == 0

    def test_trace_is_valid_jsonl(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        for line in (out / "trace.jsonl").read_text().splitlines():
            record = json.loads(line)
            assert {"step", "seq", "kind"} <= record.keys()

    def test_policy_override_recorded_in_snapshot(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out),
              "--policy", "fixed_steps"])
        snapshot = parse_scenario(out / "scenario.yaml")
        assert snapshot.policy_name == "fixed_steps"


class TestCliCompare:
    def test_three_policy_grid(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--scenario", str(scenario_file),
                     "--policies", "no_comm,fixed_steps,c2c_heuristic",
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        for column in ("no_comm", "fixed_steps", "c2c_heuristic"):
            assert column in text
        assert "speedup_vs_first" in text
        csv_text = (out / "compare.csv").read_text(encoding="utf-8")
        rows = list(csv.reader(csv_text.splitlines()))
        assert len(rows) == 4  # header + one per policy

    def test_baseline_hours_is_not_a_compare_flag(self, scenario_file, tmp_path):
        # compare measures speedup against its first policy, not a baseline.
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--scenario", str(scenario_file),
                  "--policies", "no_comm,c2c_heuristic", "--out", str(tmp_path / "x"),
                  "--baseline-hours", "20"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flags", [
        ("--policies", "no_comm,c2c_llm"),
        ("--policies", "no_comm,c2c_heuristic", "--evaluator", "llm"),
    ], ids=["llm-policy", "llm-evaluator"])
    def test_llm_mode_without_endpoint_exits_3(self, scenario_file, tmp_path,
                                               capsys, flags):
        out = tmp_path / "cmp"
        code = main(["compare", "--scenario", str(scenario_file), *flags,
                     "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == \
            "llm-backed mode requires --endpoint and --model\n"
        assert not out.exists()

    def test_single_policy_is_usage_error(self, scenario_file, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--scenario", str(scenario_file),
                  "--policies", "no_comm", "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("policies", ["no_comm,no_comm",
                                          "no_comm,c2c_heuristic,no_comm"])
    def test_repeated_policy_is_usage_error(self, scenario_file, tmp_path, capsys,
                                            policies):
        out = tmp_path / "cmp"
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--scenario", str(scenario_file),
                  "--policies", policies, "--out", str(out)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(
            "\nteamsim compare: error: argument --policies: policy given twice: "
            "no_comm\n")
        assert not out.exists()

    @pytest.mark.parametrize("policies", ["no_comm", "no_comm,bogus",
                                          "no_comm,no_comm"])
    def test_policy_list_error_prints_the_compare_usage(
            self, scenario_file, tmp_path, capsys, policies):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--scenario", str(scenario_file),
                  "--policies", policies, "--out", str(tmp_path / "cmp")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: teamsim compare [-h] ")
        assert err.splitlines()[-1].startswith(
            "teamsim compare: error: argument --policies: ")

    def test_zero_steps_is_a_one_line_error(self, scenario_file, tmp_path, capsys):
        code = main(["compare", "--scenario", str(scenario_file),
                     "--policies", "no_comm,c2c_heuristic",
                     "--out", str(tmp_path / "cmp"), "--max-steps", "0"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("metrics error: ") and err.count("\n") == 1

    def test_malformed_scenario_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("team: [unclosed\n", encoding="utf-8")
        code = main(["compare", "--scenario", str(path),
                     "--policies", "no_comm,c2c_heuristic",
                     "--out", str(tmp_path / "cmp")])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and err.count("\n") == 1

    def test_unwritable_out_is_a_one_line_error(self, scenario_file, tmp_path,
                                                capsys):
        (tmp_path / "file").write_text("x", encoding="utf-8")
        code = main(["compare", "--scenario", str(scenario_file),
                     "--policies", "no_comm,c2c_heuristic",
                     "--out", str(tmp_path / "file" / "sub")])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1

    def test_compare_deterministic_across_invocations(self, scenario_file,
                                                      tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["compare", "--scenario", str(scenario_file),
              "--policies", "no_comm,c2c_heuristic", "--out", str(out1)])
        first = capsys.readouterr().out
        main(["compare", "--scenario", str(scenario_file),
              "--policies", "no_comm,c2c_heuristic", "--out", str(out2)])
        second = capsys.readouterr().out
        assert first == second
        assert (out1 / "compare.csv").read_text() == \
            (out2 / "compare.csv").read_text()


def _simple_heuristic_run(tmp_path):
    """A `simple`/`c2c_heuristic` run's directory, trace path and records."""
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(SCENARIOS / "simple.yaml"),
                 "--policy", "c2c_heuristic", "--out", str(out)]) == 0
    path = out / "trace.jsonl"
    return out, path, [json.loads(line) for line in
                       path.read_text(encoding="utf-8").splitlines()]


def _write_records(path, records):
    path.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n"
                            for r in records), encoding="utf-8")


def _every_cost_at_1e308(records):
    for record in records:
        if record["kind"] == "message_sent":
            record["cost_h"] = 1e308


def _first_costs_infinite_both_ways(records):
    first, second = [r for r in records if r["kind"] == "message_sent"][:2]
    first["cost_h"], second["cost_h"] = math.inf, -math.inf


def _first_of_kind_set(kind, field, value, records):
    next(r for r in records if r["kind"] == kind)[field] = value


def _last_action_at_a_huge_step(records):
    [r for r in records if r["kind"] == "action"][-1]["step"] = 10 ** 400


def _first_reply_sent_at_a_huge_step(records):
    next(r for r in records if r["kind"] == "message_sent"
         and r["type"] == "RESPONSE")["sent_step"] = 10 ** 400

class TestCliReport:
    def test_report_recomputes_from_run_dir(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        run_report = (out / "report.txt").read_text()
        capsys.readouterr()
        code = main(["report", "--run", str(out)])
        assert code == 0
        assert (out / "report.txt").read_text() == run_report

    def test_report_keeps_the_runs_baseline_speedup(self, tmp_path, capsys):
        out = tmp_path / "out"
        medium = Path(__file__).resolve().parent.parent / "scenarios" / "medium.yaml"
        main(["run", "--scenario", str(medium), "--policy", "c2c_heuristic",
              "--out", str(out), "--baseline-hours", "20.25"])
        run_csv = (out / "metrics.csv").read_text(encoding="utf-8")
        rows = list(csv.DictReader(run_csv.splitlines()))
        assert rows[0]["speedup"] == "1.5000"
        capsys.readouterr()
        assert main(["report", "--run", str(out), "--baseline-hours", "20.25"]) == 0
        assert (out / "metrics.csv").read_text(encoding="utf-8") == run_csv
        assert "speedup: 1.50" in capsys.readouterr().out

    def test_zero_baseline_hours_is_a_usage_error(self, scenario_file, tmp_path,
                                                  capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        report = (out / "report.txt").read_text(encoding="utf-8")
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--run", str(out), "--baseline-hours", "0"])
        assert excinfo.value.code == 2
        assert "error: argument --baseline-hours: " in capsys.readouterr().err
        assert (out / "report.txt").read_text(encoding="utf-8") == report

    def test_report_missing_dir(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path / "ghost")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("run directory missing ") and err.count("\n") == 1

    def test_truncated_trace_is_a_one_line_error(self, scenario_file, tmp_path,
                                                 capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        lines = (out / "trace.jsonl").read_text(encoding="utf-8").splitlines(True)
        (out / "trace.jsonl").write_text("".join(lines[:2]) + lines[2][:15],
                                         encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("trace error: ") and err.count("\n") == 1
        assert "line 3" in err

    def test_unreadable_trace_is_a_one_line_error(self, scenario_file, tmp_path,
                                                  capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        (out / "trace.jsonl").unlink()
        (out / "trace.jsonl").mkdir()
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("trace error: unreadable trace file: ")
        assert err.count("\n") == 1

    def test_malformed_scenario_snapshot_is_a_one_line_error(self, scenario_file,
                                                             tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        (out / "scenario.yaml").write_text("team: [unclosed\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and err.count("\n") == 1

    def test_unwritable_run_dir_is_a_one_line_error(self, scenario_file, tmp_path,
                                                    capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        (out / "report.txt").unlink()
        (out / "report.txt").mkdir()
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field", ["type", "thread_id", "sent_step", "cost_h"])
    def test_event_without_a_field_is_a_one_line_error(self, tmp_path, capsys,
                                                       field):
        out = tmp_path / "out"
        main(["run", "--scenario", str(SCENARIOS / "simple.yaml"),
              "--policy", "c2c_heuristic", "--out", str(out)])
        path = out / "trace.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(True)
        number = next(i for i, line in enumerate(lines)
                      if json.loads(line)["kind"] == "message_sent")
        record = json.loads(lines[number])
        del record[field]
        lines[number] = json.dumps(record, separators=(",", ":")) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 5
        err = capsys.readouterr().err
        assert err == (f"trace error: {path}: event {number} (message_sent at step "
                       f"{record['step']}) lacks field '{field}'\n")

    @pytest.mark.parametrize("kind,field,expected", [
        ("task_done", "boundary", "int"),
        ("af_update", "new", "a number"),
        ("task_done", "root", "bool"),
    ])
    def test_event_with_a_wrongly_typed_field_is_a_one_line_error(
            self, tmp_path, capsys, kind, field, expected):
        out = tmp_path / "out"
        main(["run", "--scenario", str(SCENARIOS / "simple.yaml"),
              "--policy", "c2c_heuristic", "--out", str(out)])
        path = out / "trace.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(True)
        # The root's completion, or the last alignment change: one the fold
        # reads only when it closes the samples, after the last event.
        numbers = [i for i, line in enumerate(lines)
                   if json.loads(line)["kind"] == kind
                   and json.loads(line).get("root", True)]
        number = numbers[-1]
        record = json.loads(lines[number])
        record[field] = "x"
        lines[number] = json.dumps(record, separators=(",", ":")) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 5
        err = capsys.readouterr().err
        assert err == (f"trace error: {path}: event {number} ({kind} at step "
                       f"{record['step']}) has field '{field}' of type str, "
                       f"not {expected}\n")

    @pytest.mark.parametrize("kind,edit,detail", [
        ("action", lambda r: r.update(remaining="x"),
         "has field 'remaining' of type str, not int"),
        ("progress", lambda r: r.pop("hours"), "lacks field 'hours'"),
        ("message_sent", lambda r: r.update(to=5), "has field 'to' of type int, not list"),
        ("message_sent", lambda r: r["to"].append(5), "has field 'to' holding int, not str"),
    ], ids=["remaining-str", "no-hours", "to-int", "to-holding-int"])
    def test_field_the_metrics_never_read_is_checked_too(self, tmp_path, capsys,
                                                         kind, edit, detail):
        out = tmp_path / "out"
        main(["run", "--scenario", str(SCENARIOS / "simple.yaml"),
              "--policy", "c2c_heuristic", "--out", str(out)])
        path = out / "trace.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(True)
        number = next(i for i, line in enumerate(lines)
                      if json.loads(line)["kind"] == kind)
        record = json.loads(lines[number])
        edit(record)
        lines[number] = json.dumps(record, separators=(",", ":")) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 5
        err = capsys.readouterr().err
        assert err == (f"trace error: {path}: event {number} ({kind} at step "
                       f"{record['step']}) {detail}\n")

    def test_root_done_naming_an_unknown_task_is_a_one_line_error(self, tmp_path,
                                                                  capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", str(SCENARIOS / "simple.yaml"),
              "--policy", "c2c_heuristic", "--out", str(out)])
        path = out / "trace.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(True)
        number = next(i for i, line in enumerate(lines)
                      if json.loads(line)["kind"] == "task_done"
                      and json.loads(line)["root"])
        record = json.loads(lines[number])
        record["task"] = "T99"
        lines[number] = json.dumps(record, separators=(",", ":")) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 5
        err = capsys.readouterr().err
        assert err == (f"trace error: {path}: event {number} (task_done at step "
                       f"{record['step']}) names root task 'T99', which the "
                       "scenario does not have\n")

    @pytest.mark.parametrize("step", ["3", 1.5, True, None],
                             ids=["str", "float", "bool", "null"])
    def test_event_with_a_step_that_is_not_an_integer_is_a_one_line_error(
            self, tmp_path, capsys, step):
        out = tmp_path / "out"
        main(["run", "--scenario", str(SCENARIOS / "simple.yaml"),
              "--policy", "c2c_heuristic", "--out", str(out)])
        path = out / "trace.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(True)
        number = next(i for i, line in enumerate(lines)
                      if json.loads(line)["kind"] == "action" and i > 0)
        record = json.loads(lines[number])
        record["step"] = step
        lines[number] = json.dumps(record, separators=(",", ":")) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 5
        err = capsys.readouterr().err
        assert err == (f"trace error: {path}: line {number + 1}: field 'step' of "
                       f"type {type(step).__name__}, not int\n")

    @pytest.mark.parametrize("bad", ["remaining-str", "deep"])
    def test_bad_line_past_the_first_chunk_is_a_one_line_error(self, tmp_path,
                                                               capsys, each_codec,
                                                               bad):
        # `report` checks the trace a chunk of lines at a time; an error in a
        # later chunk still names its event or line, after the chunks before
        # it were folded.
        out = tmp_path / "out"
        main(["run", "--scenario", str(SCENARIOS / "complex.yaml"),
              "--policy", "no_comm", "--out", str(out)])
        path = out / "trace.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        start = 0
        for number, line in enumerate(lines):
            if start > trace._CHUNK_BYTES and json.loads(line)["kind"] == "action":
                break
            start += len(line)
        else:
            pytest.fail("the trace fits in one chunk")
        record = json.loads(lines[number])
        if bad == "deep":
            lines[number] = b"[" * 5000 + b"]" * 5000 + b"\n"
            detail = f"line {number + 1}: JSON nested too deeply"
        else:
            record["remaining"] = str(record["remaining"])
            lines[number] = json.dumps(record, separators=(",", ":")).encode() + b"\n"
            detail = (f"event {number} (action at step {record['step']}) has field "
                      "'remaining' of type str, not int")
        path.write_bytes(b"".join(lines))
        capsys.readouterr()
        for _ in each_codec():
            assert main(["report", "--run", str(out)]) == 5
            assert capsys.readouterr().err == f"trace error: {path}: {detail}\n"

    @pytest.mark.parametrize("where", ["step-30", "past-the-first-chunk"])
    @pytest.mark.parametrize("edit", ["duplicated", "dropped", "swapped"])
    def test_line_duplicated_dropped_or_moved_is_a_one_line_error(
            self, tmp_path, capsys, each_codec, edit, where):
        # Every field of every line is still well formed: only the `seq`s,
        # which count the lines, show the edit. The parent commit renumbered
        # the events as it read them and wrote the same report (exit 0).
        out = tmp_path / "out"
        main(["run", "--scenario", str(SCENARIOS / "medium.yaml"),
              "--policy", "c2c_heuristic", "--out", str(out)])
        path = out / "trace.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        records = [json.loads(line) for line in lines]
        start = 0
        for number, record in enumerate(records):
            if record["kind"] == "action" and (
                    record["step"] == 30 if where == "step-30"
                    else start > trace._CHUNK_BYTES):
                break
            start += len(lines[number])
        else:
            pytest.fail(f"no action line {where}")
        if edit == "duplicated":
            lines.insert(number, lines[number])
            number += 1
            found = number - 1
        elif edit == "dropped":
            del lines[number]
            found = number + 1
        else:
            lines[number:number + 2] = lines[number + 1], lines[number]
            found = number + 1
        record = records[found]
        path.write_bytes(b"".join(lines))
        capsys.readouterr()
        for _ in each_codec():
            assert main(["report", "--run", str(out)]) == 5
            assert capsys.readouterr().err == (
                f"trace error: {path}: event {number} ({record['kind']} at step "
                f"{record['step']}) has seq {found}, not {number}\n")

    @pytest.mark.parametrize("trace_text", [
        "",
        '{"step":0,"seq":0,"kind":"warning","source":"delivery","detail":"x"}\n',
    ], ids=["empty", "no-actions"])
    def test_trace_without_steps_is_a_one_line_error(self, scenario_file, tmp_path,
                                                      capsys, trace_text):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        (out / "trace.jsonl").write_text(trace_text, encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("metrics error: ") and err.count("\n") == 1

    def test_af_update_steps_going_back_are_a_one_line_error(self, scenario_file,
                                                             tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        action = '"kind":"action","agent":"W1","action":"work","target":"T1.1",'
        lines = [
            '{"step":0,"seq":0,' + action + '"remaining":3}',
            '{"step":1,"seq":1,' + action + '"remaining":2}',
            '{"step":1,"seq":2,"kind":"af_update","agent":"W1","task":"T1.1",'
            '"old":0.4,"delta":0.1,"new":0.5,"cause":"m1"}',
            '{"step":0,"seq":3,"kind":"af_update","agent":"W1","task":"T1.1",'
            '"old":null,"delta":null,"new":0.4,"cause":"m2"}',
        ]
        (out / "trace.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == "metrics error: af_update at step 0 follows one at step 1\n"


    @pytest.mark.parametrize("edit,detail", [
        (_every_cost_at_1e308, "communication cost exceeds the float range"),
        (_last_action_at_a_huge_step, "alignment score exceeds the float range"),
        (_first_reply_sent_at_a_huge_step, "reply latency exceeds the float range"),
    ], ids=["cost", "last-step", "latency"])
    def test_sum_beyond_the_float_range_is_a_one_line_error(self, tmp_path,
                                                            capsys, edit, detail):
        # The parent commit ended each of these in an OverflowError or
        # ValueError traceback (exit 1).
        out, path, records = _simple_heuristic_run(tmp_path)
        edit(records)
        _write_records(path, records)
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 4
        assert capsys.readouterr().err == f"metrics error: {detail}\n"

    @pytest.mark.parametrize("edit,field,shown", [
        (functools.partial(_first_of_kind_set, "message_sent", "cost_h", math.nan),
         "cost_h", "nan"),
        (functools.partial(_first_of_kind_set, "message_sent", "cost_h", math.inf),
         "cost_h", "inf"),
        # The first infinite cost ends the read: the sum with the second,
        # -inf, is never taken.
        (_first_costs_infinite_both_ways, "cost_h", "inf"),
        (functools.partial(_first_of_kind_set, "af_update", "new", math.nan),
         "new", "nan"),
        (functools.partial(_first_of_kind_set, "af_update", "new", -math.inf),
         "new", "-inf"),
    ], ids=["cost-nan", "cost-inf", "inf-minus-inf", "af-nan", "af-minus-inf"])
    def test_non_finite_number_is_a_one_line_error(self, tmp_path, capsys,
                                                   each_codec, edit, field, shown):
        # The parent commit printed `communication_cost_h: nan` or `inf`, or
        # an alignment of nan, and exited 0; for inf and -inf costs it
        # exited 4 with `metrics error: communication cost is undefined`.
        out, path, records = _simple_heuristic_run(tmp_path)
        edit(records)
        number, record = next((i, r) for i, r in enumerate(records)
                              if not -math.inf < r.get(field, 0) < math.inf)
        _write_records(path, records)
        capsys.readouterr()
        for _ in each_codec():
            assert main(["report", "--run", str(out)]) == 5
            assert capsys.readouterr().err == (
                f"trace error: {path}: event {number} ({record['kind']} at step "
                f"{record['step']}) holds a {field!r} of {shown}, not a finite number\n")

    def test_boundary_too_large_for_hours_is_a_one_line_error(self, tmp_path,
                                                               capsys):
        out, path, records = _simple_heuristic_run(tmp_path)
        number, record = next((i, r) for i, r in enumerate(records)
                              if r["kind"] == "task_done" and r["root"])
        record["boundary"] = 10 ** 400
        _write_records(path, records)
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 5
        assert capsys.readouterr().err == (
            f"trace error: {path}: event {number} (task_done at step "
            f"{record['step']}) holds a 'boundary' too large to become hours\n")


class TestSharedParser:
    """One parser, built when `teamsim.cli` is imported, parses every call."""

    def test_calls_build_no_parser(self, tmp_path):
        script = textwrap.dedent("""
            import argparse, contextlib, io, json, sys
            from teamsim.cli import main

            built = []
            init = argparse.ArgumentParser.__init__

            def counting(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                init(self, *args, **kwargs)

            argparse.ArgumentParser.__init__ = counting
            scenario, out = sys.argv[1:]
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [
                    main(["run", "--scenario", scenario, "--out", out]),
                    main(["report", "--run", out]),
                    main(["compare", "--scenario", scenario,
                          "--policies", "no_comm,fixed_steps",
                          "--out", out + "-cmp"]),
                ]
            print(json.dumps([codes, built]))
        """)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        result = subprocess.run(
            [sys.executable, "-c", script, str(SCENARIOS / "simple.yaml"),
             str(tmp_path / "run")],
            env=env, capture_output=True, text=True, timeout=120, check=False)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [[0, 0, 0], []]

    def test_calls_are_independent(self, scenario_file, tmp_path, monkeypatch,
                                   capsys):
        configs = []
        monkeypatch.setattr(cli, "cmd_run", lambda config: configs.append(config) or 0)
        run = ["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "o")]
        assert main([*run, "--policy", "fixed_steps", "--parallel-decide",
                     "--baseline-hours", "20", "--max-steps", "7"]) == 0
        assert main(run) == 0
        assert configs == [
            RunConfig(str(scenario_file), policy="fixed_steps",
                      out_dir=str(tmp_path / "o"), max_steps=7,
                      baseline_hours=20.0, parallel_decide=True),
            RunConfig(str(scenario_file), out_dir=str(tmp_path / "o")),
        ]
        monkeypatch.undo()
        with pytest.raises(SystemExit) as excinfo:
            main([*run, "--max-steps", "-1"])
        assert excinfo.value.code == 2
        assert main(run) == 0
        assert (tmp_path / "o" / "trace.jsonl").exists()

    def test_help_is_unchanged_by_calls(self, scenario_file, tmp_path):
        def helps() -> list[str]:
            texts = []
            for command in ([], ["run"], ["compare"], ["report"]):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        pytest.raises(SystemExit) as excinfo:
                    main([*command, "--help"])
                assert excinfo.value.code == 0
                texts.append(stdout.getvalue())
            return texts

        before = helps()
        out = str(tmp_path / "o")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            main(["run", "--scenario", str(scenario_file), "--out", out,
                  "--policy", "c2c_heuristic", "--baseline-hours", "5"])
            main(["report", "--run", out, "--baseline-hours", "5"])
            main(["compare", "--scenario", str(scenario_file),
                  "--policies", "no_comm,c2c_heuristic", "--out", out + "-cmp"])
            with pytest.raises(SystemExit):
                main(["compare", "--scenario", str(scenario_file),
                      "--policies", "no_comm,no_comm"])
        assert helps() == before
        assert all("usage: teamsim" in text for text in before)
