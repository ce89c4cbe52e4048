"""Scenario file parsing, team shorthand expansion, and scenario emission.

Scenario files are YAML with a team block (either the "1M+4W" shorthand or an
explicit agent list) and a tasks block of description/hours/skills entries.
Round trip holds for a parsed scenario: parse(emit(scenario)) == scenario.
The emitted layout and the shipped files' hand-written style are read line by
line; PyYAML is imported only to read any other text or write another layout.
"""

from __future__ import annotations

import math
import re
from functools import cache
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple

from .model import (AgentProfile, Role, Scenario, ScenarioError, TaskSpec,
                    _new_tuple, validate_scenario)

MANAGER_SKILLS = ("planning", "coordination")
WORKER_SKILLS_PER_AGENT = 3
WORKER_SKILL_STRIDE = 2
# The most agents a team shorthand may expand to, far above the widest team
# the benchmarks run (1M+256W); a larger count is refused before any agent is
# built, so a typo such as 1M+99999999999W fails at once instead of filling
# memory.
MAX_SHORTHAND_AGENTS = 10_000

# The scenario format, one table per level: each key a level may hold, the
# YAML types its value may take and whether it must be given. `type(value)`
# must be one of the types, so a bool is not a number. `emit_scenario` writes
# every key but `seed`, which is accepted with any value and ignored.
_TEXT = ((str,), "a string")
_NUMBER = ((int, float), "a number")
_SKILLS = ((list,), "a list of skills")  # of strings, lowercased when read
_TOP_FIELDS = {"name": (_TEXT, False),
               "team": (((str, list), "a team shorthand or a list of agents"), True),
               "team_label": (_TEXT, False), "policy": (_TEXT, False),
               "evaluator": (_TEXT, False), "skill_pool": (_SKILLS, False),
               "tasks": (((list,), "a list of tasks"), True), "seed": (None, False)}
_TASK_FIELDS = {"description": (_TEXT, True), "hours": (_NUMBER, True),
                "skills": (_SKILLS, False)}
_AGENT_FIELDS = {"id": (_TEXT, True), "name": (_TEXT, False), "role": (_TEXT, True),
                 "skills": (_SKILLS, True)}


def _represent_str(dumper, data: str):
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


_MERGE = "tag:yaml.org,2002:merge"
_KEY_OF = attrgetter("tag", "value")


def _field_path(root, target) -> str:
    """Where `target`, a PyYAML node under `root`, sits, as field errors name
    it: "" at the top level, "tasks[0]." in the first task."""
    stack, seen = [(root, "")], set()
    while stack:
        node, where = stack.pop()
        if node is target:
            return where
        if id(node) not in seen:  # an alias may close a cycle
            seen.add(id(node))
            if node.id == "mapping":
                stack += [(value, f"{where}{key.value}.") for key, value in node.value]
            elif node.id == "sequence":
                stack += [(item, f"{where[:-1]}[{i}].") for i, item in enumerate(node.value)]
    return ""


def _loader(base: type) -> type:
    """A subclass of the PyYAML loader `base` that refuses a mapping key given
    twice at one level, where `base` keeps the last value. A key that a merge
    (`<<`) brings in may be given again beside it."""

    def construct_document(self, node):
        self.root = node
        return base.construct_document(self, node)

    def construct_mapping(self, node, deep=False):
        # C-level passes tell the keys apart; only a repeat is looked into.
        keys = list(map(_KEY_OF, map(itemgetter(0), node.value)))
        try:
            repeated = len(set(keys)) < len(keys)
        except TypeError:  # a key that is not a scalar, which `base` refuses
            repeated = False
        if repeated:
            twice = [value for i, (tag, value) in enumerate(keys)
                     if tag != _MERGE and (tag, value) in keys[:i]]
            if twice:
                raise ScenarioError(
                    f"duplicate field: {_field_path(self.root, node)}{twice[0]}")
        return base.construct_mapping(self, node, deep)

    return type(base.__name__, (base,), {"construct_document": construct_document,
                                         "construct_mapping": construct_mapping})


@cache
def _pyyaml() -> tuple[type, type]:
    """PyYAML's loader and dumper, imported on the first call: libyaml's where PyYAML
    has it, else pure-Python (the C emitter escapes non-BMP text; both read it back)."""
    import yaml
    return (_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)),
            _dumper(getattr(yaml, "CSafeDumper", yaml.SafeDumper)))


# `yaml.resolver.Resolver`'s implicit resolvers, verbatim, for `_resolved`.
_IMPLICIT = (
    ('tag:yaml.org,2002:bool', r'''^(?:yes|Yes|YES|no|No|NO
                    |true|True|TRUE|false|False|FALSE
                    |on|On|ON|off|Off|OFF)$''', re.X, list('yYnNtTfFoO')),
    ('tag:yaml.org,2002:float', r'''^(?:[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+][0-9]+)?
                    |\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?
                    |[-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*
                    |[-+]?\.(?:inf|Inf|INF)
                    |\.(?:nan|NaN|NAN))$''', re.X, list('-+0123456789.')),
    ('tag:yaml.org,2002:int', r'''^(?:[-+]?0b[0-1_]+
                    |[-+]?0[0-7_]+
                    |[-+]?(?:0|[1-9][0-9_]*)
                    |[-+]?0x[0-9a-fA-F_]+
                    |[-+]?[1-9][0-9_]*(?::[0-5]?[0-9])+)$''', re.X, list('-+0123456789')),
    ('tag:yaml.org,2002:merge', r'^(?:<<)$', 0, ['<']),
    ('tag:yaml.org,2002:null', r'''^(?: ~
                    |null|Null|NULL
                    | )$''', re.X, ['~', 'n', 'N', '']),
    ('tag:yaml.org,2002:timestamp', r'''^(?:[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]
                    |[0-9][0-9][0-9][0-9] -[0-9][0-9]? -[0-9][0-9]?
                     (?:[Tt]|[ \t]+)[0-9][0-9]?
                     :[0-9][0-9] :[0-9][0-9] (?:\.[0-9]*)?
                     (?:[ \t]*(?:Z|[-+][0-9][0-9]?(?::[0-9][0-9])?))?)$''', re.X,
     list('0123456789')),
    ('tag:yaml.org,2002:value', r'^(?:=)$', 0, ['=']),
    ('tag:yaml.org,2002:yaml', r'^(?:!|&|\*)$', 0, list('!&*')),
)
_RESOLVERS = {}  # first character -> compiled patterns, filled on first use


def _resolved(word: str) -> bool:
    """Whether PyYAML reads the plain scalar `word` as another type than a string."""
    if not _RESOLVERS:
        for _, pattern, flags, first in _IMPLICIT:
            for char in first:
                _RESOLVERS.setdefault(char, []).append(re.compile(pattern, flags))
    return any(pattern.match(word) for pattern in _RESOLVERS.get(word[:1], ()))


# `emit_scenario`'s layout is written and read below in one pass, without
# PyYAML's Python calls per node, when every string is printable ASCII with no
# leading, trailing or doubled space, no leading indicator and no `...` start,
# and every hours value is a finite float. The bytes are `yaml.dump`'s: a
# string is plain unless it holds ": " or " #", ends in ":" or would read back
# as another type, and single-quoted then; it folds at a space once its line
# passes `_WIDTH` columns, onto a line indented past its key.
_WIDTH = 80
_WRITABLE = r"(?![-?:,\[\]{}#&*!|>'\"%@`]|\.\.\.)[!-~](?: ?[!-~])*"


def _scalar(value: str, column: int, indent: int) -> str:
    """`value` as the dumper writes it after a key or dash that ends `column`
    characters into its line, with its leading space; ValueError for a value
    this layout does not write."""
    if type(value) is not str or re.fullmatch(_WRITABLE, value) is None:
        raise ValueError(value)
    if ": " in value or " #" in value or value[-1] == ":" or _resolved(value):
        value = "'" + value.replace("'", "''") + "'"
    if column + len(value) > _WIDTH:
        words = value.split(" ")
        value, column = words[0], column + 1 + len(words[0])
        for word in words[1:]:
            if column > _WIDTH:
                value, column = f"{value}\n{' ' * indent}{word}", indent + len(word)
            else:
                value, column = f"{value} {word}", column + 1 + len(word)
    return " " + value


def _items(key: str, values: list, pad: str) -> str:
    """The list `values` under `key`, one dashed item a line."""
    if not values:
        return f"{pad}{key}: []\n"
    return f"{pad}{key}:\n" + "".join([f"{pad}-{_scalar(value, len(pad) + 1, len(pad) + 2)}\n"
                                       for value in values])


def _write_layout(data: dict) -> str | None:
    """`emit_scenario`'s `data` as `yaml.dump` writes it, or None if a value
    is one this layout does not write."""
    try:
        text = [f"{key}:{_scalar(data[key], len(key) + 1, 2)}\n"
                for key in ("name", "policy", "evaluator")]
        text += [_items("skill_pool", data["skill_pool"], ""),
                 f"team_label:{_scalar(data['team_label'], 11, 2)}\n",
                 "team:\n" if data["team"] else "team: []\n"]
        for agent in data["team"]:
            text += [f"- id:{_scalar(agent['id'], 5, 4)}\n",
                     f"  name:{_scalar(agent['name'], 7, 4)}\n",
                     f"  role:{_scalar(agent['role'], 7, 4)}\n",
                     _items("skills", agent["skills"], "  ")]
        text.append("tasks:\n" if data["tasks"] else "tasks: []\n")
        for task in data["tasks"]:
            hours = task["hours"]
            if type(hours) is not float or not math.isfinite(hours):
                return None
            hours = repr(hours)  # as `represent_float` writes it
            if "." not in hours and "e" in hours:
                hours = hours.replace("e", ".0e", 1)
            text += [f"- description:{_scalar(task['description'], 14, 4)}\n",
                     f"  hours: {hours}\n", _items("skills", task["skills"], "  ")]
    except ValueError:
        return None
    return "".join(text)


def _read_layout(text: str) -> dict | None:
    """The data `_write_layout` wrote `text` from, read line by line, or None
    for any text that writing the data read would not give back."""
    lines, at = text.split("\n"), 0

    def scalar(prefix: str, fold: str) -> str:
        nonlocal at
        if not lines[at].startswith(prefix):
            raise ValueError(prefix)
        parts = [lines[at][len(prefix):]]
        at += 1
        while lines[at].startswith(fold):
            parts.append(lines[at][len(fold):])
            at += 1
        value = " ".join(parts)
        return value[1:-1].replace("''", "'") if value[:1] == "'" else value

    def items(key: str, pad: str, item) -> list:
        nonlocal at
        at += 1
        if lines[at - 1] == f"{pad}{key}: []":
            return []
        if lines[at - 1] != f"{pad}{key}:":
            raise ValueError(key)
        values = []
        while lines[at].startswith(f"{pad}- "):
            values.append(item())
        return values

    try:
        data = {
            "name": scalar("name: ", "  "), "policy": scalar("policy: ", "  "),
            "evaluator": scalar("evaluator: ", "  "),
            "skill_pool": items("skill_pool", "", lambda: scalar("- ", "  ")),
            "team_label": scalar("team_label: ", "  "),
            "team": items("team", "", lambda: {
                "id": scalar("- id: ", "    "), "name": scalar("  name: ", "    "),
                "role": scalar("  role: ", "    "),
                "skills": items("skills", "  ", lambda: scalar("  - ", "    "))}),
            "tasks": items("tasks", "", lambda: {
                "description": scalar("- description: ", "    "),
                "hours": float(scalar("  hours: ", "    ")),
                "skills": items("skills", "  ", lambda: scalar("  - ", "    "))}),
        }
    except (ValueError, IndexError):
        return None
    return data if _write_layout(data) == text else None


# A hand-written line: a top-level key, one opening a block of items, an item's
# first key (`  - `) or a further one (`    `), each but the second with a value.
_WORD = r"[A-Za-z0-9_][A-Za-z0-9_.+-]*"
_LINE = (rf"^(|  - |    )([A-Za-z_][A-Za-z0-9_]{{0,63}}):(?: (\"[ !#-\[\]-~]*\""
         rf"|'(?:[ -&(-~]|'')*'|\[\]|\[{_WORD}(?:, {_WORD})*\]|{_WORD}))?$")


def _read_hand_written(text: str) -> dict | None:
    """The data of a text in the hand-written style, or None for any other:
    one with a comment, a blank or folded line, a tab, a repeated key, etc."""
    def word(plain: str):  # as PyYAML reads it: a string, `0|[1-9][0-9]*` or `d+.d+`
        if not _resolved(plain):
            return plain
        if re.fullmatch(r"0|[1-9][0-9]*|[0-9]+\.[0-9]+", plain) is None:
            raise ValueError(plain)
        return float(plain) if "." in plain else int(plain)

    lines = re.findall(_LINE, text, re.M)  # a line outside the style is skipped
    if len(lines) != text.count("\n") or not text.endswith("\n"):
        return None
    data, items = {}, None  # `items`: the open block's, each a mapping
    for lead, key, value in lines:
        if not lead and items != []:
            mapping, items = data, None
        elif lead == "  - " and items is not None:
            items.append(mapping := {})
        elif lead != "    " or not items:
            return None
        if key in mapping or _resolved(key) or (not value and lead):
            return None
        try:
            mapping[key] = (
                [] if value in ("", "[]") else value[1:-1] if value[0] == '"'
                else value[1:-1].replace("''", "'") if value[0] == "'"
                else list(map(word, value[1:-1].split(", "))) if value[0] == "["
                else word(value))
        except ValueError:
            return None
        if not value:
            items = mapping[key]
    return data if items != [] else None


class RunConfig(NamedTuple):
    scenario_path: str
    policy: str | None = None
    evaluator: str | None = None
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
    overlap and every pool skill is held by at least one worker. A team of
    more than MAX_SHORTHAND_AGENTS agents is refused before any is built.
    """
    match = re.match(r"^(\d+)M\+(\d+)W$", shorthand.strip(), re.IGNORECASE)
    if match is None:
        raise ScenarioError(f"malformed team shorthand: {shorthand!r}")
    managers, workers = int(match.group(1)), int(match.group(2))
    if managers + workers > MAX_SHORTHAND_AGENTS:
        raise ScenarioError(
            f"team shorthand {shorthand.strip()!r} has {managers + workers} agents, "
            f"more than {MAX_SHORTHAND_AGENTS}")
    if not skill_pool:
        raise ScenarioError("team shorthand needs a non-empty skill pool")
    manager_skills = frozenset(MANAGER_SKILLS)
    team = [_new_tuple(AgentProfile, (f"M{m}", f"Manager {m}", Role.MANAGER,
                                      manager_skills))
            for m in range(1, managers + 1)]
    pool = [s.lower() for s in skill_pool]
    size = len(pool)
    # A pool of P skills has at most P starting offsets, so at most P
    # distinct rotations: each is built once and shared.
    rotations: dict[int, frozenset[str]] = {}
    for w in range(workers):
        start = (w * WORKER_SKILL_STRIDE) % size
        skills = rotations.get(start)
        if skills is None:
            skills = rotations[start] = frozenset(
                [pool[(start + j) % size] for j in range(WORKER_SKILLS_PER_AGENT)])
        team.append(_new_tuple(AgentProfile, (f"W{w + 1}", f"Worker {w + 1}",
                                              Role.WORKER, skills)))
    return team


def parse_scenario_text(text: str, name_hint: str = "scenario") -> Scenario:
    try:
        return _parse_scenario_text(text, name_hint)
    except ScenarioError:
        raise
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        # A value nested too deeply to read, or one no check above names.
        raise ScenarioError(f"malformed scenario field: {exc}") from exc


def _wrong_type(field: str, kind: tuple, value: object) -> ScenarioError:
    return ScenarioError(f"malformed scenario field: {field} must be {kind[1]}, "
                         f"not {type(value).__name__}")


def _read(raw: object, fields: dict, where: str) -> None:
    """`raw`, the mapping at `where` ("tasks[0]." in the first task), checked
    against its level's table: a key the table lacks, a required key not
    given and a value of a type its key does not take are refused."""
    if type(raw) is not dict:
        raise _wrong_type(where[:-1], ((dict,), "a mapping"), raw)
    for key, value in raw.items():
        if key not in fields:
            raise ScenarioError(f"unknown field: {where}{key}")
        kind = fields[key][0]
        if kind is not None and type(value) not in kind[0]:
            raise _wrong_type(f"{where}{key}", kind, value)
        if kind is _SKILLS:
            for j, skill in enumerate(value):
                if type(skill) is not str:
                    raise _wrong_type(f"{where}{key}[{j}]", _TEXT, skill)
    for key, (_, required) in fields.items():
        if required and key not in raw:
            raise ScenarioError(f"missing field: {where}{key}")


def _parse_scenario_text(text: str, name_hint: str) -> Scenario:
    data = _read_layout(text) or _read_hand_written(text)
    if data is None:
        import yaml
        try:
            data = yaml.load(text, Loader=_pyyaml()[0])
        except (yaml.YAMLError, UnicodeEncodeError) as exc:
            # libyaml encodes the text to UTF-8 first, and a lone surrogate
            # fails there; the pure-Python reader rejects it as a YAMLError.
            raise ScenarioError(f"malformed scenario syntax: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("malformed scenario: expected a mapping at top level")
    _read(data, _TOP_FIELDS, "")

    declared_pool = [s.lower() for s in data.get("skill_pool", ())]
    tasks: list[TaskSpec] = []
    for i, raw in enumerate(data["tasks"]):
        _read(raw, _TASK_FIELDS, f"tasks[{i}].")
        skills = frozenset([s.lower() for s in raw.get("skills", ())])
        unknown = skills.difference(declared_pool) if declared_pool else ()
        if unknown:
            raise ScenarioError(f"unknown skill reference in tasks[{i}]: {sorted(unknown)}")
        try:
            hours = float(raw["hours"])
        except OverflowError:
            raise _wrong_type(f"tasks[{i}].hours", (None, "a number a float can hold"),
                              raw["hours"]) from None
        tasks.append(TaskSpec(raw["description"], hours, skills))
    if not tasks:  # refused before a shorthand asks for a skill pool
        raise ScenarioError("no tasks")
    pool = declared_pool or sorted({s for t in tasks for s in t.required_skills})

    team_raw = data["team"]
    if type(team_raw) is str:
        team = expand_team_shorthand(team_raw, pool)
        derived_label = team_raw.strip()
    else:
        team = []
        for i, raw in enumerate(team_raw):
            _read(raw, _AGENT_FIELDS, f"team[{i}].")
            role = raw["role"].lower()
            if role not in (Role.MANAGER.value, Role.WORKER.value):
                raise ScenarioError(f"malformed role in team[{i}]: {raw['role']!r}")
            team.append(AgentProfile(raw["id"], raw.get("name", raw["id"]), Role(role),
                                     frozenset([s.lower() for s in raw["skills"]])))
        # `validate_scenario` refuses any team without exactly one manager.
        derived_label = f"1M+{len(team) - 1}W"

    return validate_scenario(Scenario(
        name=data.get("name", name_hint),
        team=team,
        tasks=tasks,
        policy_name=data.get("policy", "no_comm"),
        evaluator_name=data.get("evaluator", "rule_based"),
        skill_pool=tuple(pool),
        team_label=data.get("team_label") or derived_label,
    ))


def parse_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"unreadable scenario file: {exc}") from exc
    return parse_scenario_text(text, name_hint=path.stem)


def emit_scenario(scenario: Scenario) -> str:
    """Serialize a scenario with an explicit team so the file is self-contained:
    in the fixed layout where `_write_layout` writes it, by `yaml.dump`
    otherwise, in the same bytes either way."""
    data = {"name": scenario.name, "policy": scenario.policy_name,
            "evaluator": scenario.evaluator_name, "skill_pool": list(scenario.skill_pool),
            "team_label": scenario.team_label,
            "team": [{"id": agent.agent_id, "name": agent.name, "role": agent.role.value,
                      "skills": sorted(agent.skills)} for agent in scenario.team],
            "tasks": [{"description": task.description, "hours": task.estimated_hours,
                       "skills": sorted(task.required_skills)} for task in scenario.tasks]}
    if (text := _write_layout(data)) is not None:
        return text
    import yaml
    return yaml.dump(data, Dumper=_pyyaml()[1], sort_keys=False, allow_unicode=True)
