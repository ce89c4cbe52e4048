"""The `scenario.yaml` layout that `config` writes and reads itself, and the
hand-written style it reads itself.

`emit_scenario` writes its fixed layout without PyYAML when every string is
printable ASCII with no leading, trailing or doubled space, no leading
indicator and no `...` start, and every hours value is a finite float; it
must then give `yaml.dump`'s bytes under both of PyYAML's emitters. A text is
read in that layout only when writing what was read gives the text back, so
`parse_scenario_text` gives the same scenario, or the same error, as
PyYAML's reader on every text. Both are checked here on derandomized draws
made to stress YAML: indicators, quotes, ": ", " #", words another YAML type
claims, text long enough to fold and awkward floats, and on one-edit mutants
of the written texts.

A text in the hand-written style of the shipped scenarios is read line by
line, with a copy of PyYAML's implicit-resolver table deciding which plain
words read back as another type; any other text goes to PyYAML. The copy
must be PyYAML's table, the data read must be what both of PyYAML's loaders
read, and `parse_scenario_text` must give the same scenario, or the same
error, as PyYAML's reader, on drawn texts in and near that style and on
one-edit mutants of them.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st
from yaml.resolver import Resolver

from teamsim import config
from teamsim.cli import main
from teamsim.config import parse_scenario_text
from teamsim.model import EVALUATOR_NAMES, POLICY_NAMES, ScenarioError

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ("simple", "medium", "complex", "multi_task")

# libyaml's emitter where PyYAML has it, and the pure-Python one everywhere.
DUMPERS = [config._dumper(yaml.SafeDumper)] + (
    [config._dumper(yaml.CSafeDumper)] if yaml.__with_libyaml__ else [])

# Words `config` writes, plain or quoted, and strings it leaves to PyYAML.
_WRITTEN = st.one_of(
    st.text("abcdefghijklmnopqrstuvwxyzABC0123456789_.", min_size=1, max_size=10),
    st.sampled_from(["yes", "No", "null", "~", "true", "on", "1.0", "0x1f", "1:30",
                     "0o17", "1e5", ".inf", ".5", "2001-12-14", "<<", "=", "..x",
                     "it's", 'say "hi"', "a: b", "a:", "a:b", "a #b", "a#b", "x,y",
                     "x-y", "50%", "-", "- x", "---", "...", "?", ":", "#", "&a", "|",
                     "[", "{", "'"]))
_REFUSED = st.one_of(
    st.sampled_from(["", "-", "-x", "--- x", "...", "'q'", "#x", "[x]", "{x}", "&x",
                     "*x", "!x", "|x", ">x", "%x", "@x", "`x", "?x", ":x", "tab\there",
                     "café", "\x85", "a  b", " a", "a ", "a\nb"]),
    st.text(max_size=12))


@st.composite
def texts(draw) -> str:
    """A string of one word to past two lines of words; one in thirty is
    one `config` leaves to PyYAML."""
    if draw(st.integers(0, 29)) == 0:
        return draw(_REFUSED)
    size = draw(st.sampled_from([1, 1, 3, 40]))
    return " ".join(draw(st.lists(_WRITTEN, min_size=(size + 2) // 3, max_size=size)))


_HOURS = st.one_of(
    st.sampled_from([1e16, 1e-5, -0.0, 24.0, 1.5, 1e300, 5e-324, 1e22, 12345678.9,
                     float("nan"), float("inf"), 8, True, "8"]),
    st.floats(allow_nan=False, allow_infinity=False))
_POSITIVE_HOURS = st.one_of(st.sampled_from([1e16, 1e-5, 24.0, 1e22, 5e-324]),
                            st.floats(0.01, 1e6))
POOL = ["backend", "api", "testing", "docs"]


@st.composite
def layouts(draw) -> dict:
    """The data `emit_scenario` writes: one manager, a few workers and a
    task or two. In half the draws every field holds a valid value, so the
    text parses to a scenario; in the rest each may not."""
    valid = draw(st.booleans())

    def text_or(values):
        return draw(st.sampled_from(values) if valid else
                    st.one_of(st.sampled_from(values), texts()))

    def skills(values):
        return draw(st.lists(st.sampled_from(values) if valid else
                             st.one_of(st.sampled_from(values), texts()),
                             min_size=valid, max_size=3))

    return {
        "name": draw(texts()),
        "policy": text_or(POLICY_NAMES),
        "evaluator": text_or(EVALUATOR_NAMES),
        "skill_pool": skills(POOL) if draw(st.booleans()) else POOL,
        "team_label": draw(texts()),
        "team": [{"id": text_or([f"W{i}" if i else "M1"]), "name": draw(texts()),
                  "role": text_or(["worker" if i else "manager"]), "skills": skills(POOL)}
                 for i in range(draw(st.integers(valid, 2)) + 1)],
        "tasks": [{"description": draw(texts()),
                   "hours": draw(_POSITIVE_HOURS if valid else _HOURS),
                   "skills": skills(POOL)}
                  for _ in range(draw(st.integers(1, 2)))],
    }


def dump(data: dict, dumper: type | None = None) -> str:
    return yaml.dump(data, Dumper=dumper or config._pyyaml()[1], sort_keys=False,
                     allow_unicode=True)


def test_written_layout_is_each_dumpers_text():
    """Every draw the layout writes gives each emitter's bytes; the others
    fall back to `yaml.dump`, and both kinds are drawn."""
    fell_back = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(layouts())
    def check(data):
        text = config._write_layout(data)
        fell_back.add(text is None)
        if text is not None:
            assert [dump(data, dumper) for dumper in DUMPERS] == [text] * len(DUMPERS)

    check()
    assert fell_back == {True, False}


def outcome(text: str):
    """What `parse_scenario_text` makes of `text`: a scenario, or its error."""
    try:
        return parse_scenario_text(text)
    except ScenarioError as exc:
        return f"error: {exc}"


def pyyaml_outcome(text: str):
    """The same, with every text read by PyYAML."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config, "_read_layout", lambda text: None)
        patch.setattr(config, "_read_hand_written", lambda text: None)
        return outcome(text)


EDITS = ("byte", "drop", "double", "swap", "trailing", "tab", "comment", "comment_line",
         "crlf", "bom", "rename", "blank", "document", "fold", "space")


def mutant(text: str, data) -> str:
    """`text` with one edit drawn: a byte changed, a line dropped, doubled or
    swapped with the next, a trailing space, a tab, a comment, CRLF line ends,
    a BOM, a renamed key, a blank line, a `---` line, a line folded at its
    last space or a space doubled."""
    edit = data.draw(st.sampled_from(EDITS), label="edit")
    if edit == "byte":
        i = data.draw(st.integers(0, len(text) - 1), label="at")
        return text[:i] + data.draw(st.sampled_from(":'\" #-[x0\t"), label="with") + text[i + 1:]
    if edit == "crlf":
        return text.replace("\n", "\r\n")
    if edit == "bom":
        return "\ufeff" + text
    lines = text.split("\n")
    at = data.draw(st.integers(0, len(lines) - 2), label="line")
    line = lines[at]
    lines[at:at + 1] = {
        "drop": [],
        "double": [line, line],
        "swap": lines[at + 1:at + 2] + [line],
        "trailing": [line + " "],
        "tab": [line.replace(" ", "\t", 1)],
        "comment": [line + " # note"],
        "comment_line": ["# note", line],
        "rename": [line.replace(":", "x:", 1)],
        "blank": ["", line],
        "document": ["---", line],
        "fold": [line[:line.rfind(" ")], "      " + line[line.rfind(" ") + 1:]]
        if line.rfind(" ") > 0 else [line],
        "space": [line.replace(" ", "  ", 1)],
    }[edit]
    if edit == "swap":
        del lines[at + 2]
    return "\n".join(lines)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(layouts(), st.data())
def test_read_gives_pyyamls_scenario_or_error(layout, data):
    """A written text and a one-edit mutant of it parse to the scenario, or
    the error, that PyYAML's reading gives."""
    text = config._write_layout(layout) or dump(layout)
    assert outcome(text) == pyyaml_outcome(text)
    edited = mutant(text, data)
    assert outcome(edited) == pyyaml_outcome(edited)


@pytest.mark.parametrize("name", SHIPPED)
def test_emitted_runs_are_read_in_the_layout(tmp_path, name):
    """A run's `scenario.yaml` is read in the layout, as PyYAML reads it; the
    hand-written file it came from, with its flow lists and quoted text, is
    read in the hand-written style, as PyYAML reads it too."""
    shipped = (ROOT / "scenarios" / f"{name}.yaml").read_text(encoding="utf-8")
    assert config._read_layout(shipped) is None
    assert config._read_hand_written(shipped) == yaml.load(shipped, Loader=config._pyyaml()[0])
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--scenario", str(ROOT / "scenarios" / f"{name}.yaml"),
                     "--out", str(tmp_path)]) == 0
    text = (tmp_path / "scenario.yaml").read_text(encoding="utf-8")
    assert config._read_layout(text) == yaml.load(text, Loader=config._pyyaml()[0])
    assert parse_scenario_text(text) == pyyaml_outcome(text) == parse_scenario_text(shipped)


def test_resolver_table_is_pyyamls():
    """`config`'s copy of PyYAML's implicit resolvers keys the same patterns,
    tags and flags by the same first characters, in the same order."""
    copied = {}
    for tag, pattern, flags, first in config._IMPLICIT:
        for char in first:
            copied.setdefault(char, []).append((tag, pattern, re.compile(pattern, flags).flags))
    assert copied == {char: [(tag, regexp.pattern, regexp.flags) for tag, regexp in resolvers]
                      for char, resolvers in Resolver.yaml_implicit_resolvers.items()}


# Plain words in and near the hand-written style: words it reads, words another
# YAML type claims, and ints and floats in and out of the forms it reads.
_WORDS = st.one_of(
    st.text("abcnoyNOTY_0123456789.+-", min_size=1, max_size=8),
    st.sampled_from(["yes", "Yes", "on", "ON", "off", "no", "No", "null", "NULL", "true",
                     "False", "y", "n", "0", "7", "010", "08", "1_000", "0x1f", "0b1",
                     "1:30", "190:20:30", "2001-12-14", "1.", ".5", "1.5", "08.5", "1e5",
                     "1.0e+5", ".inf", "~", "=", "<<", "-", "-x", "a:", "a#b", "a b", "x,y",
                     "[x]", "8.0", "24.0", "1M+4W", "no_comm", "backend", "é", ""]))
# Text for quoted values: printable ASCII with quotes, backslashes, ": ",
# " #" and doubled spaces, and now and then a tab or a character past ASCII.
_QUOTED = st.text(st.one_of(st.sampled_from(" '\"\\:#-,[]{}&*!|>%@`"),
                            st.characters(min_codepoint=0x20, max_codepoint=0x7e),
                            st.sampled_from("\t\x85é")), max_size=20)
_KEYS = st.one_of(st.sampled_from(["name", "team", "policy", "evaluator", "skill_pool",
                                   "team_label", "tasks", "seed", "description", "hours",
                                   "skills", "id", "role"]),
                  st.sampled_from(["yes", "on", "No", "null", "y", "x1", "_k", "1", "a b"]))


@st.composite
def hand_value(draw) -> str:
    """A value as written after `key: `: a plain word, double- or
    single-quoted text (its quotes doubled or not) or a flow list of words."""
    kind = draw(st.sampled_from(["word", "double", "single", "list"]))
    if kind == "word":
        return draw(_WORDS)
    text = draw(_QUOTED)
    if kind == "double":
        return f'"{text}"'
    if kind == "single":
        return "'" + (text.replace("'", "''") if draw(st.booleans()) else text) + "'"
    return "[" + ", ".join(draw(st.lists(_WORDS, max_size=4))) + "]"


# One-line quoted text the reader takes: printable ASCII without `"` or `\`.
_TAKEN = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                               blacklist_characters='"\\'), max_size=30)


@st.composite
def hand_written(draw) -> str:
    """A text in the hand-written style. In half the draws it is a scenario
    like the shipped ones, its lines and blocks in any order, with one value
    in eight or so drawn near the style; in the rest its keys and values are
    all drawn near the style."""
    def rarely(common, rare):
        return draw(rare if draw(st.integers(0, 7)) == 7 else common)

    def block(key: str, items: list[list[str]]) -> list[str]:
        lines = [f"{key}:"]
        for pairs in items:
            lines += [f"  - {pairs[0]}"] + [f"    {pair}" for pair in pairs[1:]]
        return lines

    if draw(st.booleans()):
        skills = st.lists(st.sampled_from(POOL), min_size=1, max_size=4,
                          unique=True).map(lambda words: f"[{', '.join(words)}]")
        quoted = st.one_of(_TAKEN.map(lambda text: f'"{text}"'),
                           _TAKEN.map(lambda text: "'" + text.replace("'", "''") + "'"))
        hours = st.sampled_from(["8.0", "7", "24.0", "0.5", "08.5"])
        tasks = [[f"description: {rarely(quoted, hand_value())}",
                  f"hours: {rarely(hours, st.sampled_from(['010', '8.', 'yes', '1_0', '0']))}",
                  f"skills: {rarely(skills, hand_value())}"]
                 for _ in range(draw(st.integers(1, 3)))]
        workers = draw(st.integers(1, 3))
        team = [[f"team: 1M+{workers}W"]] if draw(st.booleans()) else [block("team", [
            [f"id: {f'W{i}' if i else 'M1'}", f"role: {'worker' if i else 'manager'}",
             f"skills: {draw(skills)}"] for i in range(workers + 1)])]
        names = st.sampled_from(["simple", "multi-task", "wide_team", "1M+4W"])
        units = [[f"name: {rarely(names, _WORDS)}"],
                 [f"policy: {rarely(st.sampled_from(POLICY_NAMES), hand_value())}"],
                 [f"skill_pool: [{', '.join(POOL)}]"], block("tasks", tasks), *team]
        return "".join(line + "\n" for unit in draw(st.permutations(units)) for line in unit)
    lines = []
    for key in draw(st.lists(_KEYS, min_size=1, max_size=5)):
        if draw(st.integers(0, 3)):
            lines.append(f"{key}: {draw(hand_value())}")
        else:
            lines += block(key, [[f"{draw(_KEYS)}: {draw(hand_value())}"
                                  for _ in range(draw(st.integers(1, 3)))]
                                 for _ in range(draw(st.integers(0, 2)))])
    return "".join(line + "\n" for line in lines)


def test_hand_written_read_is_pyyamls_data():
    """Where the reader reads a text, or a one-edit mutant of it, its data
    is what PyYAML's libyaml-based and pure-Python loaders read, types and
    order included; it reads some of the drawn texts and refuses others."""
    read_some = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(hand_written(), st.data())
    def check(text, data):
        for case in (text, mutant(text, data)):
            read = config._read_hand_written(case)
            read_some.add(read is not None)
            if read is not None:
                for loader in (config._pyyaml()[0], yaml.SafeLoader):
                    assert repr(read) == repr(yaml.load(case, Loader=loader))

    check()
    assert read_some == {True, False}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hand_written(), st.data())
def test_hand_written_parse_gives_pyyamls_scenario_or_error(text, data):
    """A text in and near the hand-written style, and a one-edit mutant of
    it, parse to the scenario, or the error, that PyYAML's reading gives."""
    assert outcome(text) == pyyaml_outcome(text)
    edited = mutant(text, data)
    assert outcome(edited) == pyyaml_outcome(edited)
