"""The `scenario.yaml` layout that `config` writes and reads itself.

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
"""

import contextlib
import io
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

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


def dump(data: dict, dumper: type = config._DUMPER) -> str:
    return yaml.dump(data, Dumper=dumper, sort_keys=False, allow_unicode=True)


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
        return outcome(text)


EDITS = ("byte", "drop", "double", "swap", "trailing", "tab", "comment", "comment_line",
         "crlf", "bom", "rename")


def mutant(text: str, data) -> str:
    """`text` with one edit drawn: a byte changed, a line dropped, doubled or
    swapped with the next, a trailing space, a tab, a comment, CRLF line ends,
    a BOM or a renamed key."""
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
    read by PyYAML."""
    shipped = (ROOT / "scenarios" / f"{name}.yaml").read_text(encoding="utf-8")
    assert config._read_layout(shipped) is None
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--scenario", str(ROOT / "scenarios" / f"{name}.yaml"),
                     "--out", str(tmp_path)]) == 0
    text = (tmp_path / "scenario.yaml").read_text(encoding="utf-8")
    assert config._read_layout(text) == yaml.load(text, Loader=config._LOADER)
    assert parse_scenario_text(text) == pyyaml_outcome(text) == parse_scenario_text(shipped)
