"""The JSONL trace file: byte-stable writes, line-exact reads, typed errors."""

import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from teamsim import trace
from teamsim.trace import SCHEMAS, TraceError, TraceLog, TraceWriter

from conftest import add_event, trace_codecs


def _log(detail: str) -> TraceLog:
    log = TraceLog()
    add_event(log, 0, "action", {"agent": "W1", "action": "idle",
                                 "target": None, "remaining": 0})
    add_event(log, 0, "warning", {"source": "policy", "detail": detail})
    add_event(log, 1, "task_done", {"task": "T1", "root": True, "boundary": 2})
    return log


def _same_records(read: list[dict], written: list[dict]) -> bool:
    """Equal records with their keys in the same order; `repr` compares a
    NaN with a NaN, where == is always false."""
    return ([list(r) for r in read] == [list(r) for r in written]
            and repr(read) == repr(written))


def test_write_matches_to_jsonl(tmp_path):
    log = _log("plain")
    path = log.write(tmp_path / "trace.jsonl")
    assert path.read_bytes() == log.to_jsonl().encode("utf-8")


def test_writer_writes_what_the_log_writes_and_passes_each_event_on(tmp_path,
                                                                     each_codec):
    log = _log("first\u2028second")
    for codec in each_codec():
        seen = TraceLog()
        path = tmp_path / codec / "trace.jsonl"
        with TraceWriter(path, seen) as writer:
            for record in log.events:
                writer.append(record)
        assert path.read_bytes() == log.write(tmp_path / f"{codec}.jsonl").read_bytes()
        # The same record objects, not copies.
        assert len(seen.events) == len(log.events)
        assert all(a is b for a, b in zip(seen.events, log.events))


def test_writer_without_events_creates_nothing(tmp_path):
    with TraceWriter(tmp_path / "out" / "trace.jsonl", TraceLog()):
        pass
    assert not (tmp_path / "out").exists()


def test_writer_rejects_an_unknown_kind_before_writing(tmp_path):
    seen = TraceLog()
    with TraceWriter(tmp_path / "trace.jsonl", seen) as writer:
        with pytest.raises(ValueError, match="unknown event kind: bogus"):
            writer.append({"step": 0, "seq": 0, "kind": "bogus"})
    assert not (tmp_path / "trace.jsonl").exists()
    assert not seen.events


def test_round_trip_keeps_line_separators_in_strings(tmp_path):
    # U+2028 and U+2029 are written raw (ensure_ascii=False); only "\n" ends
    # an event.
    log = _log("first\u2028second\u2029third\x85fourth")
    path = log.write(tmp_path / "trace.jsonl")
    reread = TraceLog.read(path)
    assert _same_records(reread.events, log.events)
    assert reread.to_jsonl() == log.to_jsonl()


def test_truncated_line_names_its_number(tmp_path, each_codec):
    path = _log("x").write(tmp_path / "trace.jsonl")
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(lines[0] + lines[1][:20], encoding="utf-8")
    for _ in each_codec():
        with pytest.raises(TraceError, match="line 2"):
            TraceLog.read(path)


@pytest.mark.parametrize("line", [
    b'[1, 2]',
    b'"step"',
    b'{"seq":0,"kind":"action"}',
    b'{"step":0,"seq":0,"kind":"no_such_kind"}',
    b'{"step":0,"seq":0,"kind":"warning","detail":"\xff"}',
    b'100000000000000000000000000001',
    b'{"step":"3","seq":0,"kind":"action"}',
], ids=["list", "string", "missing-step", "unknown-kind", "not-utf8", "big-int",
        "text-step"])
def test_malformed_event_names_its_line(tmp_path, each_codec, line):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"\n" + line + b"\n")
    messages = set()
    for _ in each_codec():
        with pytest.raises(TraceError, match="line 2") as error:
            TraceLog.read(path)
        messages.add(str(error.value))
    assert len(messages) == 1  # worded by the standard library under both


def _oracle_line(record: dict) -> str:
    """The encoding every golden trace was written with."""
    return json.dumps(record, separators=(",", ":"), ensure_ascii=False)


# Line and paragraph separators, NEL, astral characters and control
# characters, plus whatever else the UTF-8 codec can carry.
_chars = st.one_of(
    st.sampled_from(["\u2028", "\u2029", "\x85", "\U0001F600", "\U0010FFFF",
                     "\x00", "\x1f", "\x7f", "\n", "\r", "\t", '"', "\\"]),
    st.characters(codec="utf-8"),
)
_text = st.text(_chars, max_size=12)
# Floats orjson writes otherwise than `json` (non-finite, exponent forms),
# and one that is not its shortest decimal neighbour.
_floats = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e16, -1e16, 1e-05, 5e-324,
                     -0.0, 0.1 + 0.2]),
)
# Integers orjson cannot write, or reads back as floats.
_ints = st.one_of(
    st.integers(),
    st.sampled_from([2 ** 64, 2 ** 64 + 1, -2 ** 63 - 1, 10 ** 30 + 1]),
)
# The values of each type a schema field may hold.
_VALUES = {str: _text, int: _ints, bool: st.booleans(), float: _floats,
           type(None): st.none(), list: st.lists(_text, max_size=4)}


def _field_values(kind: str, name: str):
    return st.one_of(*(_VALUES[t] for t in SCHEMAS[kind].fields[name]))


_events = st.lists(
    st.sampled_from(sorted(SCHEMAS)).flatmap(lambda kind: st.tuples(
        st.integers(0, 10 ** 6), st.just(kind),
        st.fixed_dictionaries({name: _field_values(kind, name)
                               for name in SCHEMAS[kind].fields}))),
    max_size=8,
)


def _typed(value):
    """`value` with the type of every scalar beside it: 1, 1.0 and True differ."""
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return type(value), value


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_events)
def test_write_matches_the_reference_encoder(tmp_path_factory, events):
    log = TraceLog()
    for step, kind, fields in events:
        add_event(log, step, kind, fields)
    for _, codec in trace_codecs():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace, "_codec", codec)
            path = log.write(tmp_path_factory.mktemp("trace") / "trace.jsonl")
            lines = path.read_bytes().split(b"\n")
            assert lines.pop() == b""
            assert lines == [_oracle_line(r).encode("utf-8") for r in log.events]
            reread = TraceLog.read(path)
        assert _same_records(reread.events, log.events)
        assert repr([_typed(r) for r in reread.events]) == \
            repr([_typed(r) for r in log.events])


# Any JSON value: a scalar of every type, or a list or object of them.
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), _ints, _floats, _text),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_text, inner, max_size=3)),
    max_leaves=6,
)


def _valid_records(kind: str):
    return st.fixed_dictionaries({
        "step": st.integers(0, 10 ** 6), "seq": st.integers(0, 10 ** 6),
        "kind": st.just(kind),
        **{name: _field_values(kind, name) for name in SCHEMAS[kind].fields}})


@st.composite
def _mutated_lines(draw) -> str:
    """One line: a valid record of some kind with one mutation applied."""
    mutation = draw(st.sampled_from(["swap", "remove", "rename", "extra", "to-item",
                                     "big-int-float", "not-object"]))
    if mutation == "not-object":
        return json.dumps(draw(_json_values.filter(lambda v: type(v) is not dict)),
                          ensure_ascii=False)
    kinds = {"to-item": ["message_sent"],
             "big-int-float": sorted(k for k in SCHEMAS if SCHEMAS[k].floats)}
    kind = draw(st.sampled_from(kinds.get(mutation, sorted(SCHEMAS))))
    record = draw(_valid_records(kind))
    # `step`, `seq` and `kind` as often as all of the kind's fields together.
    name = draw(st.one_of(st.sampled_from(["step", "seq", "kind"]),
                          st.sampled_from(list(record))))
    if mutation == "swap":
        record[name] = draw(_json_values)
    elif mutation == "remove":
        del record[name]
    elif mutation == "rename":
        record[draw(_text.filter(lambda key: key not in record))] = record.pop(name)
    elif mutation == "extra":
        # Often an integer orjson reads as a float, which only the standard
        # library keeps an integer.
        record[draw(_text.filter(lambda key: key not in record))] = draw(st.one_of(
            _json_values, st.sampled_from([2 ** 64, -2 ** 63 - 1, 10 ** 30 + 1])))
    elif mutation == "to-item":
        items = list(record["to"])
        items.insert(draw(st.integers(0, len(items))),
                     draw(_json_values.filter(lambda v: type(v) is not str)))
        record["to"] = items
    else:
        record[draw(st.sampled_from(SCHEMAS[kind].floats))] = draw(st.one_of(
            st.integers(min_value=2 ** 64), st.integers(max_value=-2 ** 63 - 1)))
    return json.dumps(record, ensure_ascii=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mutated_lines())
def test_every_codec_reads_a_mutated_event_alike(tmp_path_factory, line):
    # The same record, its keys in the same order and every value of the same
    # type, or the same error, under the orjson codec and the stdlib path.
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    outcomes = []
    for _, codec in trace_codecs():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace, "_codec", codec)
            try:
                records = TraceLog.read(path).events
            except TraceError as error:
                outcomes.append(str(error))
            else:
                outcomes.append(([list(r) for r in records],
                                 repr([_typed(r) for r in records])))
    assert outcomes[1:] == outcomes[:-1]


# A line nested deeper than either codec decodes.
_DEEP = "[" * 3000 + "]" * 3000


@st.composite
def _bad_lines(draw) -> str:
    """One line the column check of a chunk cannot pass as it is: a mutated
    event, a bool or a wide integer in an integer field, an unknown kind, a
    NaN, a blank or a deeply nested line."""
    mutation = draw(st.sampled_from(["mutated", "int", "kind", "nan", "blank",
                                     "deep", "deep-field"]))
    if mutation == "mutated":
        return draw(_mutated_lines())
    if mutation == "blank":
        return draw(st.sampled_from(["", " ", "\t", "\r"]))
    if mutation == "deep":
        return _DEEP
    if mutation == "deep-field":
        return '{"step":0,"seq":0,"kind":"warning","source":%s,"detail":"x"}' % _DEEP
    kind = {"int": "action", "kind": "warning", "nan": "progress"}[mutation]
    record = draw(_valid_records(kind))
    if mutation == "int":
        record[draw(st.sampled_from(["step", "remaining"]))] = draw(st.one_of(
            st.booleans(), st.sampled_from([2 ** 64, 2 ** 64 + 1, 10 ** 30 + 1])))
    elif mutation == "kind":
        record["kind"] = draw(_text.filter(lambda kind: kind not in SCHEMAS))
    else:
        record[draw(st.sampled_from(SCHEMAS[kind].floats))] = math.nan
    return json.dumps(record, ensure_ascii=False)


_good_lines = st.sampled_from(sorted(SCHEMAS)).flatmap(_valid_records).map(
    lambda record: json.dumps(record, ensure_ascii=False))
# Mostly good lines, so that whole chunks pass the column check too.
_trace_lines = st.lists(st.one_of(_good_lines, _good_lines, _good_lines, _bad_lines()),
                        max_size=12)


def _read(records: Iterator[dict]) -> tuple[str, str | None]:
    """The records read, their keys in order and every value typed, and the
    text of the `TraceError` that ended the read, if one did."""
    read = []
    try:
        for record in records:
            read.append(record)
    except TraceError as error:
        return repr([_typed(r) for r in read]), str(error)
    return repr([_typed(r) for r in read]), None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_trace_lines, st.sampled_from([1, 64, 256, 1024]))
def test_stream_reads_as_the_per_line_path_reads(tmp_path_factory, lines, chunk):
    # With chunks a few lines long, a bad line falls in a later chunk than
    # the first, after chunks that pass the column check as a whole.
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with path.open("rb") as file:
        every_line = file.readlines()
    for _, codec in trace_codecs():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace, "_codec", codec)
            patch.setattr(trace, "_CHUNK_BYTES", chunk)
            per_line = _read(trace._line_by_line(path, every_line, 0, 0, codec.decode))
            assert _read(TraceLog.stream(path)) == per_line


def test_non_finite_and_exponent_floats_are_written_as_json_writes_them(
        tmp_path, each_codec):
    # orjson would write null, 1e16 and 0.00001; json writes NaN, Infinity,
    # 1e+16 and 1e-05, in every float field.
    log = TraceLog()
    for value in (math.nan, math.inf, -math.inf, 1e16, 1e-05):
        for name in SCHEMAS["progress"].floats:
            add_event(log, 0, "progress", {"agent": "W1", "task": "T1.1",
                                           "hours": 0.25, "effective": 0.1,
                                           "af": 0.3, "progress": 0.5,
                                           name: value})
        add_event(log, 0, "af_update", {"agent": "W1", "task": "T1.1", "old": 0.3,
                                        "delta": value, "new": 0.4, "cause": "m1"})
        add_event(log, 0, "message_sent", {
            "message_id": "m1", "thread_id": "th1", "from": "W1", "to": ["M1"],
            "channel": "chat", "type": "HELP_REQUEST", "about_task": None,
            "words": 3, "cost_h": value, "sent_step": 0})
    expected = "".join(_oracle_line(r) + "\n" for r in log.events).encode()
    assert b"NaN" in expected and b"-Infinity" in expected
    for _ in each_codec():
        path = log.write(tmp_path / "trace.jsonl")
        assert path.read_bytes() == expected
        assert _same_records(TraceLog.read(path).events, log.events)


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, 1e16, 1e-05, 2 ** 64, -2 ** 63 - 1, 10 ** 30 + 1,
], ids=["nan", "inf", "-inf", "1e16", "1e-05", "2**64", "-2**63-1", "10**30+1"])
def test_every_value_read_is_read_as_json_reads_it(tmp_path, each_codec, value):
    # Each value in fields of its type: a float or an integer in a number
    # field, nullable or not, and an integer also in an integer field and
    # in `step`, not only in the float fields the writer guards.
    records = [
        {"step": 0, "seq": 0, "kind": "progress", "agent": "W1", "task": "T1.1",
         "hours": 0.25, "effective": value, "af": 0.3, "progress": 0.5},
        {"step": 0, "seq": 1, "kind": "af_update", "agent": "W1", "task": "T1.1",
         "old": None, "delta": value, "new": 0.4, "cause": "m1"},
    ]
    if type(value) is int:
        records += [
            {"step": value, "seq": 2, "kind": "action", "agent": "W1",
             "action": "work", "target": None, "remaining": value},
            {"step": 0, "seq": 3, "kind": "task_done", "task": "T1", "root": True,
             "boundary": value},
        ]
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records),
                    encoding="utf-8")
    for _ in each_codec():
        reread = TraceLog.read(path).events
        assert _same_records(reread, records)
        assert repr([_typed(r) for r in reread]) == repr([_typed(r) for r in records])


def test_a_field_its_kind_lacks_is_kept_as_json_reads_it(tmp_path, each_codec):
    record = {"step": 0, "seq": 0, "kind": "warning", "source": "x", "detail": "y",
              "extra": [2 ** 64, {"n": -2 ** 63 - 1}]}
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    for _ in each_codec():
        reread = TraceLog.read(path).events
        assert repr([_typed(r) for r in reread]) == repr([_typed(record)])


@pytest.mark.parametrize("fields,detail", [
    ({"remaining": True}, "has field 'remaining' of type bool, not int"),
    ({"remaining": 2.0}, "has field 'remaining' of type float, not int"),
    ({"remaining": None}, "has field 'remaining' of type NoneType, not int"),
    ({"target": 7}, "has field 'target' of type int, not str"),
    ({"agent": 10 ** 30}, "has field 'agent' of type int, not str"),
    ({"agent": ["W1"]}, "has field 'agent' of type list, not str"),
    ({"action": None}, "has field 'action' of type NoneType, not str"),
    ({"agent": None, "remaining": None}, "has field 'agent' of type NoneType, not str"),
], ids=["bool-int", "float-int", "null-int", "int-str-or-null", "big-int-str",
        "list-str", "null-str", "first-field"])
def test_wrongly_typed_field_names_its_event(tmp_path, each_codec, fields, detail):
    record = {"step": 3, "seq": 9, "kind": "action", "agent": "W1", "action": "idle",
              "target": None, "remaining": 0, **fields}
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(_log("x").events[1]) + "\n\n" + json.dumps(record)
                    + "\n", encoding="utf-8")
    for _ in each_codec():
        with pytest.raises(TraceError) as error:
            TraceLog.read(path)
        assert str(error.value) == f"{path}: event 1 (action at step 3) {detail}"


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_each_missing_field_names_its_event(tmp_path, each_codec, kind):
    sample = {str: "x", int: 1, bool: True, float: 0.5, list: ["W1"]}
    fields = {name: sample[types[0]] for name, types in SCHEMAS[kind].fields.items()}
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps({"step": 0, "seq": 0, "kind": kind, **fields}) + "\n",
                    encoding="utf-8")
    for _ in each_codec():
        assert TraceLog.read(path).events == [{"step": 0, "seq": 0, "kind": kind,
                                               **fields}]
    for name in fields:
        record = {"step": 0, "seq": 0, "kind": kind, **fields}
        del record[name]
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        for _ in each_codec():
            with pytest.raises(TraceError) as error:
                TraceLog.read(path)
            assert str(error.value) == \
                f"{path}: event 0 ({kind} at step 0) lacks field '{name}'"


def test_each_codec_runs_orjson_where_installed(each_codec):
    names = list(each_codec())
    try:
        import orjson  # noqa: F401
    except ImportError:
        assert names == ["stdlib"]
    else:
        assert names == ["orjson", "stdlib"]


def test_default_codec_is_orjson_where_installed(monkeypatch):
    monkeypatch.setattr(trace, "_codec", None)
    assert (trace._active_codec() is trace.STDLIB_CODEC) == \
        (trace.orjson_codec() is None)


def test_importing_the_cli_does_not_import_orjson():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, teamsim.cli; sys.exit('orjson' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], cwd=src, check=False)
    assert result.returncode == 0
