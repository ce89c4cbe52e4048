"""The JSONL trace file: byte-stable writes, line-exact reads, typed errors."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from teamsim import trace
from teamsim.trace import EVENT_KINDS, TraceError, TraceLog, TraceWriter

from conftest import trace_codecs


def _log(detail: str) -> TraceLog:
    log = TraceLog()
    log.append(0, "action", {"agent": "W1", "action": "idle",
                             "target": None, "remaining": 0})
    log.append(0, "warning", {"source": "policy", "detail": detail})
    log.append(1, "task_done", {"task": "T1", "root": True, "boundary": 2})
    return log


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
            for step, _, kind, payload in log.events:
                writer.append(step, kind, payload)
        assert path.read_bytes() == log.write(tmp_path / f"{codec}.jsonl").read_bytes()
        assert seen.events == log.events


def test_writer_without_events_creates_nothing(tmp_path):
    with TraceWriter(tmp_path / "out" / "trace.jsonl", TraceLog()):
        pass
    assert not (tmp_path / "out").exists()


def test_writer_rejects_an_unknown_kind_before_writing(tmp_path):
    seen = TraceLog()
    with TraceWriter(tmp_path / "trace.jsonl", seen) as writer:
        with pytest.raises(ValueError, match="unknown event kind: bogus"):
            writer.append(0, "bogus", {})
    assert not (tmp_path / "trace.jsonl").exists()
    assert not seen.events


def test_round_trip_keeps_line_separators_in_strings(tmp_path):
    # U+2028 and U+2029 are written raw (ensure_ascii=False); only "\n" ends
    # an event.
    log = _log("first\u2028second\u2029third\x85fourth")
    path = log.write(tmp_path / "trace.jsonl")
    reread = TraceLog.read(path)
    assert [(e.step, e.seq, e.kind, e.payload) for e in reread.events] == \
        [(e.step, e.seq, e.kind, e.payload) for e in log.events]
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
], ids=["list", "string", "missing-step", "unknown-kind", "not-utf8", "big-int"])
def test_malformed_event_names_its_line(tmp_path, each_codec, line):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"\n" + line + b"\n")
    messages = set()
    for _ in each_codec():
        with pytest.raises(TraceError, match="line 2") as error:
            TraceLog.read(path)
        messages.add(str(error.value))
    assert len(messages) == 1  # worded by the standard library under both


def _oracle_line(event) -> str:
    """The encoding every golden trace was written with."""
    record = {"step": event.step, "seq": event.seq, "kind": event.kind}
    record.update(event.payload)
    return json.dumps(record, separators=(",", ":"), ensure_ascii=False)


# Line and paragraph separators, NEL, astral characters and control
# characters, plus whatever else the UTF-8 codec can carry.
_chars = st.one_of(
    st.sampled_from(["\u2028", "\u2029", "\x85", "\U0001F600", "\U0010FFFF",
                     "\x00", "\x1f", "\x7f", "\n", "\r", "\t", '"', "\\"]),
    st.characters(codec="utf-8"),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-05, 0.1 + 0.2, 1e16, -0.0, 5e-324]),
    # Integers orjson cannot write, or reads back as floats.
    st.sampled_from([2 ** 64, 2 ** 64 + 1, -2 ** 63 - 1, 10 ** 30 + 1]),
    st.text(_chars, max_size=12),
)
_payloads = st.dictionaries(
    st.text(_chars, max_size=8).filter(lambda k: k not in ("step", "seq", "kind")),
    st.one_of(_scalars, st.lists(_scalars, max_size=4)),
    max_size=5,
)
_events = st.lists(
    st.tuples(st.integers(0, 10 ** 6), st.sampled_from(EVENT_KINDS), _payloads),
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
    for step, kind, payload in events:
        log.append(step, kind, payload)
    for _, codec in trace_codecs():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace, "_codec", codec)
            path = log.write(tmp_path_factory.mktemp("trace") / "trace.jsonl")
            lines = path.read_bytes().split(b"\n")
            assert lines.pop() == b""
            assert lines == [_oracle_line(e).encode("utf-8") for e in log.events]
            reread = TraceLog.read(path)
        assert [(e.step, e.seq, e.kind, e.payload) for e in reread.events] == \
            [(e.step, e.seq, e.kind, e.payload) for e in log.events]
        assert [_typed(e.payload) for e in reread.events] == \
            [_typed(e.payload) for e in log.events]


def test_non_finite_and_exponent_floats_are_written_as_json_writes_them(
        tmp_path, each_codec):
    # orjson would write null, 1e16 and 0.00001; json writes NaN, Infinity,
    # 1e+16 and 1e-05, at the top level and nested in lists alike.
    log = TraceLog()
    for value in (math.nan, math.inf, -math.inf, 1e16, 1e-05):
        log.append(0, "progress", {"x": value})
        log.append(0, "progress", {"x": [1.5, [value]]})
    expected = "".join(_oracle_line(e) + "\n" for e in log.events).encode()
    assert b"NaN" in expected and b"-Infinity" in expected
    for _ in each_codec():
        path = log.write(tmp_path / "trace.jsonl")
        assert path.read_bytes() == expected
        # repr compares nan with nan, where == is always false
        assert [repr(e.payload) for e in TraceLog.read(path).events] == \
            [repr(e.payload) for e in log.events]


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
