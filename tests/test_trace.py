"""The JSONL trace file: byte-stable writes, line-exact reads, typed errors."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from teamsim.trace import EVENT_KINDS, TraceError, TraceLog


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


def test_round_trip_keeps_line_separators_in_strings(tmp_path):
    # U+2028 and U+2029 are written raw (ensure_ascii=False); only "\n" ends
    # an event.
    log = _log("first\u2028second\u2029third\x85fourth")
    path = log.write(tmp_path / "trace.jsonl")
    reread = TraceLog.read(path)
    assert [(e.step, e.seq, e.kind, e.payload) for e in reread.events] == \
        [(e.step, e.seq, e.kind, e.payload) for e in log.events]
    assert reread.to_jsonl() == log.to_jsonl()


def test_truncated_line_names_its_number(tmp_path):
    path = _log("x").write(tmp_path / "trace.jsonl")
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(lines[0] + lines[1][:20], encoding="utf-8")
    with pytest.raises(TraceError, match="line 2"):
        TraceLog.read(path)


@pytest.mark.parametrize("line", [
    b'[1, 2]',
    b'"step"',
    b'{"seq":0,"kind":"action"}',
    b'{"step":0,"seq":0,"kind":"no_such_kind"}',
    b'{"step":0,"seq":0,"kind":"warning","detail":"\xff"}',
], ids=["list", "string", "missing-step", "unknown-kind", "not-utf8"])
def test_malformed_event_names_its_line(tmp_path, line):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"\n" + line + b"\n")
    with pytest.raises(TraceError, match="line 2"):
        TraceLog.read(path)


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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_events)
def test_write_matches_the_reference_encoder(tmp_path_factory, events):
    log = TraceLog()
    for step, kind, payload in events:
        log.append(step, kind, payload)
    path = log.write(tmp_path_factory.mktemp("trace") / "trace.jsonl")
    lines = path.read_bytes().split(b"\n")
    assert lines.pop() == b""
    assert lines == [_oracle_line(e).encode("utf-8") for e in log.events]
    reread = TraceLog.read(path)
    assert [(e.step, e.seq, e.kind, e.payload) for e in reread.events] == \
        [(e.step, e.seq, e.kind, e.payload) for e in log.events]
