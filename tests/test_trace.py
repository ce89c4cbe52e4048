"""The JSONL trace file: byte-stable writes, line-exact reads, typed errors."""

import pytest

from teamsim.trace import TraceError, TraceLog


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
