"""Append-only run trace with a stable JSONL serialization.

One event per line, fields in fixed order, no wall-clock timestamps: two runs
that behave identically produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import NamedTuple

EVENT_KINDS = (
    "action",
    "message_sent",
    "message_delivered",
    "af_update",
    "progress",
    "task_done",
    "warning",
)


# One codec for every event. Payloads are flat dicts of scalars and short
# lists built by the engine, so there is no cycle for the encoder to check.
_encode = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False,
                           check_circular=False).encode
_decode = json.JSONDecoder().decode


class TraceError(ValueError):
    """A trace file line that is not one well-formed event."""


class TraceEvent(NamedTuple):
    step: int
    seq: int
    kind: str
    payload: dict

    def to_json(self) -> str:
        return _encode({"step": self.step, "seq": self.seq, "kind": self.kind,
                        **self.payload})


class TraceLog:
    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def append(self, step: int, kind: str, payload: dict) -> TraceEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind: {kind}")
        event = TraceEvent(step, len(self.events), kind, payload)
        self.events.append(event)
        return event

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def to_jsonl(self) -> str:
        return "".join(e.to_json() + "\n" for e in self.events)

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        with path.open("w", encoding="utf-8", newline="\n") as out:
            out.writelines(e.to_json() + "\n" for e in self.events)
        return path

    def sha256(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()

    @classmethod
    def read(cls, path: str | Path) -> "TraceLog":
        """Parse a trace file one newline-terminated event at a time.

        Only a newline ends an event: strings may hold U+2028 and other
        characters that `str.splitlines` breaks on.
        """
        log = cls()
        events = log.events
        with Path(path).open("rb") as lines:
            for number, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    record = _decode(line.decode("utf-8"))
                    step = record.pop("step")
                    record.pop("seq")
                    kind = record.pop("kind")
                    if kind not in EVENT_KINDS:
                        raise ValueError(f"unknown event kind: {kind}")
                except (ValueError, KeyError, AttributeError, TypeError) as exc:
                    raise TraceError(f"{path}: line {number}: {exc}") from None
                events.append(TraceEvent(step, len(events), kind, record))
        return log
