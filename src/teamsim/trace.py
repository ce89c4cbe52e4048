"""Append-only run trace with a stable JSONL serialization.

One event per line, fields in fixed order, no wall-clock timestamps: two runs
that behave identically produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

EVENT_KINDS = (
    "action",
    "message_sent",
    "message_delivered",
    "af_update",
    "progress",
    "task_done",
    "warning",
)


class TraceError(ValueError):
    """A trace file line that is not one well-formed event."""


@dataclass(frozen=True)
class TraceEvent:
    step: int
    seq: int
    kind: str
    payload: dict

    def to_json(self) -> str:
        record = {"step": self.step, "seq": self.seq, "kind": self.kind}
        record.update(self.payload)
        return json.dumps(record, separators=(",", ":"), ensure_ascii=False)


class TraceLog:
    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def append(self, step: int, kind: str, payload: dict) -> TraceEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind: {kind}")
        event = TraceEvent(step=step, seq=len(self.events), kind=kind, payload=payload)
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
        with Path(path).open("rb") as lines:
            for number, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                    step = record.pop("step")
                    record.pop("seq")
                    kind = record.pop("kind")
                    log.append(step, kind, record)
                except (ValueError, KeyError, AttributeError, TypeError) as exc:
                    raise TraceError(f"{path}: line {number}: {exc}") from None
        return log
