"""Append-only run trace with a stable JSONL serialization.

One event per line, fields in fixed order, no wall-clock timestamps: two runs
that behave identically produce byte-identical files.

Lines are encoded and decoded with orjson when it is installed (the `fast`
extra) and with the standard `json` module otherwise; the bytes written and
the values read back are the same under either. orjson writes some floats
differently (`1e16` for `1e+16`, `0.00001` for `1e-05`, `null` for `NaN`),
cannot write integers wider than 64 bits and reads integers outside
[-2**63, 2**64) as floats, so an event that holds such a value takes the
standard-library path.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

EVENT_KINDS = (
    "action",
    "message_sent",
    "message_delivered",
    "af_update",
    "progress",
    "task_done",
    "warning",
)


# Payloads are flat dicts of scalars and short lists built by the engine, so
# there is no cycle for the encoder to check.
_std_encode = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False,
                               check_circular=False).encode
_std_decode = json.JSONDecoder().decode

# orjson writes a float as `repr` does only when it is zero or its magnitude
# lies in [_FLOAT_LOW, _FLOAT_HIGH).
_FLOAT_LOW = 1e-4
_FLOAT_HIGH = 1e16
# orjson reads an integer outside [-2**63, 2**64) as a float at least this
# large; no float it reads below it came from an integer.
_BIG_FLOAT = 9.2e18


class TraceError(ValueError):
    """A trace file line that is not one well-formed event."""


class Codec(NamedTuple):
    """How one event record becomes one line of bytes, and back."""

    # record dict -> its line, "\n" included
    encode: Callable[[dict], bytes]
    # one line of bytes -> the decoded JSON value; ValueError when malformed
    decode: Callable[[bytes], object]


def _std_line(record: dict) -> bytes:
    return (_std_encode(record) + "\n").encode("utf-8")


def _std_value(line: bytes) -> object:
    return _std_decode(line.decode("utf-8"))


STDLIB_CODEC = Codec(_std_line, _std_value)


def _writes_alike(container) -> bool:
    """True when orjson writes every float in a dict, list or tuple as `json` does."""
    for value in (container.values() if type(container) is dict else container):
        kind = type(value)
        if kind is float:
            if not (_FLOAT_LOW <= value < _FLOAT_HIGH or value == 0.0
                    or -_FLOAT_HIGH < value <= -_FLOAT_LOW):
                return False
        elif kind is list or kind is dict or kind is tuple:
            if not _writes_alike(value):
                return False
    return True


def _reads_alike(container) -> bool:
    """True when no float in a decoded dict or list may have been an integer."""
    for value in (container.values() if type(container) is dict else container):
        kind = type(value)
        if kind is float:
            if not -_BIG_FLOAT < value < _BIG_FLOAT:
                return False
        elif kind is list or kind is dict:
            if not _reads_alike(value):
                return False
    return True


def orjson_codec() -> Codec | None:
    """The orjson codec with its standard-library guards, or None without orjson."""
    try:
        import orjson
    except ImportError:
        return None
    dumps, loads = orjson.dumps, orjson.loads
    newline = orjson.OPT_APPEND_NEWLINE
    encode_error, decode_error = orjson.JSONEncodeError, orjson.JSONDecodeError

    def encode(record: dict) -> bytes:
        if _writes_alike(record):
            try:
                return dumps(record, option=newline)
            except encode_error:  # an integer beyond 64 bits, a non-str key
                pass
        return _std_line(record)

    def decode(line: bytes) -> object:
        # Anything orjson rejects or may read differently is decoded again by
        # the standard library, which also words every error.
        try:
            value = loads(line)
        except decode_error:
            return _std_value(line)
        if type(value) is dict and _reads_alike(value):
            return value
        return _std_value(line)

    return Codec(encode, decode)


# Resolved at the first encode or decode, so that importing the package does
# not import orjson. Tests set it to choose a codec.
_codec: Codec | None = None


def _active_codec() -> Codec:
    global _codec
    if _codec is None:
        _codec = orjson_codec() or STDLIB_CODEC
    return _codec


class TraceEvent(NamedTuple):
    step: int
    seq: int
    kind: str
    payload: dict


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

    def _lines(self) -> Iterator[bytes]:
        encode = _active_codec().encode
        return (encode({"step": step, "seq": seq, "kind": kind, **payload})
                for step, seq, kind, payload in self.events)

    def to_jsonl(self) -> str:
        return b"".join(self._lines()).decode("utf-8")

    def write(self, path: str | Path) -> Path:
        # One line at a time: a list of encoded lines would hold the whole
        # file, and more.
        path = Path(path)
        with path.open("wb") as out:
            out.writelines(self._lines())
        return path

    def sha256(self) -> str:
        """The digest of the bytes `write` puts in the file."""
        digest = hashlib.sha256()
        for line in self._lines():
            digest.update(line)
        return digest.hexdigest()

    @staticmethod
    def stream(path: str | Path) -> Iterator[TraceEvent]:
        """Yield the events of a trace file one newline-terminated line at a time.

        Only a newline ends an event: strings may hold U+2028 and other
        characters that `str.splitlines` breaks on. `seq` counts the events
        yielded. A line that is not one event raises `TraceError` naming it.
        """
        decode = _active_codec().decode
        seq = 0
        with Path(path).open("rb") as lines:
            for number, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    record = decode(line)
                    step = record.pop("step")
                    record.pop("seq")
                    kind = record.pop("kind")
                    if kind not in EVENT_KINDS:
                        raise ValueError(f"unknown event kind: {kind}")
                except (ValueError, KeyError, AttributeError, TypeError) as exc:
                    raise TraceError(f"{path}: line {number}: {exc}") from None
                yield TraceEvent(step, seq, kind, record)
                seq += 1

    @classmethod
    def read(cls, path: str | Path) -> "TraceLog":
        log = cls()
        log.events = list(cls.stream(path))
        return log

