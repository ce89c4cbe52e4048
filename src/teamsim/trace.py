"""Append-only run trace with a stable JSONL serialization.

One event per line, fields in fixed order, no wall-clock timestamps: two runs
that behave identically produce byte-identical files. The engine hands each
event to a sink as it happens: `TraceLog` keeps them all, `TraceWriter`
writes each line to the file and passes the event on.

Lines are encoded and decoded with orjson when it is installed (the `fast`
extra) and with the standard `json` module otherwise; the bytes written and
the values read back are the same under either. orjson writes some floats
differently (`1e16` for `1e+16`, `0.00001` for `1e-05`, `null` for `NaN`),
cannot write integers wider than 64 bits and reads integers outside
[-2**63, 2**64) as floats, so an event that holds such a value takes the
standard-library path.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, NamedTuple, Protocol

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


def _line_encoder() -> Callable[[int, int, str, dict], bytes]:
    """The one way an event becomes its trace line: (step, seq, kind, payload)
    -> bytes, "\n" included, through the codec active when this is called."""
    encode = _active_codec().encode

    def line(step: int, seq: int, kind: str, payload: dict) -> bytes:
        return encode({"step": step, "seq": seq, "kind": kind, **payload})

    return line


class TraceEvent(NamedTuple):
    step: int
    seq: int
    kind: str
    payload: dict


class TraceSink(Protocol):
    """Where the engine puts each event as it happens, in trace order."""

    def append(self, step: int, kind: str, payload: dict) -> object: ...


class TraceLog:
    """The sink that keeps every event in memory."""

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
        line = _line_encoder()
        return (line(*event) for event in self.events)

    def to_jsonl(self) -> str:
        return b"".join(self._lines()).decode("utf-8")

    def write(self, path: str | Path) -> Path:
        # One line at a time: a list of encoded lines would hold the whole
        # file, and more.
        path = Path(path)
        with path.open("wb") as out:
            out.writelines(self._lines())
        return path

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


class TraceWriter:
    """The sink that writes each event's line to a trace file as it comes and
    passes the event on to `then`, holding no event.

    The file, and any missing directory above it, is made at the first event,
    so a run without events creates nothing, and a path that cannot be written
    raises `OSError` there. Use it as a context manager: leaving the block
    closes the file, also when the run raises, which leaves the lines written
    so far.
    """

    def __init__(self, path: str | Path, then: TraceSink) -> None:
        self.path = Path(path)
        self.then = then
        self._out: BinaryIO | None = None
        self._line: Callable[[int, int, str, dict], bytes] | None = None
        self._seq = 0

    def append(self, step: int, kind: str, payload: dict) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind: {kind}")
        if self._out is None:
            self._open()
        self._out.write(self._line(step, self._seq, kind, payload))
        self._seq += 1
        self.then.append(step, kind, payload)

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._out = self.path.open("wb")
        self._line = _line_encoder()

    def close(self) -> None:
        if self._out is not None:
            self._out.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
