"""Append-only run trace with a stable JSONL serialization.

One event per line, no wall-clock timestamps: two runs that behave
identically produce byte-identical files. An event is one record, the dict
that is its line's JSON object: `step`, `seq` and `kind`, then the fields
`SCHEMAS` lists for the kind, in that order. The engine builds each record
once and hands it to a sink as it happens: `TraceLog` keeps the records,
`TraceWriter` writes each one's line to the file and passes the record on.
Reading a file yields the decoded records.

Lines are encoded and decoded with orjson when it is installed (the `fast`
extra) and with the standard `json` module otherwise; the bytes written and
the values read back are the same under either. orjson writes some floats
differently (`1e16` for `1e+16`, `0.00001` for `1e-05`, `null` for `NaN`),
cannot write integers wider than 64 bits and reads integers outside
[-2**63, 2**64) as floats, so a line that holds such a value takes the
standard-library path. Only the fields `SCHEMAS` marks as float fields are
looked at before writing; every value read back is looked at.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, NamedTuple, Protocol


class Schema(NamedTuple):
    """The fields of one event kind after `step`, `seq` and `kind`."""

    fields: tuple[str, ...]
    # The fields that may hold a float; no other field holds one.
    floats: tuple[str, ...] = ()


SCHEMAS = {
    "action": Schema(("agent", "action", "target", "remaining")),
    "message_sent": Schema(("message_id", "thread_id", "from", "to", "channel",
                            "type", "about_task", "words", "cost_h", "sent_step"),
                           ("cost_h",)),
    "message_delivered": Schema(("message_id", "to", "from", "type", "thread_id")),
    "af_update": Schema(("agent", "task", "old", "delta", "new", "cause"),
                        ("old", "delta", "new")),
    "progress": Schema(("agent", "task", "hours", "effective", "af", "progress"),
                       ("hours", "effective", "af", "progress")),
    "task_done": Schema(("task", "root", "boundary")),
    "warning": Schema(("source", "detail")),
}
EVENT_KINDS = tuple(SCHEMAS)


class _FloatFields(dict):
    """Each kind's float fields; looking up an unknown kind raises."""

    def __missing__(self, kind: str) -> tuple[str, ...]:
        raise ValueError(f"unknown event kind: {kind}")


_FLOATS = _FloatFields((kind, schema.floats) for kind, schema in SCHEMAS.items())


# Records are flat dicts of scalars and short lists built by the engine, so
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

    # (record, its kind's float fields) -> its line, "\n" included
    encode: Callable[[dict, tuple[str, ...]], bytes]
    # one line of bytes -> the decoded JSON value; ValueError when malformed
    decode: Callable[[bytes], object]


def _std_line(record: dict, floats: tuple[str, ...] = ()) -> bytes:
    return (_std_encode(record) + "\n").encode("utf-8")


def _std_value(line: bytes) -> object:
    return _std_decode(line.decode("utf-8"))


STDLIB_CODEC = Codec(_std_line, _std_value)


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

    def encode(record: dict, floats: tuple[str, ...]) -> bytes:
        for name in floats:
            value = record.get(name)
            if type(value) is float and not (
                    _FLOAT_LOW <= value < _FLOAT_HIGH or value == 0.0
                    or -_FLOAT_HIGH < value <= -_FLOAT_LOW):
                return _std_line(record)
        try:
            return dumps(record, option=newline)
        except encode_error:  # an integer beyond 64 bits
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


class TraceSink(Protocol):
    """Where the engine puts each event record as it happens, in trace order."""

    def append(self, record: dict) -> object: ...


class TraceLog:
    """The sink that keeps every event record in memory."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def append(self, record: dict) -> None:
        self.events.append(record)

    def _lines(self) -> Iterator[bytes]:
        encode = _active_codec().encode
        return (encode(record, _FLOATS[record["kind"]]) for record in self.events)

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
    def stream(path: str | Path) -> Iterator[dict]:
        """Yield the event records of a trace file one newline-terminated line
        at a time.

        Only a newline ends an event: strings may hold U+2028 and other
        characters that `str.splitlines` breaks on. Each record's `seq` is set
        to the count of events yielded before it. A line that is not a JSON
        object with an integer `step`, a `seq` and a known `kind` raises
        `TraceError` naming it; the other fields are checked where they are
        read.
        """
        decode = _active_codec().decode
        seq = 0
        with Path(path).open("rb") as lines:
            for number, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    record = decode(line)
                    if type(record) is not dict:
                        # Always raises: any other JSON value lacks `pop` or
                        # refuses the key, and that error is the message.
                        record.pop("step")
                    step = record["step"]
                    if type(step) is not int:
                        raise ValueError(f"field 'step' of type "
                                         f"{type(step).__name__}, not int")
                    if "seq" not in record:
                        raise KeyError("seq")
                    kind = record["kind"]
                    if kind not in EVENT_KINDS:
                        raise ValueError(f"unknown event kind: {kind}")
                except (ValueError, KeyError, AttributeError, TypeError) as exc:
                    raise TraceError(f"{path}: line {number}: {exc}") from None
                record["seq"] = seq
                yield record
                seq += 1

    @classmethod
    def read(cls, path: str | Path) -> "TraceLog":
        log = cls()
        log.events = list(cls.stream(path))
        return log


class TraceWriter:
    """The sink that writes each event record's line to a trace file as it
    comes and passes the record on to `then`, holding no record.

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
        self._encode: Callable[[dict, tuple[str, ...]], bytes] | None = None

    def append(self, record: dict) -> None:
        floats = _FLOATS[record["kind"]]
        if self._out is None:
            self._open()
        self._out.write(self._encode(record, floats))
        self.then.append(record)

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._out = self.path.open("wb")
        self._encode = _active_codec().encode

    def close(self) -> None:
        if self._out is not None:
            self._out.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
