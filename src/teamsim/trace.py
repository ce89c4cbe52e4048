"""Append-only run trace with a stable JSONL serialization.

One event per line, no wall-clock timestamps: two runs that behave
identically produce byte-identical files. An event is one record, the dict
that is its line's JSON object: `step`, `seq` and `kind`, then the fields
`SCHEMAS` lists for the kind, in that order. The engine builds each record
once and hands it to a sink as it happens: `TraceLog` keeps the records,
`TraceWriter` writes each one's line to the file and passes the record on.
Reading a file yields the decoded records, each checked once against its
kind's schema, so what reads them reads their fields unchecked: an event
that lacks a field of its kind or holds one of the wrong type is a
`TraceError`.

Lines are encoded and decoded with orjson when it is installed (the `fast`
extra) and with the standard `json` module otherwise; the bytes written and
the values read back are the same under either. orjson writes some floats
differently (`1e16` for `1e+16`, `0.00001` for `1e-05`, `null` for `NaN`),
cannot write integers wider than 64 bits and reads integers outside
[-2**63, 2**64) as floats, so a line that holds such a value takes the
standard-library path. Only the fields `SCHEMAS` marks as float fields are
looked at before writing. The standard library decodes again, and words the
error of, a line that fails the check under orjson, has a field its kind
lacks, or holds in a float field a float that may have been an integer.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, NamedTuple, Protocol


class Schema(NamedTuple):
    """An event kind's fields after `step`, `seq` and `kind`, in key order."""

    fields: dict[str, tuple[type, ...]]  # name -> the types its value may have
    # The fields that may hold a float; no other field holds one.
    floats: tuple[str, ...]


def _schema(fields: dict[str, tuple[type, ...]]) -> Schema:
    return Schema(fields, tuple(name for name, types in fields.items()
                                if float in types))


# A number is a float or an int, never a bool; a list holds only str.
_STR, _INT, _BOOL, _LIST, _NUMBER = (str,), (int,), (bool,), (list,), (float, int)
_STR_OR_NULL, _NUMBER_OR_NULL = (str, type(None)), (float, int, type(None))


class _Schemas(dict):
    """Each kind's schema; looking up an unknown kind raises."""

    def __missing__(self, kind: str) -> Schema:
        raise ValueError(f"unknown event kind: {kind}")


SCHEMAS = _Schemas({
    "action": _schema({"agent": _STR, "action": _STR, "target": _STR_OR_NULL,
                       "remaining": _INT}),
    "message_sent": _schema({
        "message_id": _STR, "thread_id": _STR, "from": _STR, "to": _LIST,
        "channel": _STR, "type": _STR, "about_task": _STR_OR_NULL,
        "words": _INT, "cost_h": _NUMBER, "sent_step": _INT}),
    "message_delivered": _schema({"message_id": _STR, "to": _STR, "from": _STR,
                                  "type": _STR, "thread_id": _STR}),
    "af_update": _schema({"agent": _STR, "task": _STR, "old": _NUMBER_OR_NULL,
                          "delta": _NUMBER_OR_NULL, "new": _NUMBER,
                          "cause": _STR}),
    "progress": _schema({"agent": _STR, "task": _STR, "hours": _NUMBER,
                         "effective": _NUMBER, "af": _NUMBER,
                         "progress": _NUMBER}),
    "task_done": _schema({"task": _STR, "root": _BOOL, "boundary": _INT}),
    "warning": _schema({"source": _STR, "detail": _STR}),
})
# Each kind's (field, its types) pairs, as `_as_event` walks them.
_FIELDS = {kind: tuple(schema.fields.items()) for kind, schema in SCHEMAS.items()}


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

    @classmethod
    def at(cls, path: str | Path, record: dict, detail: object) -> "TraceError":
        """The error of the event `record`, read from `path` and numbered."""
        return cls(f"{path}: event {record['seq']} ({record['kind']} at step "
                   f"{record['step']}) {detail}")


class _FieldError(ValueError):
    """Raised with (record, detail) for a field missing or of a wrong type."""


def _as_event(value: object) -> dict:
    """`value`, a decoded line, if it is one event whose fields' `type()`s its
    kind accepts; raises `_FieldError` for a field, `ValueError` otherwise."""
    if type(value) is not dict:
        raise ValueError("not a JSON object")
    try:
        step, kind, _ = value["step"], value["kind"], value["seq"]
    except KeyError as missing:
        raise ValueError(f"lacks field {missing}") from None
    if type(step) is not int:
        raise ValueError(f"field 'step' of type {type(step).__name__}, not int")
    fields = _FIELDS.get(kind) if type(kind) is str else None
    if fields is None:
        raise ValueError(f"unknown event kind: {kind}")
    try:
        for name, types in fields:
            field = value[name]
            if type(field) not in types:
                expected = "a number" if float in types else types[0].__name__
                raise _FieldError(value, f"has field {name!r} of type "
                                         f"{type(field).__name__}, not {expected}")
            if type(field) is list:
                for item in field:
                    if type(item) is not str:
                        raise _FieldError(value, f"has field {name!r} holding "
                                                 f"{type(item).__name__}, not str")
    except KeyError:
        raise _FieldError(value, f"lacks field {name!r}") from None
    return value


class Codec(NamedTuple):
    """How one event record becomes one line of bytes, and back."""

    # (record, its kind's float fields) -> its line, "\n" included
    encode: Callable[[dict, tuple[str, ...]], bytes]
    # one line of bytes -> its event record; ValueError when it is not one
    decode: Callable[[bytes], dict]


def _std_line(record: dict, floats: tuple[str, ...] = ()) -> bytes:
    return (_std_encode(record) + "\n").encode("utf-8")


def _std_event(line: bytes) -> dict:
    return _as_event(_std_decode(line.decode("utf-8")))


STDLIB_CODEC = Codec(_std_line, _std_event)


def orjson_codec() -> Codec | None:
    """The orjson codec with its standard-library guards, or None without orjson."""
    try:
        import orjson
    except ImportError:
        return None
    dumps, loads = orjson.dumps, orjson.loads
    newline = orjson.OPT_APPEND_NEWLINE
    encode_error = orjson.JSONEncodeError

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

    def decode(line: bytes) -> dict:
        # The standard library decodes again, and words the error of, a line
        # orjson rejects or may read otherwise: an integer read as a float fails
        # the check, lies beyond _BIG_FLOAT in a float field, or in an extra field.
        try:
            record = _as_event(loads(line))
        except ValueError:  # orjson's decode error is one
            return _std_event(line)
        schema = SCHEMAS[record["kind"]]
        if len(record) != 3 + len(schema.fields):
            return _std_event(line)
        for name in schema.floats:
            value = record[name]
            if type(value) is float and not -_BIG_FLOAT < value < _BIG_FLOAT:
                return _std_event(line)
        return record

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
        return (encode(record, SCHEMAS[record["kind"]].floats) for record in self.events)

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
        to the count of events yielded before it. Each line is checked once
        against its kind's schema: one that is not a JSON object with an
        integer `step`, a `seq` and a known `kind` raises `TraceError` naming
        its line, and an event that lacks a field of its kind or holds one of
        the wrong type raises one naming the event.
        """
        decode = _active_codec().decode
        seq = 0
        with Path(path).open("rb") as lines:
            for number, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    record = decode(line)
                except _FieldError as exc:
                    record, detail = exc.args
                    record["seq"] = seq
                    raise TraceError.at(path, record, detail) from None
                except ValueError as exc:
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
        floats = SCHEMAS[record["kind"]].floats
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
