"""Append-only run trace with a stable JSONL serialization.

One event per line, no wall-clock timestamps: two runs that behave
identically produce byte-identical files. An event is one record, the dict
that is its line's JSON object: `step`, `seq` and `kind`, then the fields
`SCHEMAS` lists for the kind, in that order. The engine builds each record
once and hands its records to a sink in batches, in trace order: `TraceLog`
keeps them, `TraceWriter` writes each batch's lines to the file in one call
and passes the batch on. Reading a file yields the decoded records, checked
against their kinds' schemas a chunk of lines at a time (`TraceLog.chunks`,
which `teamsim report` folds chunk by chunk), so what reads them reads their
fields unchecked: an event that lacks a field of its kind or holds one of the
wrong type, or whose `seq` is not its place in the file, is a `TraceError`.

Lines are encoded and decoded with orjson when it is installed (the `fast`
extra) and with the standard `json` module otherwise; the bytes written and
the values read back are the same under either. orjson writes some floats
differently (`1e16` for `1e+16`, `0.00001` for `1e-05`, `null` for `NaN`) and
cannot write integers wider than 64 bits, so the standard library writes a
whole batch that holds one; only a kind's float fields are looked at before
writing.
orjson reads integers outside [-2**63, 2**64) as floats. The standard library
alone reads again, line by line, a chunk the column check does not pass as
the codec read it: one with a bad or blank line, a field its kind lacks, or a
float that may have been an integer; `_fault` words the error.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Protocol


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


SCHEMAS = {
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
}

# Each kind's float fields, read by the encoder for every record written.
_FLOATS = {kind: schema.floats for kind, schema in SCHEMAS.items()}


def _floats_of(records: list[dict]) -> list[tuple[str, ...]]:
    """Each record's float fields, looked up by its kind; ValueError for an
    unknown kind."""
    try:
        return [_FLOATS[record["kind"]] for record in records]
    except KeyError as exc:
        raise ValueError(f"unknown event kind: {exc.args[0]}") from None


# Records are flat dicts of scalars and short lists built by the engine, so
# there is no cycle for the encoder to check.
_std_encode = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False,
                               check_circular=False).encode
_std_decoder = json.JSONDecoder()
_std_decode, _std_scan = _std_decoder.decode, _std_decoder.scan_once

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


def _fault(value: object, seq: int) -> tuple[str, bool] | None:
    """Why `value`, a decoded line, is not the event numbered `seq` whose
    fields' `type()`s its kind accepts, and whether that names the event (a
    field missing or of a wrong type, or another `seq`) or only its line; None
    when it is one."""
    if type(value) is not dict:
        return "not a JSON object", False
    for name in ("step", "kind", "seq"):
        if name not in value:
            return f"lacks field {name!r}", False
    if type(value["step"]) is not int:
        return f"field 'step' of type {type(value['step']).__name__}, not int", False
    kind = value["kind"]
    schema = SCHEMAS.get(kind) if type(kind) is str else None
    if schema is None:
        return f"unknown event kind: {kind}", False
    for name, types in schema.fields.items():
        if name not in value:
            return f"lacks field {name!r}", True
        field = value[name]
        if type(field) not in types:
            expected = "a number" if float in types else types[0].__name__
            return (f"has field {name!r} of type {type(field).__name__}, "
                    f"not {expected}"), True
        if type(field) is list:
            for item in field:
                if type(item) is not str:
                    return (f"has field {name!r} holding {type(item).__name__}, "
                            "not str"), True
    if type(value["seq"]) is not int or value["seq"] != seq:
        # A line duplicated, dropped or moved.
        return f"has seq {value['seq']!r}, not {seq}", True
    return None


_KIND, _SEQ = itemgetter("kind"), itemgetter("seq")
_ONLY_INT, _ONLY_STR = frozenset({int}), frozenset({str})
# Each kind as `_conforms` checks it: its records' key count, a getter of
# (step, seq, *fields) that raises KeyError when a record lacks one, and per
# field the `type()`s its value may have, whether it is a list (whose items
# must be str) and whether it may hold a float (which must lie within
# ±_BIG_FLOAT).
_COLUMNS = {kind: (3 + len(schema.fields), itemgetter("step", "seq", *schema.fields),
                   tuple((frozenset(types), list in types, float in types)
                         for types in schema.fields.values()))
            for kind, schema in SCHEMAS.items()}


def _conforms(records: list) -> bool:
    """Whether every value in `records`, a chunk of decoded lines, is an event
    `_fault` passes, read as the standard library reads it, with an integer
    `seq` that `TraceLog.chunks` then counts: the one test that accepts a
    chunk as the codec read it.

    The records are grouped by kind in one C-level pass, and each column of
    a group is checked in a few more, so no Python code runs per record; the
    tables it reads are built from `SCHEMAS`. False also for a field its kind
    lacks, or a number the codec may have misread, which `_fault` passes.
    """
    try:
        # Looking up "kind" raises TypeError in a value that is not an object.
        kinds = list(map(_KIND, records))
        groups = {kind: [] for kind in set(kinds)}
        deque(map(list.append, map(groups.__getitem__, kinds), records), maxlen=0)
        for kind, group in groups.items():
            size, row, fields = _COLUMNS[kind]
            if set(map(len, group)) != {size}:
                return False
            steps, seqs, *columns = zip(*map(row, group))
            if set(map(type, chain(steps, seqs))) != _ONLY_INT:
                return False
            for (types, items, number), column in zip(fields, columns):
                if not set(map(type, column)) <= types:
                    return False
                if items and not set(
                        map(type, chain.from_iterable(column))) <= _ONLY_STR:
                    return False
                # `filter` drops None, and zeros, which lie within the bound.
                if number and not all(map(_BIG_FLOAT.__gt__,
                                          map(abs, filter(None, column)))):
                    return False
    except (KeyError, TypeError):  # a missing key, or an unknown or unhashable kind
        return False
    return True


class Codec(NamedTuple):
    """How event records become lines of bytes, and a line a JSON value."""

    # (records, each one's float fields) -> their lines, each ending in "\n"
    encode: Callable[[list[dict], list[tuple[str, ...]]], bytes]
    # one line of bytes -> the JSON value it holds, unchecked; ValueError when
    # it holds none
    loads: Callable[[bytes], object]


def _std_lines(records: list[dict], floats: object = None) -> bytes:
    """The records' lines as the standard library writes them, which needs no
    look at their float fields."""
    return "\n".join([*map(_std_encode, records), ""]).encode("utf-8")


def _std_loads(line: bytes) -> object:
    text = line.decode("utf-8")
    # The C scanner reads a line that is one JSON value and its newline;
    # anything else is read, or refused, by the whole decoder, which words
    # the error.
    try:
        value, end = _std_scan(text, 0)
        if text[end:] == "\n" or end == len(text):
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
    try:
        return _std_decode(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


STDLIB_CODEC = Codec(_std_lines, _std_loads)


def _floats_in_range(records: list[dict], floats: list[tuple[str, ...]]) -> bool:
    """Whether every float field of `records` holds None or a number in
    [_FLOAT_LOW, _FLOAT_HIGH): orjson writes `null` and such a number as the
    standard library does. A number costs one comparison; only a batch in
    which a comparison raised, as one with a None does, is looked at again,
    value by value. False for anything else: a zero, a negative, non-finite
    or out-of-range number, another type or a missing field."""
    try:
        for record, names in zip(records, floats):
            for name in names:
                if not _FLOAT_LOW <= record[name] < _FLOAT_HIGH:
                    return False
    except KeyError:
        return False
    except TypeError:
        return _floats_in_range_or_null(records, floats)
    return True


def _floats_in_range_or_null(records: list[dict],
                             floats: list[tuple[str, ...]]) -> bool:
    """`_floats_in_range` for a batch that may hold a None."""
    try:
        for record, names in zip(records, floats):
            for name in names:
                value = record[name]
                if value is not None and not _FLOAT_LOW <= value < _FLOAT_HIGH:
                    return False
    except (KeyError, TypeError):
        return False
    return True


def orjson_codec() -> Codec | None:
    """The orjson codec, or None. A batch that orjson might write otherwise
    than the standard library, one with a float outside `_floats_in_range` or
    an integer beyond 64 bits, is written wholly by the standard library."""
    try:
        import orjson
    except ImportError:
        return None
    dumps, loads = orjson.dumps, orjson.loads
    encode_error = orjson.JSONEncodeError

    def encode(records: list[dict], floats: list[tuple[str, ...]]) -> bytes:
        if _floats_in_range(records, floats):
            try:
                # `map` calls `dumps` with no keyword argument, which a
                # `partial` would pass on every call; the join and its empty
                # last item end each line.
                return b"\n".join([*map(dumps, records), b""])
            except encode_error:  # an integer beyond 64 bits
                pass
        return _std_lines(records)

    return Codec(encode, loads)


# Resolved at the first encode or decode, so that importing the package does
# not import orjson. Tests set it to choose a codec.
_codec: Codec | None = None


def _active_codec() -> Codec:
    global _codec
    if _codec is None:
        _codec = orjson_codec() or STDLIB_CODEC
    return _codec


# About how many bytes of whole lines `TraceLog.chunks` reads and checks at
# once: some 260 records of a run's trace. Twice as many read about as fast
# but raised a `run` + `report`'s peak memory by some 0.4 MB; half as many
# read about 5% slower.
_CHUNK_BYTES = 1 << 15
# How many records `TraceLog.write` encodes and writes at once.
_WRITE_RECORDS = 256


def _line_by_line(path: str | Path, lines: list[bytes], read: int,
                  seq: int) -> tuple[list[dict], TraceError | None]:
    """The records of `lines`, the lines after the first `read` of the file at
    `path`, decoding each with the standard library and checking it by itself
    and for the `seq` counted from `seq`, up to the first bad one, and the
    `TraceError` of that line, or None when there is none."""
    records: list[dict] = []
    for number, line in enumerate(lines, start=read + 1):
        if not line.strip():
            continue
        try:
            record = _std_loads(line)
        except ValueError as exc:
            return records, TraceError(f"{path}: line {number}: {exc}")
        if fault := _fault(record, seq):
            detail, names_the_event = fault
            if names_the_event:
                return records, TraceError.at(path, {**record, "seq": seq}, detail)
            return records, TraceError(f"{path}: line {number}: {detail}")
        records.append(record)
        seq += 1
    return records, None


class TraceSink(Protocol):
    """Where the engine puts the event records as they happen: a batch at a
    time, in trace order. The sink owns each list it is given."""

    def extend(self, records: list[dict]) -> object: ...


class TraceLog:
    """The sink that keeps every event record in memory."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def extend(self, records: list[dict]) -> None:
        self.events.extend(records)

    def to_jsonl(self) -> str:
        events = self.events
        return _active_codec().encode(events, _floats_of(events)).decode("utf-8")

    def write(self, path: str | Path) -> Path:
        # A few hundred lines at a time: the encoded lines of all the events
        # would hold the whole file, and more.
        encode, events = _active_codec().encode, self.events
        path = Path(path)
        with path.open("wb") as out:
            for start in range(0, len(events), _WRITE_RECORDS):
                batch = events[start:start + _WRITE_RECORDS]
                out.write(encode(batch, _floats_of(batch)))
        return path

    @staticmethod
    def chunks(path: str | Path) -> Iterator[list[dict]]:
        """Yield the event records of a trace file, a list per chunk of whole
        newline-terminated lines, each chunk read and checked as a whole.

        Only a newline ends an event: strings may hold U+2028 and other
        characters that `str.splitlines` breaks on. Every line is checked
        against its kind's schema: one that is not a JSON object with an
        integer `step`, a `seq` and a known `kind` raises `TraceError` naming
        its line, and an event that lacks a field of its kind or holds one of
        the wrong type raises one naming the event. So does an event whose
        `seq` is not the count of events before it, as the engine wrote it:
        a line duplicated, dropped or moved.

        A chunk holds about `_CHUNK_BYTES` of lines, so memory stays bounded
        by one chunk (or one longer line). Its lines are decoded and checked
        column by column (`_conforms`); a chunk that does not pass as a whole
        is read again line by line by the standard library, whatever the
        codec, which yields the records before its first bad line (when there
        are any) and then raises that line's error (`_fault`), or accepts what
        the column check passed up (blank lines, fields a kind lacks, numbers
        the codec may have misread). A chunk that passes also has its `seq`s
        compared with the count, and is read again the same way when they
        differ.
        """
        codec = _active_codec()
        seq = read = 0
        with Path(path).open("rb") as file:
            while lines := file.readlines(_CHUNK_BYTES):
                try:
                    records = list(map(codec.loads, lines))
                except ValueError:  # a line that holds no JSON value
                    records = None
                if not (records is not None and _conforms(records)
                        and list(map(_SEQ, records)) == list(range(seq, seq + len(records)))):
                    records, error = _line_by_line(path, lines, read, seq)
                    if error is not None:
                        if records:
                            yield records
                        raise error
                if records:
                    seq += len(records)
                    yield records
                read += len(lines)

    @staticmethod
    def stream(path: str | Path) -> Iterator[dict]:
        """Yield the event records of a trace file one at a time, as
        `chunks` reads and checks them."""
        return chain.from_iterable(TraceLog.chunks(path))

    @classmethod
    def read(cls, path: str | Path) -> "TraceLog":
        log = cls()
        log.events = list(cls.stream(path))
        return log


class TraceWriter:
    """The sink that writes each batch of event records to a trace file as it
    comes, in one write, and passes the batch on to `then`, holding no record.

    The file, and any missing directory above it, is made at the first batch,
    so a run without events creates nothing, and a path that cannot be written
    raises `OSError` there. An earlier file at the path, and the `stale` files,
    are removed before it is opened: the trace is a new file (a link there is
    replaced, not written through), and an earlier run's other outputs must
    not sit beside it. Use it
    as a context manager: leaving the block closes the file, also when the run
    raises, which leaves the lines written so far.
    """

    def __init__(self, path: str | Path, then: TraceSink,
                 stale: Iterable[Path] = ()) -> None:
        self.path = Path(path)
        self.then = then
        self.stale = tuple(stale)
        self._out: BinaryIO | None = None
        self._encode: Callable[[list[dict], list[tuple[str, ...]]], bytes] | None = None

    def extend(self, records: list[dict]) -> None:
        floats = _floats_of(records)  # every kind is checked before writing
        if self._out is None:
            self._open()
        self._out.write(self._encode(records, floats))
        self.then.extend(records)

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for path in (self.path, *self.stale):
            path.unlink(missing_ok=True)
        self._out = self.path.open("wb")
        self._encode = _active_codec().encode

    def close(self) -> None:
        if self._out is not None:
            self._out.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
