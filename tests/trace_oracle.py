"""The per-line trace reader that `TraceLog.stream`'s slow path replaced,
kept as the oracle the stream is checked against: each line decoded by its
codec, checked by itself, and decoded again by the standard library when the
codec may have read it otherwise."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Generator

from teamsim.trace import _BIG_FLOAT, SCHEMAS, TraceError, orjson_codec

_decode = json.JSONDecoder().decode


def std_loads(line: bytes) -> object:
    """The value of one line as `json`'s whole decoder reads it, or its
    ValueError: the standard-library decode the trace codec's reads of a line
    through the C scanner must match."""
    try:
        return _decode(line.decode("utf-8"))
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


class _FieldError(ValueError):
    """Raised with (record, detail) for a field missing or of a wrong type."""


# Each kind's (field, its types) pairs, as `_as_event` walks them.
_FIELDS = {kind: tuple(schema.fields.items()) for kind, schema in SCHEMAS.items()}


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


def _std_event(line: bytes) -> dict:
    return _as_event(std_loads(line))


def _orjson_decode() -> Callable[[bytes], dict] | None:
    """The orjson codec's own line decoder, or None without orjson."""
    codec = orjson_codec()
    if codec is None:
        return None
    loads = codec.loads

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

    return decode


# Each codec's line decoder, by the name `conftest.trace_codecs` gives it.
DECODERS = {name: decode for name, decode in
            (("orjson", _orjson_decode()), ("stdlib", _std_event)) if decode}


def line_by_line(path: str | Path, lines: list[bytes], read: int, seq: int,
                 decode: Callable[[bytes], dict]) -> Generator[dict, None, int]:
    """Yield the records of `lines`, the lines after the first `read` of the
    file at `path`, decoding and checking each by itself and for the `seq`
    counted from `seq`; raise `TraceError` at the first bad one. Returns the
    next seq."""
    for number, line in enumerate(lines, start=read + 1):
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
        if type(record["seq"]) is not int or record["seq"] != seq:
            raise TraceError.at(path, {**record, "seq": seq},
                                f"has seq {record['seq']!r}, not {seq}")
        yield record
        seq += 1
    return seq
