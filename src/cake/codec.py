"""Canonical length-prefixed binary serialization, as declared records.

One deterministic layout is shared by ciphertext containers, user keys,
ledger transactions and blocks, actor metadata, and the wire protocol:
fields in declaration order, variable-length fields prefixed with a 4-byte
big-endian length, fixed-width integers big-endian, repeated entries after
a 4-byte big-endian count, map entries sorted by key bytes.

Each record is declared once, as a tuple of fields, and that one tuple
gives both its encoder and its decoder: :func:`encode` writes one value per
field, and :func:`decode` reads the values back and refuses bytes after the
last field. The field kinds are :data:`U32`, :data:`U64`, :data:`BYTES`,
:data:`STR`, :func:`raw` and :func:`counted`. Each is a :class:`Field`
over a :class:`Writer` method and a :class:`Reader` method: those two
classes are the primitives every record is built from. A :func:`raw` field
refuses a value of another width at encode, so every record written reads
back. Outside this module, only ``abe``'s slice-header encoder and
container parse lay out fields by hand: the settled header encoding, and
the read path's one checked pass.
"""

from __future__ import annotations

import functools
from operator import methodcaller
from typing import Any, Callable, NamedTuple, Sequence

from .errors import CakeError


class CodecError(CakeError):
    """Malformed or truncated canonical encoding."""


def decode_str(raw: bytes) -> str:
    """A string field's bytes as text; raises :class:`CodecError` unless
    they are UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid utf-8 in string field: {exc}") from exc


class Writer:
    """Accumulates canonically encoded fields."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def put_u32(self, value: int) -> None:
        self._parts.append(value.to_bytes(4, "big"))

    def put_u64(self, value: int) -> None:
        self._parts.append(value.to_bytes(8, "big"))

    def put_bytes(self, data: bytes) -> None:
        """Variable-length field: 4-byte big-endian length, then the bytes."""
        self._parts += (len(data).to_bytes(4, "big"), data)

    def put_str(self, text: str) -> None:
        data = text.encode("utf-8")
        self._parts += (len(data).to_bytes(4, "big"), data)

    def put_raw(self, data: bytes) -> None:
        """Fixed-width field; the length is part of the schema, not the wire."""
        self._parts.append(data)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    """Consumes fields written by :class:`Writer`, validating bounds."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        pos = self._pos
        end = pos + n
        if n < 0 or end > len(self._data):
            raise CodecError("truncated encoding")
        self._pos = end
        return self._data[pos:end]

    def take_u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def take_u64(self) -> int:
        return int.from_bytes(self._take(8), "big")

    def take_bytes(self) -> bytes:
        return self._take(int.from_bytes(self._take(4), "big"))

    def take_str(self) -> str:
        return decode_str(self._take(int.from_bytes(self._take(4), "big")))

    def take_raw(self, n: int) -> bytes:
        return self._take(n)

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise CodecError(f"{self.remaining} trailing bytes after last field")


class Field(NamedTuple):
    """One field of a record: how a :class:`Writer` puts its value, how a
    :class:`Reader` takes it back, and what it is made of: the width of a
    :func:`raw` field, the entry fields of a :func:`counted` one."""
    put: Callable[[Writer, Any], None]
    take: Callable[[Reader], Any]
    of: Any = None


U32 = Field(Writer.put_u32, Reader.take_u32)
U64 = Field(Writer.put_u64, Reader.take_u64)
BYTES = Field(Writer.put_bytes, Reader.take_bytes)
STR = Field(Writer.put_str, Reader.take_str)


def raw(n: int) -> Field:
    """A field of exactly ``n`` bytes, with no length on the wire; a value
    of any other length raises :class:`CodecError` at encode."""
    def put(w: Writer, data: bytes) -> None:
        if len(data) != n:
            raise CodecError(f"{len(data)} bytes for a field of {n}")
        w.put_raw(data)
    return Field(put, methodcaller("take_raw", n), n)


def counted(*fields: Field) -> Field:
    """A u32 count, then that many entries of ``fields``. An entry is a bare
    value when there is one field, else a tuple of one value per field; it
    is decoded as such, in a list."""
    if len(fields) == 1:
        put, take = fields[0].put, fields[0].take

        def take_entries(r: Reader) -> list[Any]:
            return [take(r) for _ in range(r.take_u32())]
    else:
        put = functools.partial(_put, fields)

        def take_entries(r: Reader) -> list[Any]:
            return [tuple([field.take(r) for field in fields]) for _ in range(r.take_u32())]

    def put_entries(w: Writer, entries: Sequence[Any]) -> None:
        w.put_u32(len(entries))
        for entry in entries:
            put(w, entry)
    return Field(put_entries, take_entries, fields)


def _put(fields: Sequence[Field], w: Writer, values: Sequence[Any]) -> None:
    if len(values) != len(fields):
        raise CodecError(f"{len(values)} values for a record of {len(fields)} fields")
    for field, value in zip(fields, values):
        field.put(w, value)


def encode(fields: Sequence[Field], *values: Any) -> bytes:
    """The record of ``fields`` holding ``values``, one per field; raises
    :class:`CodecError` on a wrong number of values, here or in an entry of
    a :func:`counted` field."""
    w = Writer()
    _put(fields, w, values)
    return w.getvalue()


def decode(fields: Sequence[Field], data: bytes) -> list[Any]:
    """The values of the record of ``fields`` that is exactly ``data``;
    raises :class:`CodecError` when ``data`` ends before the last field or
    goes on after it."""
    r = Reader(data)
    values = [field.take(r) for field in fields]
    r.expect_end()
    return values
