"""Canonical length-prefixed binary serialization.

One deterministic layout is shared by ciphertext containers, ledger
transactions and blocks, actor metadata, and the wire protocol: fields in
declaration order, variable-length fields prefixed with a 4-byte big-endian
length, fixed-width integers big-endian, map entries sorted by key bytes.
"""

from __future__ import annotations

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
        self.put_u32(len(data))
        self._parts.append(data)

    def put_str(self, text: str) -> None:
        self.put_bytes(text.encode("utf-8"))

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
        if n < 0 or self._pos + n > len(self._data):
            raise CodecError("truncated encoding")
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out

    def take_u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def take_u64(self) -> int:
        return int.from_bytes(self._take(8), "big")

    def take_bytes(self) -> bytes:
        return self._take(self.take_u32())

    def take_str(self) -> str:
        return decode_str(self.take_bytes())

    def take_raw(self, n: int) -> bytes:
        return self._take(n)

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        if self.remaining:
            raise CodecError(f"{self.remaining} trailing bytes after last field")
