"""Content-addressed blob store with tamper-evident, hash-derived locators.

A locator is the SHA-256 digest of the blob bytes, rendered as base58btc of
``0x12 0x20 || digest`` (the conventional prefix for a 32-byte SHA-256
multihash), so every rendered locator starts with "Qm". The digest is
computed over the raw bytes, so locators are shaped like familiar v0
content ids but are not interchangeable with a real IPFS daemon, which
hashes a chunked DAG encoding; a networked client can be slotted in behind
the same store interface.

Every read re-hashes the returned bytes: a blob that no longer matches its
locator raises :class:`IntegrityViolation` instead of being returned. A
put of more than :data:`MAX_BLOB_BYTES` (64 MiB) raises
:class:`BlobTooLarge`; the limit is a module constant, read at each put.
Parsed locators are memoized by their text in a fixed-size LRU table, since
every reader of a document parses the same locator from its chain record.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .errors import CakeError

DIGEST_BYTES = 32
MULTIHASH_PREFIX = b"\x12\x20"  # SHA-256, 32 bytes
MAX_BLOB_BYTES = 64 * 1024 * 1024

BASE58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_BASE58_INDEX = {c: i for i, c in enumerate(BASE58_ALPHABET)}


class CasError(CakeError):
    pass


class BlobTooLarge(CasError):
    pass


class StorageFailure(CasError):
    pass


class BlobNotFound(CasError):
    pass


class IntegrityViolation(CasError):
    """Stored bytes no longer match their digest: the store was tampered with."""


class MalformedLocator(CasError):
    pass


@dataclass(frozen=True)
class Locator:
    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != DIGEST_BYTES:
            raise MalformedLocator(f"digest must be {DIGEST_BYTES} bytes")

    def render(self) -> str:
        return render_locator(self)

    def __str__(self) -> str:
        return self.render()


def locator_for(data: bytes) -> Locator:
    """Locator a blob would get; a pure function of the bytes."""
    return Locator(hashlib.sha256(data).digest())


def base58_encode(data: bytes) -> str:
    value = int.from_bytes(data, "big")
    digits = []
    while value:
        value, rem = divmod(value, 58)
        digits.append(BASE58_ALPHABET[rem])
    pad = len(data) - len(data.lstrip(b"\x00"))
    return BASE58_ALPHABET[0] * pad + "".join(reversed(digits))


def base58_decode(text: str, size: int) -> bytes:
    value = 0
    for char in text:
        index = _BASE58_INDEX.get(char)
        if index is None:
            raise MalformedLocator(f"invalid base58 character {char!r}")
        value = value * 58 + index
    try:
        return value.to_bytes(size, "big")
    except OverflowError:
        raise MalformedLocator("base58 value out of range for locator")


def render_locator(loc: Locator) -> str:
    return base58_encode(MULTIHASH_PREFIX + loc.digest)


# Parsed locators kept by :func:`parse_locator`. Every reader of a document
# parses the locator its record carries, so reads of one locator outnumber
# its writes; the bound caps what a stream of distinct locators can pin (an
# entry is about 300 bytes).
_LOCATOR_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_LOCATOR_MEMO_SIZE)
def parse_locator(text: str) -> Locator:
    """Inverse of render_locator; rejects wrong length, prefix, or alphabet.

    Memoized by the text; text that raises :class:`MalformedLocator` is not
    cached, and a :class:`Locator` is frozen, so callers may share one.
    """
    raw = base58_decode(text, len(MULTIHASH_PREFIX) + DIGEST_BYTES)
    if base58_encode(raw) != text:
        # catches wrong-length encodings that alias after zero padding
        raise MalformedLocator("locator is not a canonical base58 rendering")
    if not raw.startswith(MULTIHASH_PREFIX):
        raise MalformedLocator("locator does not carry the sha-256 prefix")
    return Locator(raw[len(MULTIHASH_PREFIX):])


class BlobStore:
    """put/get over some backing storage keyed by content digest."""

    def put(self, data: bytes) -> Locator:
        """Persist the blob; idempotent, returns the content locator. Raises
        :class:`BlobTooLarge` for a blob over :data:`MAX_BLOB_BYTES`."""
        if len(data) > MAX_BLOB_BYTES:
            raise BlobTooLarge(f"blob of {len(data)} bytes exceeds cap {MAX_BLOB_BYTES}")
        loc = locator_for(data)
        self._write(loc, data)
        return loc

    def get(self, loc: Locator) -> bytes:
        """Fetch and verify: returned bytes always re-hash to the locator."""
        data = self._read(loc)
        if hashlib.sha256(data).digest() != loc.digest:
            raise IntegrityViolation(f"stored blob no longer matches {loc}")
        return data

    def _write(self, loc: Locator, data: bytes) -> None:
        raise NotImplementedError

    def _read(self, loc: Locator) -> bytes:
        raise NotImplementedError


class MemoryBlobStore(BlobStore):
    """Dict-backed store for tests and throwaway deployments."""

    def __init__(self) -> None:
        self._blobs: dict[bytes, bytes] = {}

    def _write(self, loc: Locator, data: bytes) -> None:
        self._blobs[loc.digest] = data

    def _read(self, loc: Locator) -> bytes:
        try:
            return self._blobs[loc.digest]
        except KeyError:
            raise BlobNotFound(f"no blob stored under {loc}")


class DirectoryBlobStore(BlobStore):
    """One file per blob under ``<root>/blobs/<hex digest>``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._blob_dir = self.root / "blobs"
        try:
            self._blob_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageFailure(f"cannot create blob directory: {exc}") from exc

    def _path(self, loc: Locator) -> Path:
        return self._blob_dir / loc.digest.hex()

    def _write(self, loc: Locator, data: bytes) -> None:
        path = self._path(loc)
        if path.exists():
            return  # idempotent re-put
        try:
            fd, tmp = tempfile.mkstemp(dir=self._blob_dir, prefix=".tmp-")
        except OSError as exc:
            raise StorageFailure(f"cannot persist blob: {exc}") from exc
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise StorageFailure(f"cannot persist blob: {exc}") from exc

    def _read(self, loc: Locator) -> bytes:
        path = self._path(loc)
        if not path.exists():
            raise BlobNotFound(f"no blob stored under {loc}")
        try:
            return path.read_bytes()
        except OSError as exc:
            raise StorageFailure(f"cannot read blob: {exc}") from exc
