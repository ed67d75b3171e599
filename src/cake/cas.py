"""Content-addressed blob store with tamper-evident, hash-derived locators.

A locator is the SHA-256 digest of the blob bytes, rendered as base58btc of
``0x12 0x20 || digest`` (the conventional prefix for a 32-byte SHA-256
multihash), so every rendered locator starts with "Qm". The digest is
computed over the raw bytes, so locators are shaped like familiar v0
content ids but are not interchangeable with a real IPFS daemon, which
hashes a chunked DAG encoding; a networked client can be slotted in behind
the same :class:`BlobStore` interface.

:class:`BlobStore` holds the rules every backing store shares. A put of more
than :data:`MAX_BLOB_BYTES` (64 MiB) raises :class:`BlobTooLarge`; the limit
is a module constant, read at each put. A put hashes its own immutable
copy of the bytes, so what a store keeps cannot change behind it. A read
re-hashes the returned bytes unless they are that very object, which
cannot have changed since it was hashed; so returned bytes always hash to
the locator. Every :class:`DirectoryBlobStore` read (``pread`` returns new
bytes) and a :class:`MemoryBlobStore` entry replaced since its put are
re-hashed, and a blob that no longer matches its locator raises
:class:`IntegrityViolation` instead of being returned. Two stores sit behind it:
:class:`MemoryBlobStore`, a dict, and :class:`DirectoryBlobStore`, one
append-only pack file per deployment home (a log with an in-memory index,
as in Bitcask).

:class:`FrameLog` owns the framing of the home's append-only files, the
pack and the chain file: it writes every frame header, and holds the scan
of whole frames that stops at a torn tail, the re-read of the frames
already scanned, and the one checked append that cuts that tail off,
refuses frames another writer added, and cuts a failed write back.

Parsed locators are memoized by their text in a fixed-size LRU table, since
every reader of a document parses the same locator from its chain record.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import hashlib
import logging
import os
import stat
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import CakeError

DIGEST_BYTES = 32
MULTIHASH_PREFIX = b"\x12\x20"  # SHA-256, 32 bytes
MAX_BLOB_BYTES = 64 * 1024 * 1024
# The file of :class:`DirectoryBlobStore` in its root.
PACK_NAME = "blobs.pack"

BASE58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_BASE58_INDEX = {c: i for i, c in enumerate(BASE58_ALPHABET)}

_log = logging.getLogger(__name__)


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


class LogConflict(StorageFailure):
    """A frame log holds a whole frame past the end that this process read
    or wrote, or is shorter than that end: another writer changed it."""


class FrameLog:
    """An append-only file of frames, each a header then a body. The header
    is the body's 4-byte big-endian length, then ``fields`` (a
    :mod:`struct` format, such as the pack's ``"32s"`` digest).

    :attr:`end` is the end of the last whole frame read or written through
    this object. Frames past it that are cut short (a crash mid-append) are
    a torn tail: :meth:`read_new` stops before it, and :meth:`append` cuts
    it off. Callers pass an open descriptor and hold whatever lock keeps
    writers apart; the log opens nothing itself.
    """

    def __init__(self, path: str | Path, fields: str = "") -> None:
        self.path = Path(path)
        self.header = struct.Struct(">I" + fields)
        self.end = 0

    def _whole_frame(self, fd: int, pos: int, size: int) -> tuple | None:
        """The header fields of the whole frame at ``pos`` of a file of
        ``size`` bytes, or ``None`` where none ends within it."""
        if pos + self.header.size > size:
            return None
        fields = self.header.unpack(os.pread(fd, self.header.size, pos))
        return fields if pos + self.header.size + fields[0] <= size else None

    def read(self, fd: int, pos: int = 0,
             size: int | None = None) -> Iterator[tuple[tuple, int]]:
        """Yield (header fields, body offset) for each whole frame from
        ``pos`` on, in a file of ``size`` bytes: by default, each frame
        before :attr:`end`."""
        size = self.end if size is None else size
        while (fields := self._whole_frame(fd, pos, size)) is not None:
            yield fields, pos + self.header.size
            pos += self.header.size + fields[0]

    def read_new(self, fd: int) -> Iterator[tuple[tuple, int]]:
        """Yield (header fields, body offset) for each whole frame past
        :attr:`end`, moving :attr:`end` past it; stop at a torn tail."""
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            raise StorageFailure(f"{self.path} is not a regular file")
        for fields, body in self.read(fd, self.end, st.st_size):
            self.end = body + fields[0]
            yield fields, body

    def append(self, fd: int, body: bytes, *fields: object) -> int:
        """Write one frame, ``body`` under a header of its length and
        ``fields``, at :attr:`end` in one ``pwritev`` and return the offset
        the frame starts at.

        A torn tail is cut off first, with a warning. Raises
        :class:`LogConflict`, and writes nothing, when the file holds a
        whole frame past :attr:`end` or is shorter than it. A write that
        fails or comes up short is cut back to :attr:`end` and raises
        :class:`StorageFailure`, so the file keeps its whole frames.
        """
        header = self.header.pack(len(body), *fields)
        end = self.end
        size = os.fstat(fd).st_size
        if size < end or self._whole_frame(fd, end, size) is not None:
            raise LogConflict(f"{self.path} changed since it was read ({end} -> {size} bytes)")
        try:
            if size > end:
                _log.warning("%s: truncating a torn %d-byte tail", self.path, size - end)
                os.ftruncate(fd, end)
            written = os.pwritev(fd, [header, body], end)
            if written != len(header) + len(body):
                raise OSError(f"short write of {written} bytes")
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.ftruncate(fd, end)
            raise StorageFailure(f"cannot append to {self.path} at {end}: {exc}") from exc
        self.end = end + written
        return end


class BlobStore:
    """put/get over some backing storage keyed by content digest."""

    def put(self, data: bytes) -> Locator:
        """Persist the blob; idempotent, returns the content locator. Raises
        :class:`BlobTooLarge` for a blob over :data:`MAX_BLOB_BYTES`."""
        if len(data) > MAX_BLOB_BYTES:
            raise BlobTooLarge(f"blob of {len(data)} bytes exceeds cap {MAX_BLOB_BYTES}")
        data = bytes(data)  # the store keeps what was hashed; no copy of bytes
        loc = locator_for(data)
        self._write(loc, data)
        return loc

    def get(self, loc: Locator) -> bytes:
        """Fetch and verify: returned bytes always hash to the locator.

        Bytes that are the very object a put of this store hashed are
        returned unhashed: ``bytes`` cannot change, so they still hash to
        the locator. Any other bytes are re-hashed."""
        data = self._read(loc)
        if data is not self._hashed(loc) and hashlib.sha256(data).digest() != loc.digest:
            raise IntegrityViolation(f"stored blob no longer matches {loc}")
        return data

    def _write(self, loc: Locator, data: bytes) -> None:
        raise NotImplementedError

    def _read(self, loc: Locator) -> bytes:
        raise NotImplementedError

    def _hashed(self, loc: Locator) -> bytes | None:
        """The bytes object a put of this store hashed for ``loc`` and still
        holds, or ``None``: a store that reads new bytes holds none."""
        return None


class MemoryBlobStore(BlobStore):
    """Dict-backed store for tests and throwaway deployments. A get of a
    blob as its put stored it is not re-hashed."""

    def __init__(self) -> None:
        self._blobs: dict[bytes, bytes] = {}
        # digest -> the object put hashed; an entry of _blobs replaced since
        # is no longer that object, so its get re-hashes it
        self._put: dict[bytes, bytes] = {}

    def _write(self, loc: Locator, data: bytes) -> None:
        self._blobs[loc.digest] = self._put[loc.digest] = data

    def _hashed(self, loc: Locator) -> bytes | None:
        return self._put.get(loc.digest)

    def _read(self, loc: Locator) -> bytes:
        try:
            return self._blobs[loc.digest]
        except KeyError:
            raise BlobNotFound(f"no blob stored under {loc}")


class DirectoryBlobStore(BlobStore):
    """Every blob of a home in one append-only :class:`FrameLog`,
    ``<root>/blobs.pack``.

    A frame is a 4-byte big-endian body length, the 32-byte SHA-256 digest
    of the body, then the body. Nothing is read or created until the first
    put or get. An index from digest to (body offset, length) is then built
    by one :meth:`FrameLog.read_new` scan, which reads each frame header
    with ``pread``, never a body. A later miss, and every put, first scans
    the frames past the log's end, so a store sees frames another process
    appended since it last looked.

    A put appends one frame under an exclusive ``flock`` on the pack, after
    that scan; writers in different processes or threads therefore never
    interleave frames, and a blob already in the pack is not written twice.
    A frame cut short by a crash (the last one) is not indexed, and the
    next put truncates it; an append that fails is cut back before
    :class:`StorageFailure` is raised (:meth:`FrameLog.append`). As with
    the chain file, the append does not ``fsync``.

    A get reads the body with ``pread``, and :meth:`BlobStore.get` re-hashes
    it every time, so a bit flipped after an earlier read is still caught.
    Descriptors are opened per call and closed before it returns.
    """

    def __init__(self, root: str | Path) -> None:
        self._log = FrameLog(Path(root) / PACK_NAME, "32s")
        # digest -> body offset << 32 | body length: one int per blob takes
        # ~150 bytes with its key, against ~230 for an (offset, length) tuple.
        self._index: dict[bytes, int] = {}

    def _scan(self, fd: int) -> None:
        """Index the whole frames past the log's end."""
        for (length, digest), body in self._log.read_new(fd):
            self._index[digest] = body << 32 | length

    def _write(self, loc: Locator, data: bytes) -> None:
        if loc.digest in self._index:
            return  # idempotent re-put
        try:
            fd = os.open(self._log.path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError as exc:
            raise StorageFailure(f"cannot persist blob: {exc}") from exc
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            self._scan(fd)
            if loc.digest in self._index:
                return
            start = self._log.append(fd, data, loc.digest)
            self._index[loc.digest] = (start + self._log.header.size) << 32 | len(data)
        except OSError as exc:
            raise StorageFailure(f"cannot persist blob: {exc}") from exc
        finally:
            os.close(fd)  # releases the lock

    def _read(self, loc: Locator) -> bytes:
        try:
            fd = os.open(self._log.path, os.O_RDONLY)
        except FileNotFoundError:
            raise BlobNotFound(f"no blob stored under {loc}") from None
        except OSError as exc:
            raise StorageFailure(f"cannot read blob: {exc}") from exc
        try:
            if loc.digest not in self._index:
                self._scan(fd)
            entry = self._index.get(loc.digest)
            if entry is None:
                raise BlobNotFound(f"no blob stored under {loc}")
            return os.pread(fd, entry & 0xFFFF_FFFF, entry >> 32)
        except OSError as exc:
            raise StorageFailure(f"cannot read blob: {exc}") from exc
        finally:
            os.close(fd)
