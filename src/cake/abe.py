"""Ciphertext-policy encryption of document slices.

Hybrid scheme: each slice's plaintext is sealed with AES-256-GCM under a
fresh data key, the data key is secret-shared along the compiled access tree
of the slice's policy, and every leaf share is wrapped (again AES-GCM) under
a symmetric key derived per attribute from the authority's master secret.
A reader holding wrap keys for a satisfying attribute set unwraps enough
shares to rebuild the data key; anyone else learns nothing but the policy.

Decryption decides from the key's attribute names alone whether the policy
is satisfied, and then opens only the shares of a minimal satisfying leaf
set; a key that does not satisfy the policy opens none. The per-policy
header checks (the text parses, is canonical, and compiles to a tree) are
memoized by the canonical policy text in a fixed-size LRU table, with the
share layout the tree calls for; the check that a ciphertext's layout is
that one runs on every read. Attribute wrap keys are memoized likewise, in
a bounded LRU table keyed by master secret and attribute, since every leaf
of every slice and every issued key needs one and attributes repeat; so
are the ciphers that wrap shares at encryption.

Keys:

* attribute wrap key  = HKDF-SHA256(root_key, info="cake/attribute-key/" + name)
* payload key         = HKDF-SHA256(data_key_bytes, info="cake/payload-key")

The payload AEAD binds the slice header (policy text plus wrapped shares):
its associated data is the SHA-256 of the canonical slice serialization with
the payload fields emptied, so any header mutation fails authentication
rather than decrypting to garbage. Encryption walks the tree's leaves once,
wrapping each share; one encoder, :func:`_encode_header`, writes the header
of every slice, encrypted or built by ``dataclasses.replace``. Each parsed
or encrypted slice keeps its header bytes (:attr:`SliceCiphertext.header`),
the ones parsing read or encryption encoded, so a read hashes them as they
are and a store writes them out without encoding the shares again.

Containers are parsed in one pass that reads each length in place and
checks it before taking its field, and checks that each string field is
UTF-8. Parsing builds no per-share object: the walk over a slice's header
(:func:`_walk_header`) records its share layout, each share's (leaf index,
attribute), and where each share's nonce field starts in the header.
Decryption compares that layout with the memoized one and reads the nonce
and sealed share of a chosen leaf from the header bytes at its offset. The
:class:`WrappedShare` tuples of a parsed slice are built from its header
only when something reads :attr:`SliceCiphertext.wrapped_shares`.

Slice labels are single path components (:func:`check_label`), since a
reader may write each slice to a file of that name.

Trust model: wrap keys are deterministic per attribute, so users certified
for the same attribute hold identical wrap keys, and colluding holders can
pool their attributes to satisfy a policy none of them satisfies alone.
"""

from __future__ import annotations

import functools
import hashlib
import random
import struct
from dataclasses import dataclass
from typing import NamedTuple, Optional

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from . import policy as policy_mod
from . import sss
from .codec import CodecError, Reader, Writer
from .errors import CakeError

KEY_BYTES = 32
NONCE_BYTES = 12
MESSAGE_ID_BYTES = 16

_ATTRIBUTE_KEY_INFO = b"cake/attribute-key/"
_PAYLOAD_KEY_INFO = b"cake/payload-key"


class AbeError(CakeError):
    pass


class PolicyNotSatisfied(AbeError):
    """The key's attributes cannot rebuild the data key. A normal outcome."""


class IntegrityFailure(AbeError):
    """Authentication failed somewhere a certified reader should succeed:
    the ciphertext was tampered with."""


class EmptyAttributeSet(AbeError):
    pass


class DuplicateLabel(AbeError):
    pass


class EmptyContainer(AbeError):
    pass


class InvalidLabel(AbeError):
    """A slice label that is not exactly one path component."""


class EntropyFailure(AbeError):
    """The injected entropy source failed to produce bytes."""


@dataclass(frozen=True)
class MasterSecret:
    """Authority root key. Never serialized into ciphertexts."""
    root_key: bytes

    def __post_init__(self) -> None:
        if len(self.root_key) != KEY_BYTES:
            raise ValueError("root key must be 32 bytes")


@dataclass(frozen=True)
class UserKey:
    """Attribute-bound decryption key issued to one actor."""
    holder: bytes  # 20-byte actor address
    attribute_keys: dict[str, bytes]
    issued_at: int

    @property
    def attributes(self) -> frozenset[str]:
        return frozenset(self.attribute_keys)


class WrappedShare(NamedTuple):
    leaf_index: int
    attribute: str
    nonce: bytes
    wrapped: bytes  # AES-GCM sealed 32-byte share


class _Layout(NamedTuple):
    shares: tuple[tuple[int, str], ...]  # (leaf index, attribute) of each share
    nonces_at: tuple[int, ...]  # where each share's nonce field starts in the header


@dataclass(frozen=True)
class SliceCiphertext:
    """One encrypted slice.

    A parsed slice keeps the header bytes it was read from and the layout
    that the parse walk recorded, and builds no :class:`WrappedShare`:
    :attr:`wrapped_shares` is built from the header the first time
    something reads it (equality, ``repr``, ``dataclasses.replace``), and
    :func:`decrypt_slice` never does. A slice built by its constructor,
    as :func:`encrypt_slice` and ``dataclasses.replace`` build them, gets
    its header from its fields and its layout from the same walk over that
    header.
    """
    policy_text: str  # canonical rendering
    wrapped_shares: tuple[WrappedShare, ...]
    payload_nonce: bytes
    payload: bytes

    @functools.cached_property
    def header(self) -> bytes:
        """The canonical bytes of the policy text and the wrapped shares: the
        slice's serialization up to its payload fields.

        Parsing and encryption seed it with the bytes they already hold;
        ``dataclasses.replace`` builds a new object, which encodes its own.
        """
        return _encode_header(self.policy_text, self.wrapped_shares)

    @functools.cached_property
    def _layout(self) -> _Layout:
        """Each share's (leaf index, attribute), and where its nonce field
        starts in :attr:`header`; parsing seeds it from its own walk."""
        header = self.header
        return _walk_header(header, 0, len(header))[1]

    def __getattr__(self, name: str):
        # Reached only for a field that is not in the instance dictionary,
        # which is ``wrapped_shares`` of a parsed slice until first read.
        if name != "wrapped_shares":
            raise AttributeError(name)
        header = self.header
        shares, nonces_at = self._layout
        built = tuple(WrappedShare(leaf_index, attribute, *_share_fields(header, at))
                      for (leaf_index, attribute), at in zip(shares, nonces_at))
        self.__dict__["wrapped_shares"] = built
        return built


@dataclass(frozen=True)
class CiphertextContainer:
    message_id: bytes
    slices: tuple[tuple[str, SliceCiphertext], ...]


def _rng_or_system(rng: Optional[random.Random]) -> random.Random:
    return rng if rng is not None else random.SystemRandom()


def _random_bytes(rng: random.Random, n: int) -> bytes:
    try:
        data = rng.randbytes(n)
    except OSError as exc:
        raise EntropyFailure(f"entropy source failed: {exc}") from exc
    if len(data) != n:
        raise EntropyFailure("entropy source returned short read")
    return data


def setup(rng: Optional[random.Random] = None) -> MasterSecret:
    """Provision a fresh authority master secret."""
    return MasterSecret(_random_bytes(_rng_or_system(rng), KEY_BYTES))


def _hkdf(ikm: bytes, info: bytes) -> bytes:
    return HKDF(algorithm=SHA256(), length=KEY_BYTES, salt=None, info=info).derive(ikm)


# Wrap keys kept by :func:`attribute_wrap_key`. Every slice wraps a share per
# policy leaf and every issued key re-derives its holder's attributes, from
# a small attribute vocabulary; the bound caps what a stream of distinct
# attributes or master secrets can pin (an entry is 200-450 bytes, the more
# when it alone keeps its master secret alive).
_WRAP_KEY_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_WRAP_KEY_MEMO_SIZE)
def attribute_wrap_key(ms: MasterSecret, attribute: str) -> bytes:
    """Deterministic 32-byte wrap key for one attribute.

    Memoized by (master secret, attribute as given); an invalid name raises
    :class:`policy.InvalidAttributeError` and is not cached.
    """
    name = policy_mod.normalize_attribute(attribute)
    return _hkdf(ms.root_key, _ATTRIBUTE_KEY_INFO + name.encode())


# Ciphers kept by :func:`_wrap_cipher`. An entry holds its cipher's OpenSSL
# contexts, about 6.5 KB (256 of them took 1.7 MiB of RSS), so this memo is
# bounded below the wrap-key memo; a data manager's vocabulary of policy
# attributes is what it must hold (the serve benchmark's is 34).
_WRAP_CIPHER_MEMO_SIZE = 64


@functools.lru_cache(maxsize=_WRAP_CIPHER_MEMO_SIZE)
def _wrap_cipher(ms: MasterSecret, attribute: str) -> AESGCM:
    """The cipher that wraps an attribute's shares, memoized by (master
    secret, attribute), since a slice wraps a share per leaf and leaves
    repeat attributes.

    One object serves every session's thread: an ``AESGCM`` holds its key
    and nothing that a call changes, since each ``encrypt`` sets up its own
    cipher context from that key.
    """
    return AESGCM(attribute_wrap_key(ms, attribute))


def _payload_key(data_key: int) -> bytes:
    return _hkdf(sss.encode_field(data_key), _PAYLOAD_KEY_INFO)


def keygen(ms: MasterSecret, holder: bytes, attrs: frozenset[str] | set[str],
           issued_at: int) -> UserKey:
    """Issue the wrap-key bundle for a holder's certified attributes."""
    if not attrs:
        raise EmptyAttributeSet("cannot issue a key for an empty attribute set")
    keys = {policy_mod.normalize_attribute(a): attribute_wrap_key(ms, a) for a in attrs}
    return UserKey(holder=holder, attribute_keys=keys, issued_at=issued_at)


def _u32(value: int) -> bytes:
    return value.to_bytes(4, "big")


def _share_aad(leaf_index: int, attribute: str) -> bytes:
    return _u32(leaf_index) + attribute.encode()


def encrypt_slice(ms: MasterSecret, policy: str, plaintext: bytes,
                  rng: Optional[random.Random] = None) -> SliceCiphertext:
    """Encrypt one slice under an access policy.

    The policy is stored in its canonical rendering; the compiled tree's
    leaves determine the wrapped-share list. One walk over the leaves wraps
    each share, and :func:`_encode_header` encodes the header once. Raises
    :class:`policy.PolicySyntaxError` / :class:`policy.InvalidAttributeError`
    for bad policy text.
    """
    rng = _rng_or_system(rng)
    ast = policy_mod.parse_policy(policy)
    canonical = policy_mod.render_policy(ast)
    tree = policy_mod.compile_policy(ast)

    data_key = sss.random_element(rng)
    leaf_values = sss.share_tree(tree, data_key, rng)

    # Every nonce (one per leaf, then the payload's) comes from one draw: a
    # draw from the system source is a system call, and each one lets other
    # sessions' threads take the interpreter lock from this one. A seeded
    # generator gives the same bytes as one draw per nonce in this order.
    nonces = _random_bytes(rng, NONCE_BYTES * (len(leaf_values) + 1))
    shares = []
    for leaf in policy_mod.tree_leaves(tree):
        index = leaf.leaf_index
        nonce = nonces[NONCE_BYTES * (index - 1):NONCE_BYTES * index]
        sealed = _wrap_cipher(ms, leaf.attribute).encrypt(
            nonce, leaf_values[index].to_bytes(sss.FIELD_BYTES, "little"),
            _share_aad(index, leaf.attribute))
        shares.append(WrappedShare(index, leaf.attribute, nonce, sealed))

    wrapped_shares = tuple(shares)
    header = _encode_header(canonical, wrapped_shares)
    payload_nonce = nonces[-NONCE_BYTES:]
    payload = AESGCM(_payload_key(data_key)).encrypt(
        payload_nonce, plaintext, _header_digest(header))
    ct = SliceCiphertext(canonical, wrapped_shares, payload_nonce, payload)
    ct.__dict__["header"] = header  # the bytes its fields encode to
    return ct


def decrypt_slice(uk: UserKey, ct: SliceCiphertext) -> bytes:
    """Recover the slice plaintext, or explain why not.

    The slice's share layout, each share's (leaf index, attribute), is
    compared with the one its policy's compiled tree gives, in one
    comparison. The key's attribute names alone then decide satisfiability:
    a minimal satisfying leaf set is chosen
    (:func:`policy.min_satisfying_leaves`), and only the nonces and sealed
    shares of that set are read from :attr:`SliceCiphertext.header` and
    opened. No :class:`WrappedShare` is built.

    Raises :class:`IntegrityFailure` when the policy header does not parse,
    is not canonical, or its share layout does not mirror its tree (checked
    before anything else); :class:`PolicyNotSatisfied` when the key's
    attributes do not satisfy the policy, without opening any share; and
    :class:`IntegrityFailure` when a chosen share or the payload fails
    authentication. Tampering with a share that is not opened, held or
    not, fails the payload AEAD, which binds the whole header.
    """
    tree, leaves = _compiled_header(ct.policy_text)
    layout = ct._layout
    if layout.shares != leaves:
        raise IntegrityFailure("wrapped shares do not match the policy tree")

    chosen = policy_mod.min_satisfying_leaves(tree, uk.attribute_keys)
    if chosen is None:
        raise PolicyNotSatisfied(f"attributes do not satisfy {ct.policy_text!r}")

    header = ct.header
    available: dict[int, int] = {}
    for leaf_index in chosen:
        attribute = leaves[leaf_index - 1][1]
        nonce, wrapped = _share_fields(header, layout.nonces_at[leaf_index - 1])
        try:
            raw = AESGCM(uk.attribute_keys[attribute]).decrypt(
                nonce, wrapped, _share_aad(leaf_index, attribute))
            available[leaf_index] = sss.decode_field(raw)
        except (InvalidTag, sss.FieldDecodeError) as exc:
            # A wrap key this user legitimately holds must open an honest share.
            raise IntegrityFailure("wrapped share failed authentication") from exc

    data_key = sss.reconstruct_tree(tree, available)
    try:
        return AESGCM(_payload_key(data_key)).decrypt(
            ct.payload_nonce, ct.payload, header_hash(ct))
    except InvalidTag as exc:
        raise IntegrityFailure("payload or header authentication failed") from exc


# Compiled headers kept by :func:`_compiled_header`. Every reader of a slice
# checks the same header, so reads of one policy outnumber its writes; the
# bound caps the memory a stream of distinct policies can pin (a 32-leaf
# entry is about 4 KB).
_POLICY_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_POLICY_MEMO_SIZE)
def _compiled_header(policy_text: str) -> tuple[policy_mod.AccessTree,
                                                tuple[tuple[int, str], ...]]:
    """The compiled tree of a header's policy text and the share layout it
    calls for: (position, attribute) of each of its leaves, positions
    counted from 1 in leaf-index order.

    Raises :class:`IntegrityFailure` for text that does not parse or is not
    canonical; ``lru_cache`` keeps no entry for a call that raises, so such
    a header fails on every read.
    """
    try:
        ast = policy_mod.parse_policy(policy_text)
    except policy_mod.PolicyError as exc:
        raise IntegrityFailure(f"unparseable policy header: {exc}") from exc
    if policy_mod.render_policy(ast) != policy_text:
        raise IntegrityFailure("policy header is not in canonical form")
    tree = policy_mod.compile_policy(ast)
    return tree, tuple(enumerate((leaf.attribute for leaf in policy_mod.tree_leaves(tree)),
                                 start=1))


def new_message_id(rng: Optional[random.Random] = None) -> bytes:
    return _random_bytes(_rng_or_system(rng), MESSAGE_ID_BYTES)


def check_label(label: str) -> str:
    """Return ``label`` if it is exactly one path component, else raise
    :class:`InvalidLabel`: a reader may write each slice to a file named by
    its label, so the label must not be empty, ``.`` or ``..``, and must not
    contain ``/`` or NUL."""
    if label in ("", ".", "..") or "/" in label or "\0" in label:
        raise InvalidLabel(f"slice label {label!r} is not a single path component")
    return label


def encrypt_container(ms: MasterSecret, message_id: bytes,
                      slices: list[tuple[str, str, bytes]],
                      rng: Optional[random.Random] = None) -> CiphertextContainer:
    """Encrypt a multi-slice submission, one policy per slice."""
    if len(message_id) != MESSAGE_ID_BYTES:
        raise ValueError("message id must be 16 bytes")
    if not slices:
        raise EmptyContainer("a container needs at least one slice")
    labels = [check_label(label) for label, _, _ in slices]
    if len(set(labels)) != len(labels):
        raise DuplicateLabel("slice labels must be unique within a container")
    rng = _rng_or_system(rng)
    encrypted = tuple(
        (label, encrypt_slice(ms, policy, data, rng))
        for label, policy, data in slices)
    return CiphertextContainer(message_id=message_id, slices=encrypted)


def decrypt_container(uk: UserKey,
                      container: CiphertextContainer) -> list[tuple[str, Optional[bytes]]]:
    """Decrypt every slice the key can open.

    Returns (label, plaintext) pairs with ``None`` for slices whose policy
    the key does not satisfy; partial readability is a normal outcome.
    Tampering still raises :class:`IntegrityFailure`.
    """
    results: list[tuple[str, Optional[bytes]]] = []
    for label, ct in container.slices:
        try:
            results.append((label, decrypt_slice(uk, ct)))
        except PolicyNotSatisfied:
            results.append((label, None))
    return results


# --- canonical serialization -------------------------------------------------

# The payload fields' two zero lengths, which end the slice form whose digest
# binds the header.
_EMPTY_PAYLOAD_FIELDS = bytes(8)


def _encode_header(policy_text: str, wrapped_shares: tuple[WrappedShare, ...]) -> bytes:
    """The canonical bytes of a slice's policy text and wrapped shares, each
    variable-length field prefixed with its own length."""
    policy_bytes = policy_text.encode()
    fields = [_u32(len(policy_bytes)), policy_bytes, _u32(len(wrapped_shares))]
    for leaf_index, attribute, nonce, wrapped in wrapped_shares:
        name = attribute.encode()
        fields += (_u32(leaf_index), _u32(len(name)), name, _u32(len(nonce)), nonce,
                   _u32(len(wrapped)), wrapped)
    return b"".join(fields)


def _header_digest(header: bytes) -> bytes:
    return hashlib.sha256(header + _EMPTY_PAYLOAD_FIELDS).digest()


def header_hash(ct: SliceCiphertext) -> bytes:
    """Digest of the canonical slice form with the payload fields emptied."""
    return _header_digest(ct.header)


def serialize_slice(ct: SliceCiphertext) -> bytes:
    w = Writer()
    w.put_raw(ct.header)
    w.put_bytes(ct.payload_nonce)
    w.put_bytes(ct.payload)
    return w.getvalue()


_TRUNCATED = "truncated encoding"

_u32_at = struct.Struct(">I").unpack_from
_two_u32_at = struct.Struct(">II").unpack_from


def _bad_utf8(exc: UnicodeDecodeError) -> CodecError:
    return CodecError(f"invalid utf-8 in string field: {exc}")


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _bad_utf8(exc) from exc


def _walk_header(data: bytes, pos: int, end: int) -> tuple[str, _Layout, int]:
    """The policy text and share layout of the slice header that starts at
    ``data[pos]`` and ends at or before ``end``, and where it ends.

    Fields are read in place, in runs: a run reads each length where it
    stands and adds it to ``pos``, then one check against ``end`` covers the
    whole run. Lengths are never negative, so ``pos`` only grows and a
    length read past ``end`` carries ``pos`` past it too; a length that
    would be read past the end of ``data`` is past ``end`` as well. No
    field is taken before its run is checked, and each string field is
    checked to be UTF-8. The nonce offsets of the layout count from the
    header's start.
    """
    start = pos
    try:
        policy_end = pos + 4 + _u32_at(data, pos)[0]
        pos = policy_end + 4
        if pos > end:
            raise CodecError(_TRUNCATED)
        policy_text = data[start + 4:policy_end].decode()
        shares = []
        nonces_at = []
        for _ in range(_u32_at(data, policy_end)[0]):
            leaf_index, attribute_len = _two_u32_at(data, pos)
            attribute_at = pos + 8
            nonce_field = attribute_at + attribute_len
            nonce_end = nonce_field + 4 + _u32_at(data, nonce_field)[0]
            pos = nonce_end + 4 + _u32_at(data, nonce_end)[0]
            if pos > end:
                raise CodecError(_TRUNCATED)
            shares.append((leaf_index, data[attribute_at:nonce_field].decode()))
            nonces_at.append(nonce_field - start)
    except struct.error:
        raise CodecError(_TRUNCATED) from None
    except UnicodeDecodeError as exc:
        raise _bad_utf8(exc) from exc
    return policy_text, _Layout(tuple(shares), tuple(nonces_at)), pos


def _share_fields(header: bytes, at: int) -> tuple[bytes, bytes]:
    """The nonce and the sealed share of the share whose nonce field starts
    at ``header[at]``; :func:`_walk_header` has checked both fields."""
    nonce_end = at + 4 + _u32_at(header, at)[0]
    wrapped_at = nonce_end + 4
    wrapped_end = wrapped_at + _u32_at(header, nonce_end)[0]
    return header[at + 4:nonce_end], header[wrapped_at:wrapped_end]


def _parse_slice(data: bytes, pos: int, end: int) -> SliceCiphertext:
    """The slice encoded in exactly ``data[pos:end]``, keeping its header
    bytes and the layout the walk over them recorded; reads fields as
    :func:`_walk_header` does."""
    start = pos
    policy_text, layout, pos = _walk_header(data, pos, end)
    header_end = pos
    nonce_at = pos + 4
    nonce_end = nonce_at + int.from_bytes(data[pos:nonce_at], "big")
    payload_at = nonce_end + 4
    pos = payload_at + int.from_bytes(data[nonce_end:payload_at], "big")
    if pos > end:
        raise CodecError(_TRUNCATED)
    if pos != end:
        raise CodecError(f"{end - pos} trailing bytes after last field")
    # The dataclass constructor would need the wrapped shares; a parsed slice
    # builds them from its header only when they are read.
    ct = object.__new__(SliceCiphertext)
    ct.__dict__.update(policy_text=policy_text, payload_nonce=data[nonce_at:nonce_end],
                       payload=data[payload_at:pos], header=data[start:header_end],
                       _layout=layout)
    return ct


def parse_slice(data: bytes) -> SliceCiphertext:
    return _parse_slice(data, 0, len(data))


def serialize_container(container: CiphertextContainer) -> bytes:
    w = Writer()
    w.put_bytes(container.message_id)
    w.put_u32(len(container.slices))
    for label, ct in container.slices:
        w.put_str(label)
        w.put_bytes(serialize_slice(ct))
    return w.getvalue()


def parse_container(data: bytes) -> CiphertextContainer:
    """Parse a container in one pass over ``data``, reading fields in
    checked runs as :func:`_parse_slice` does."""
    end = len(data)
    id_end = 4 + int.from_bytes(data[:4], "big")
    pos = id_end + 4
    if pos > end:
        raise CodecError(_TRUNCATED)
    if id_end - 4 != MESSAGE_ID_BYTES:
        raise CodecError("message id must be 16 bytes")
    slices = []
    for _ in range(int.from_bytes(data[id_end:pos], "big")):
        label_at = pos + 4
        label_end = label_at + int.from_bytes(data[pos:label_at], "big")
        slice_at = label_end + 4
        pos = slice_at + int.from_bytes(data[label_end:slice_at], "big")
        if pos > end:
            raise CodecError(_TRUNCATED)
        slices.append((_utf8(data[label_at:label_end]), _parse_slice(data, slice_at, pos)))
    if pos != end:
        raise CodecError(f"{end - pos} trailing bytes after last field")
    if not slices:
        raise EmptyContainer("container has no slices")
    labels = [label for label, _ in slices]
    if len(set(labels)) != len(labels):
        raise DuplicateLabel("duplicate slice label in container")
    return CiphertextContainer(message_id=data[4:id_end], slices=tuple(slices))


def serialize_user_key(uk: UserKey) -> bytes:
    w = Writer()
    w.put_raw(uk.holder)
    w.put_u64(uk.issued_at)
    w.put_u32(len(uk.attribute_keys))
    for name in sorted(uk.attribute_keys):
        w.put_str(name)
        w.put_bytes(uk.attribute_keys[name])
    return w.getvalue()


def parse_user_key(data: bytes) -> UserKey:
    r = Reader(data)
    holder = r.take_raw(20)
    issued_at = r.take_u64()
    count = r.take_u32()
    keys = {r.take_str(): r.take_bytes() for _ in range(count)}
    r.expect_end()
    if not keys:
        raise EmptyAttributeSet("user key carries no attributes")
    return UserKey(holder=holder, attribute_keys=keys, issued_at=issued_at)
