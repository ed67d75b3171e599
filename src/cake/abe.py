"""Ciphertext-policy encryption of document slices.

Hybrid scheme: each slice's plaintext is sealed with AES-256-GCM under a
fresh data key, the data key is secret-shared along the access tree of the
slice's policy (its parsed tree: an And is an n-of-n gate, an Or a 1-of-n
gate, and leaves are numbered 1..L depth first), and every leaf share is
wrapped (again AES-GCM) under a symmetric key derived per attribute from
the authority's master secret. A reader holding wrap keys for a satisfying
attribute set unwraps enough shares to rebuild the data key; anyone else
learns nothing but the policy.

Decryption decides from the key's attribute names alone whether the policy
is satisfied, and then opens only the shares of a minimal satisfying leaf
set; a key that does not satisfy the policy opens none. The per-policy
header checks (the text parses and is canonical) are memoized by the
canonical policy text in a fixed-size LRU table
(:func:`_compiled_header`), with the parsed tree, the skeleton of the
policy's canonical header and where each leaf's share sits in it, and a
bounded satisfiability memo: the leaf set chosen for each pattern of held policy attributes seen,
or the denial. Attribute wrap keys are memoized likewise, in a bounded LRU
table keyed by master secret and attribute, since every leaf of every
slice and every issued key needs one and attributes repeat; so are the
ciphers that wrap shares at encryption.

Keys:

* attribute wrap key  = HKDF-SHA256(root_key, info="cake/attribute-key/" + name)
* payload key         = HKDF-SHA256(data_key_bytes, info="cake/payload-key")

The payload AEAD binds the slice header (policy text plus wrapped shares):
its associated data is the SHA-256 of the canonical slice serialization with
the payload fields emptied, so any header mutation fails authentication
rather than decrypting to garbage.

A slice is its bytes. :class:`SliceCiphertext` holds the header bytes, the
payload nonce and the sealed payload, and the header is the only form its
shares take: nothing builds a per-share object. Two places build a slice.
:func:`encrypt_slice` walks the tree's leaves once, wrapping each share, and
one encoder, :func:`_encode_header`, writes the header. :func:`_parse_slice`
keeps the header bytes it read, and reads a header in one way only: as its
policy's canonical header, the one that encoder writes for the policy text,
outside each share's nonce and sealed share. One struct unpack and one
comparison with the memoized skeleton of that header decide it. A reader
fetches a container by the content address the data manager notarized, so
an honest header is always canonical; any other (a policy text that is not
canonical, other bytes, other field lengths) fails the parse of its whole
container. A read hashes the header as it is, a store writes it out as it
is, and decryption reads the nonce and sealed share of a chosen leaf from
the header bytes at the offsets the memo entry holds.

Containers are parsed in one pass that reads each length in place and
checks it before taking its field, and checks that each label and policy
text is UTF-8.

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
import threading
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

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


@dataclass(frozen=True)
class SliceCiphertext:
    """One encrypted slice: its header bytes, in the one encoding
    :func:`_encode_header` writes, then its payload nonce and sealed payload.

    :func:`encrypt_slice` and the parse build slices, so ``header`` is its
    policy's canonical header, with each share's fields where the policy's
    memo entry (:func:`_compiled_header`) places them.
    """
    header: bytes
    payload_nonce: bytes
    payload: bytes

    @property
    def policy_text(self) -> str:
        """The canonical rendering of the slice's policy, as its header holds it."""
        return self.header[4:4 + _u32_at(self.header, 0)[0]].decode()


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

    The policy is stored in its canonical rendering; the parsed tree's
    leaves determine the wrapped shares. One walk over the leaves wraps
    each share, and :func:`_encode_header` encodes the header once. Raises
    :class:`policy.PolicySyntaxError` / :class:`policy.InvalidAttributeError`
    for bad policy text.
    """
    rng = _rng_or_system(rng)
    ast = policy_mod.parse_policy(policy)
    canonical = policy_mod.render_policy(ast)

    data_key = sss.random_element(rng)
    leaf_values = sss.share_tree(ast, data_key, rng)

    # Every nonce (one per leaf, then the payload's) comes from one draw: a
    # draw from the system source is a system call, and each one lets other
    # sessions' threads take the interpreter lock from this one. A seeded
    # generator gives the same bytes as one draw per nonce in this order.
    nonces = _random_bytes(rng, NONCE_BYTES * (len(leaf_values) + 1))
    shares = []
    for index, leaf in enumerate(policy_mod.tree_leaves(ast), start=1):
        nonce = nonces[NONCE_BYTES * (index - 1):NONCE_BYTES * index]
        sealed = _wrap_cipher(ms, leaf.attribute).encrypt(
            nonce, leaf_values[index].to_bytes(sss.FIELD_BYTES, "little"),
            _share_aad(index, leaf.attribute))
        shares.append((index, leaf.attribute, nonce, sealed))

    header, _ = _encode_header(canonical, shares)
    payload_nonce = nonces[-NONCE_BYTES:]
    payload = AESGCM(_payload_key(data_key)).encrypt(
        payload_nonce, plaintext, _header_digest(header))
    return SliceCiphertext(header, payload_nonce, payload)


def decrypt_slice(uk: UserKey, ct: SliceCiphertext) -> bytes:
    """Recover the slice plaintext, or explain why not.

    Everything is read from the slice's bytes, whose header the parse (or
    the encoder) made its policy's canonical one: a header that does not
    parse, is not canonical, or does not mirror its tree fails
    :func:`parse_container`, not here. The key's attribute names alone
    decide satisfiability: a minimal satisfying leaf set is chosen
    (:func:`policy.min_satisfying_leaves`, memoized per policy by
    :func:`_choose`), and only the nonces and sealed shares of that set are
    read from :attr:`SliceCiphertext.header`, at the offsets of the policy's
    memo entry (:func:`_compiled_header`), and opened.

    Raises :class:`PolicyNotSatisfied` when the key's attributes do not
    satisfy the policy, without opening any share; and
    :class:`IntegrityFailure` when a chosen share or the payload fails
    authentication. Tampering with a share that is not opened, held or
    not, fails the payload AEAD, which binds the whole header.
    """
    compiled = _compiled_header(ct.policy_text)
    chosen = _choose(compiled, uk.attribute_keys)
    if not chosen:
        raise PolicyNotSatisfied(f"attributes do not satisfy {ct.policy_text!r}")

    header = ct.header
    available: dict[int, int] = {}
    for leaf_index in chosen:
        attribute = compiled.leaves[leaf_index - 1]
        nonce, wrapped = _share_fields(header, compiled.nonces_at[leaf_index - 1])
        try:
            raw = AESGCM(uk.attribute_keys[attribute]).decrypt(
                nonce, wrapped, _share_aad(leaf_index, attribute))
            available[leaf_index] = sss.decode_field(raw)
        except (InvalidTag, sss.FieldDecodeError) as exc:
            # A wrap key this user legitimately holds must open an honest share.
            raise IntegrityFailure("wrapped share failed authentication") from exc

    data_key = sss.reconstruct_tree(compiled.tree, available)
    try:
        return AESGCM(_payload_key(data_key)).decrypt(
            ct.payload_nonce, ct.payload, header_hash(ct))
    except InvalidTag as exc:
        raise IntegrityFailure("payload or header authentication failed") from exc


# The bytes of an honest sealed share: the field element and its AES-GCM tag.
_SEALED_SHARE_BYTES = sss.FIELD_BYTES + 16


class _CompiledHeader(NamedTuple):
    """What every slice header of one canonical policy text shares."""
    tree: policy_mod.PolicyAst  # the parsed policy, its access tree
    leaves: tuple[str, ...]  # the attribute of each leaf, in leaf-number order
    # Where each leaf's nonce field starts in the canonical header.
    nonces_at: Sequence[int]
    # That header after its policy text, with each share's nonce and sealed
    # share cut out: a struct that reads the runs between those holes and
    # skips the holes, and the bytes of the runs.
    skeleton: struct.Struct
    skeleton_bytes: bytes
    attributes: tuple[str, ...]  # the policy's distinct attributes
    # Satisfiability memo of :func:`_choose`: for each pattern of held
    # attributes seen (bit i set if attribute i is held), the chosen leaves,
    # or () for a denial.
    choices: dict[int, tuple[int, ...]]


# Compiled headers kept by :func:`_compiled_header`. Every reader of a slice
# checks the same header, so reads of one policy outnumber its writes; the
# bound caps the memory a stream of distinct policies can pin (measured with
# tracemalloc over serve-shaped policies, a 32-leaf entry with its key text
# is about 8.9 KB, of which the parsed tree is 4.0 KB and the skeleton
# 3.4 KB; filling its satisfiability memo added 7 KB more).
_POLICY_MEMO_SIZE = 256

# Answers kept per compiled header by :func:`_choose`; a full memo is
# emptied. An answer depends only on which of the policy's attributes a key
# holds, so keys that differ elsewhere share one answer.
_CHOICE_MEMO_SIZE = 64


@functools.lru_cache(maxsize=_POLICY_MEMO_SIZE)
def _compiled_header(policy_text: str) -> _CompiledHeader:
    """The parsed tree of a header's policy text, the attribute of each
    of its leaves, the skeleton of the policy's canonical header with the
    offset of each leaf's nonce field in it, and an empty satisfiability
    memo.

    The skeleton comes from the one encoder: it encodes the header of
    placeholder shares with honest field lengths and gives the nonce
    offsets it wrote, and each nonce and sealed share is a hole.
    :func:`_parse_slice` checks every header against it.

    Raises :class:`IntegrityFailure` for text that does not parse or is not
    canonical; ``lru_cache`` keeps no entry for a call that raises, so such
    a header fails every parse.
    """
    try:
        ast = policy_mod.parse_policy(policy_text)
    except policy_mod.PolicyError as exc:
        raise IntegrityFailure(f"unparseable policy header: {exc}") from exc
    if policy_mod.render_policy(ast) != policy_text:
        raise IntegrityFailure("policy header is not in canonical form")
    names = tuple(leaf.attribute for leaf in policy_mod.tree_leaves(ast))
    nonce, sealed = bytes(NONCE_BYTES), bytes(_SEALED_SHARE_BYTES)
    header, nonces_at = _encode_header(
        policy_text, [(index, name, nonce, sealed) for index, name in enumerate(names, start=1)])
    # Each share from its nonce field on: the nonce's length, the nonce (a
    # hole), the sealed share's length, the sealed share (a hole). Before
    # each, a run from where the last share (or the policy text) ended.
    share_tail = 4 + NONCE_BYTES + 4 + _SEALED_SHARE_BYTES
    runs_at = 4 + len(policy_text.encode())
    ends = [runs_at] + [at + share_tail for at in nonces_at]
    runs = [at + 4 - end for at, end in zip(nonces_at, ends)]
    hole = f"s{NONCE_BYTES}x4s{_SEALED_SHARE_BYTES}x"
    skeleton = struct.Struct(">" + hole.join(map(str, runs)) + hole)
    return _CompiledHeader(ast, names, nonces_at, skeleton,
                           b"".join(skeleton.unpack_from(header, runs_at)),
                           tuple(dict.fromkeys(names)), {})


_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")  # 0/1 flags to base-2 digits
_choices_lock = threading.Lock()  # held to add an answer to a memo


def _choose(compiled: _CompiledHeader, attrs: dict[str, bytes]) -> tuple[int, ...]:
    """The leaves :func:`policy.min_satisfying_leaves` chooses from the
    policy's tree for a key holding ``attrs``, or ``()`` when they do not
    satisfy it.

    Memoized in ``compiled.choices`` by which of the policy's attributes
    the key holds, which is all the answer depends on; denials are kept too.
    """
    held = int(bytes(map(attrs.__contains__, compiled.attributes)).translate(_BINARY_DIGITS), 2)
    chosen = compiled.choices.get(held)
    if chosen is None:
        chosen = tuple(policy_mod.min_satisfying_leaves(compiled.tree, attrs) or ())
        with _choices_lock:
            if len(compiled.choices) >= _CHOICE_MEMO_SIZE:
                compiled.choices.clear()
            compiled.choices[held] = chosen
    return chosen


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


def _encode_header(policy_text: str, shares: Sequence[tuple[int, str, bytes, bytes]]
                   ) -> tuple[bytes, array]:
    """The canonical bytes of a slice's policy text and its shares, given as
    (leaf index, attribute, nonce, sealed share), each variable-length field
    prefixed with its own length; and the offset of each nonce field it
    wrote."""
    policy_bytes = policy_text.encode()
    fields = [_u32(len(policy_bytes)), policy_bytes, _u32(len(shares))]
    at = len(policy_bytes) + 8
    nonces_at = array("Q")
    for leaf_index, attribute, nonce, sealed in shares:
        name = attribute.encode()
        at += 8 + len(name)
        nonces_at.append(at)
        at += 8 + len(nonce) + len(sealed)
        fields += (_u32(leaf_index), _u32(len(name)), name, _u32(len(nonce)), nonce,
                   _u32(len(sealed)), sealed)
    return b"".join(fields), nonces_at


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


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid utf-8 in string field: {exc}") from exc


def _share_fields(header: bytes, at: int) -> tuple[bytes, bytes]:
    """The nonce and the sealed share of the share whose nonce field starts
    at ``header[at]``; the parse takes no header whose fields have other
    lengths."""
    nonce_at = at + 4
    sealed_at = nonce_at + NONCE_BYTES + 4
    return (header[nonce_at:nonce_at + NONCE_BYTES],
            header[sealed_at:sealed_at + _SEALED_SHARE_BYTES])


def _parse_slice(data: bytes, pos: int, end: int) -> SliceCiphertext:
    """The slice encoded in exactly ``data[pos:end]``, keeping its header
    bytes. The header must be its policy's canonical header outside each
    share's nonce and sealed share: its bytes outside those holes are the
    skeleton of the policy text's memo entry (:func:`_compiled_header`), as
    one struct unpack and one comparison decide.

    Raises :class:`CodecError` when the policy text runs past ``end`` or is
    not UTF-8, when the canonical header or a payload field runs past
    ``end``, or for bytes after the last field; :class:`IntegrityFailure`
    for a policy text that does not parse or is not canonical, and for a
    header with other bytes or other field lengths. Each length is read in
    place and checked before its field is taken.
    """
    start = pos
    policy_end = pos + 4 + int.from_bytes(data[pos:pos + 4], "big")
    if policy_end > end:
        raise CodecError(_TRUNCATED)
    compiled = _compiled_header(_utf8(data[pos + 4:policy_end]))
    skeleton = compiled.skeleton
    header_end = policy_end + skeleton.size
    if header_end > end:
        raise CodecError(_TRUNCATED)
    if b"".join(skeleton.unpack_from(data, policy_end)) != compiled.skeleton_bytes:
        raise IntegrityFailure("slice header is not its policy's canonical header")
    nonce_at = header_end + 4
    nonce_end = nonce_at + int.from_bytes(data[header_end:nonce_at], "big")
    payload_at = nonce_end + 4
    pos = payload_at + int.from_bytes(data[nonce_end:payload_at], "big")
    if pos > end:
        raise CodecError(_TRUNCATED)
    if pos != end:
        raise CodecError(f"{end - pos} trailing bytes after last field")
    return SliceCiphertext(data[start:header_end], data[nonce_at:nonce_end],
                           data[payload_at:pos])


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
