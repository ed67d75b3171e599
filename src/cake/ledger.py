"""Deterministic simulated blockchain with two registry contracts.

Signed transactions accumulate in a pending pool and are applied, in
submission order, when a block is sealed; blocks are hash-chained and the
whole structure replays to identical bytes given the same genesis accounts
and transaction sequence (signatures are Ed25519, which is deterministic).
There is no consensus layer: one sealer, explicit ``seal_block`` calls.

Contracts:

* MessageRegistry — ``store(message_id, locator)``: write-once notarization
  of a content locator under a message id. Any later store for the same id
  is rejected at seal time.
* ActorRegistry — ``certify(actor, locator)``: records the latest metadata
  locator for an actor; only addresses in the certifier set fixed at
  deployment may write, and re-certification overwrites (last write wins).

The registry keys actors by a salted hash of their address rather than the
address itself, so the serialized ledger never contains the addresses of
data owners or readers — only the transaction senders (the data-manager and
certifier services), message ids, and locators appear in clear.

Queries (``message_get``, ``actor_get``) read sealed state only; pending
transactions are invisible until the next seal.

The chain file form is each serialized block, length-prefixed, in order;
:class:`cas.FrameLog` reads and appends that file, so this module knows no
file or byte offset. ``Chain.extend`` replays serialized blocks, so a
reader can follow a file that a writer appends to; ``Chain.load`` is
``extend`` on a new chain. A chain is not locked by its own methods:
``Chain.lock`` is for callers that submit, seal or extend from several
threads.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .codec import CodecError, Reader, Writer
from .errors import CakeError

ADDRESS_BYTES = 20
HASH_BYTES = 32
GENESIS_PREV_HASH = b"\x00" * HASH_BYTES

CONTRACT_MESSAGE_REGISTRY = "message_registry"
CONTRACT_ACTOR_REGISTRY = "actor_registry"

STATUS_PENDING = "pending"
STATUS_APPLIED = "applied"
STATUS_REJECTED = "rejected"

_ACTOR_KEY_SALT = b"cake/actor-registry/v1/"


class LedgerError(CakeError):
    pass


class BadSignature(LedgerError):
    pass


class BadNonce(LedgerError):
    pass


class UnknownContract(LedgerError):
    pass


class NotCertifier(LedgerError):
    pass


class AlreadyRecorded(LedgerError):
    pass


class RecordNotFound(LedgerError):
    pass


def address_of(public_key: bytes) -> bytes:
    """20-byte account address: truncated hash of the signing public key."""
    return hashlib.sha256(public_key).digest()[:ADDRESS_BYTES]


def actor_registry_key(actor: bytes) -> bytes:
    """On-chain key for an actor record; hides the address from the ledger."""
    return hashlib.sha256(_ACTOR_KEY_SALT + actor).digest()


class Signer:
    """An account's Ed25519 signing keypair."""

    def __init__(self, private_key: Ed25519PrivateKey) -> None:
        self._private = private_key
        self.public_bytes = private_key.public_key().public_bytes_raw()
        self.address = address_of(self.public_bytes)

    @classmethod
    def from_seed(cls, seed: bytes) -> "Signer":
        return cls(Ed25519PrivateKey.from_private_bytes(seed))

    def private_bytes(self) -> bytes:
        return self._private.private_bytes_raw()

    def sign(self, data: bytes) -> bytes:
        return self._private.sign(data)


def verify_signature(public_key: bytes, signature: bytes, data: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, data)
        return True
    except (InvalidSignature, ValueError):
        return False


# A transaction or block that this process builds is encoded once, as it
# is built, and keeps that encoding (``_encoded`` / ``_serialized``, which
# are ``None`` on the class), so signing, submit, the seal and the chain file
# append reuse the bytes. A parsed one keeps only its transactions' hashes,
# taken from the bytes read, and encodes on demand: a loaded chain holds no
# second copy of the bytes it was read from.

@dataclass(frozen=True)
class Transaction:
    sender: bytes
    contract: str
    method: str
    args: bytes
    sender_nonce: int
    signature: bytes
    _encoded = None  # not a field

    def signing_bytes(self) -> bytes:
        return self.canonical_bytes()[:-4 - len(self.signature)]

    def canonical_bytes(self) -> bytes:
        encoded = self._encoded
        if encoded is None:
            encoded = _with_signature(_signing_bytes(
                self.sender, self.contract, self.method, self.args, self.sender_nonce),
                self.signature)
        return encoded

    @functools.cached_property
    def tx_hash(self) -> bytes:
        return hashlib.sha256(self.canonical_bytes()).digest()


def _signing_bytes(sender: bytes, contract: str, method: str, args: bytes,
                   sender_nonce: int) -> bytes:
    w = Writer()
    w.put_raw(sender)
    w.put_str(contract)
    w.put_str(method)
    w.put_bytes(args)
    w.put_u64(sender_nonce)
    return w.getvalue()


def _with_signature(signing_bytes: bytes, signature: bytes) -> bytes:
    return signing_bytes + len(signature).to_bytes(4, "big") + signature


def make_transaction(signer: Signer, contract: str, method: str, args: bytes,
                     sender_nonce: int) -> Transaction:
    signing = _signing_bytes(signer.address, contract, method, args, sender_nonce)
    signature = signer.sign(signing)
    tx = Transaction(signer.address, contract, method, args, sender_nonce, signature)
    object.__setattr__(tx, "_encoded", _with_signature(signing, signature))
    return tx


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: bytes
    transactions: tuple[Transaction, ...]
    block_hash: bytes
    _serialized = None  # not a field

    def body_bytes(self) -> bytes:
        return self.serialize()[:-HASH_BYTES]

    def serialize(self) -> bytes:
        serialized = self._serialized
        if serialized is None:
            serialized = _block_body(self.height, self.prev_hash,
                                     self.transactions) + self.block_hash
        return serialized


def _block_body(height: int, prev_hash: bytes,
                transactions: tuple[Transaction, ...]) -> bytes:
    w = Writer()
    w.put_u64(height)
    w.put_raw(prev_hash)
    w.put_u32(len(transactions))
    for tx in transactions:
        w.put_bytes(tx.canonical_bytes())
    return w.getvalue()


def _parse_transaction(data: bytes) -> Transaction:
    r = Reader(data)
    tx = Transaction(
        sender=r.take_raw(ADDRESS_BYTES),
        contract=r.take_str(),
        method=r.take_str(),
        args=r.take_bytes(),
        sender_nonce=r.take_u64(),
        signature=r.take_bytes(),
    )
    r.expect_end()
    object.__setattr__(tx, "tx_hash", hashlib.sha256(data).digest())
    return tx


def parse_block(data: bytes) -> Block:
    r = Reader(data)
    height = r.take_u64()
    prev_hash = r.take_raw(HASH_BYTES)
    count = r.take_u32()
    transactions = tuple(_parse_transaction(r.take_bytes()) for _ in range(count))
    block_hash = r.take_raw(HASH_BYTES)
    r.expect_end()
    return Block(height, prev_hash, transactions, block_hash)


@dataclass
class TxReceipt:
    tx_hash: bytes
    status: str = STATUS_PENDING
    error: Optional[str] = None
    height: Optional[int] = None


@dataclass(frozen=True)
class MessageRecord:
    locator: str
    sender: bytes
    height: int


@dataclass(frozen=True)
class ActorRecord:
    metadata_locator: str
    certifier: bytes
    height: int


@dataclass(frozen=True)
class ChainVerification:
    ok: bool
    failed_height: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


class Chain:
    """Single-sealer chain over the two registry contracts.

    ``accounts`` are the signing public keys allowed to send transactions
    (the services), fixed at deployment like the certifier set.
    """

    def __init__(self, accounts: Iterable[bytes],
                 certifiers: Iterable[bytes] = ()) -> None:
        self.accounts: dict[bytes, bytes] = {address_of(pub): pub for pub in accounts}
        self.certifiers: frozenset[bytes] = frozenset(certifiers)
        self.blocks: list[Block] = []
        self._pending: list[Transaction] = []
        self._receipts: dict[bytes, TxReceipt] = {}
        # tx_hash -> the account key ``submit`` verified its signature with.
        self._signature_checked: dict[bytes, bytes] = {}
        self._next_nonce: dict[bytes, int] = {}
        self._messages: dict[bytes, MessageRecord] = {}
        self._actors: dict[bytes, ActorRecord] = {}
        self.lock = threading.Lock()
        # Called with this chain once :meth:`seal_block` has appended a
        # block, before its transactions are applied, e.g. to persist it.
        # Passed the chain, so it need not hold one.
        self.on_seal: Optional[Callable[["Chain"], None]] = None

    # -- submission and sealing ------------------------------------------

    def next_nonce(self, sender: bytes) -> int:
        return self._next_nonce.get(sender, 1)

    def submit(self, tx: Transaction) -> TxReceipt:
        public_key = self.accounts.get(tx.sender)
        if public_key is None:
            raise BadSignature(f"unknown sender {tx.sender.hex()}")
        if not verify_signature(public_key, tx.signature, tx.signing_bytes()):
            raise BadSignature("transaction signature does not verify")
        expected = self.next_nonce(tx.sender)
        if tx.sender_nonce != expected:
            raise BadNonce(f"expected nonce {expected}, got {tx.sender_nonce}")
        if tx.contract not in (CONTRACT_MESSAGE_REGISTRY, CONTRACT_ACTOR_REGISTRY):
            raise UnknownContract(f"no contract {tx.contract!r}")
        self._next_nonce[tx.sender] = expected + 1
        self._pending.append(tx)
        receipt = TxReceipt(tx_hash=tx.tx_hash)
        self._receipts[receipt.tx_hash] = receipt
        self._signature_checked[receipt.tx_hash] = public_key
        return receipt

    def seal_block(self) -> Block:
        """Append the next block of the pending transactions, run
        :attr:`on_seal`, then apply the transactions in order.

        If :attr:`on_seal` raises, the block is taken off again and its
        transactions are dropped unapplied; their senders' nonces stay
        used, which replay and :meth:`verify` allow."""
        height = len(self.blocks)
        prev_hash = self.blocks[-1].block_hash if self.blocks else GENESIS_PREV_HASH
        transactions = tuple(self._pending)
        self._pending = []
        body = _block_body(height, prev_hash, transactions)
        block_hash = hashlib.sha256(body).digest()
        block = Block(height, prev_hash, transactions, block_hash)
        object.__setattr__(block, "_serialized", body + block_hash)
        self.blocks.append(block)
        if self.on_seal is not None:
            try:
                self.on_seal(self)
            except BaseException:
                del self.blocks[-1]
                raise
        for tx in transactions:
            self._apply_with_receipt(tx, height)
        return block

    def _apply_with_receipt(self, tx: Transaction, height: int) -> None:
        """Apply ``tx`` and fill in its receipt. A transaction that the
        contracts refuse or whose arguments do not decode is rejected, so it
        never stops a block from being sealed or loaded."""
        receipt = self._receipts.setdefault(tx.tx_hash, TxReceipt(tx.tx_hash))
        receipt.height = height
        try:
            self._apply(tx, height)
        except (LedgerError, CodecError) as exc:
            receipt.status, receipt.error = STATUS_REJECTED, type(exc).__name__
        else:
            receipt.status, receipt.error = STATUS_APPLIED, None

    def _apply(self, tx: Transaction, height: int) -> None:
        if tx.contract == CONTRACT_MESSAGE_REGISTRY and tx.method == "store":
            message_id, locator = _decode_store_args(tx.args)
            if message_id in self._messages:
                raise AlreadyRecorded(f"message id {message_id.hex()} already recorded")
            self._messages[message_id] = MessageRecord(locator, tx.sender, height)
        elif tx.contract == CONTRACT_ACTOR_REGISTRY and tx.method == "certify":
            if tx.sender not in self.certifiers:
                raise NotCertifier(f"{tx.sender.hex()} is not a certifier")
            actor_key, locator = _decode_certify_args(tx.args)
            self._actors[actor_key] = ActorRecord(locator, tx.sender, height)
        else:
            raise UnknownContract(f"no method {tx.method!r} on {tx.contract!r}")

    def receipt(self, tx_hash: bytes) -> TxReceipt:
        try:
            return self._receipts[tx_hash]
        except KeyError:
            raise RecordNotFound(f"no receipt for {tx_hash.hex()}")

    # -- queries over sealed state ----------------------------------------

    @property
    def height(self) -> int:
        return len(self.blocks)

    def message_get(self, message_id: bytes) -> MessageRecord:
        try:
            return self._messages[message_id]
        except KeyError:
            raise RecordNotFound(f"no record for message id {message_id.hex()}")

    def actor_get(self, actor: bytes) -> ActorRecord:
        try:
            return self._actors[actor_registry_key(actor)]
        except KeyError:
            raise RecordNotFound(f"no actor record for {actor.hex()}")

    # -- integrity ---------------------------------------------------------

    def verify(self) -> ChainVerification:
        """Recompute every block height, link and hash, and check every
        transaction signature.

        Each signature is checked once per ``Chain`` object: a transaction
        whose signature :meth:`submit` verified, against the key its sender
        still has, is not verified again. Its hash covers the signature and
        everything signed, so the result is the one a fresh check would
        give. A chain from :meth:`load` was never submitted to, so all of
        its signatures are checked.
        """
        prev_hash = GENESIS_PREV_HASH
        for expected_height, block in enumerate(self.blocks):
            ok = (
                block.height == expected_height
                and block.prev_hash == prev_hash
                and block.block_hash == hashlib.sha256(block.body_bytes()).digest()
                and all(self._tx_valid(tx) for tx in block.transactions)
            )
            if not ok:
                return ChainVerification(False, expected_height)
            prev_hash = block.block_hash
        return ChainVerification(True)

    def _tx_valid(self, tx: Transaction) -> bool:
        public_key = self.accounts.get(tx.sender)
        if public_key is None:
            return False
        return (self._signature_checked.get(tx.tx_hash) == public_key
                or verify_signature(public_key, tx.signature, tx.signing_bytes()))

    # -- persistence --------------------------------------------------------

    def serialize(self) -> bytes:
        """The chain file form of every sealed block; see :func:`serialize_blocks`."""
        return serialize_blocks(self.blocks)

    def extend(self, blocks: Iterable[bytes]) -> None:
        """Replay ``blocks``, each a serialized block, onto this chain in
        order. Parsing is strict but state replay is lenient: hash or
        signature mismatches are left for :meth:`verify` to report."""
        for data in blocks:
            block = parse_block(data)
            for tx in block.transactions:
                self._next_nonce[tx.sender] = max(
                    self._next_nonce.get(tx.sender, 1), tx.sender_nonce + 1)
                self._apply_with_receipt(tx, block.height)
            self.blocks.append(block)

    @classmethod
    def load(cls, accounts: Iterable[bytes], certifiers: Iterable[bytes],
             blocks: Iterable[bytes]) -> "Chain":
        """A new chain that has replayed ``blocks``; see :meth:`extend`."""
        chain = cls(accounts, certifiers)
        chain.extend(blocks)
        return chain


def serialize_blocks(blocks: Iterable[Block]) -> bytes:
    """Chain file form: each block length-prefixed, in order. The file is
    append-only: the form of a later run of blocks is appended to it as is."""
    w = Writer()
    for block in blocks:
        w.put_bytes(block.serialize())
    return w.getvalue()


def _decode_store_args(args: bytes) -> tuple[bytes, str]:
    r = Reader(args)
    message_id = r.take_bytes()
    locator = r.take_str()
    r.expect_end()
    return message_id, locator


def _encode_store_args(message_id: bytes, locator: str) -> bytes:
    w = Writer()
    w.put_bytes(message_id)
    w.put_str(locator)
    return w.getvalue()


def _decode_certify_args(args: bytes) -> tuple[bytes, str]:
    r = Reader(args)
    actor_key = r.take_raw(HASH_BYTES)
    locator = r.take_str()
    r.expect_end()
    return actor_key, locator


def _encode_certify_args(actor_key: bytes, locator: str) -> bytes:
    w = Writer()
    w.put_raw(actor_key)
    w.put_str(locator)
    return w.getvalue()


def message_store(chain: Chain, signer: Signer, message_id: bytes,
                  locator: str) -> TxReceipt:
    """Submit a write-once notarization of ``locator`` under ``message_id``."""
    tx = make_transaction(signer, CONTRACT_MESSAGE_REGISTRY, "store",
                          _encode_store_args(message_id, locator),
                          chain.next_nonce(signer.address))
    return chain.submit(tx)


def actor_certify(chain: Chain, signer: Signer, actor: bytes,
                  metadata_locator: str) -> TxReceipt:
    """Submit an actor-metadata certification; upserts the actor's record."""
    tx = make_transaction(signer, CONTRACT_ACTOR_REGISTRY, "certify",
                          _encode_certify_args(actor_registry_key(actor),
                                               metadata_locator),
                          chain.next_nonce(signer.address))
    return chain.submit(tx)
