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

Each record of the chain (a transaction, a block, the arguments of each
contract method) is declared once as a tuple of :mod:`cake.codec` fields,
which gives both its encoder and its decoder.

The registry keys actors by a salted hash of their address rather than the
address itself, so the serialized ledger never contains the addresses of
data owners or readers — only the transaction senders (the data-manager and
certifier services), message ids, and locators appear in clear.

Queries (``message_get``, ``actor_get``) read sealed state only; pending
transactions are invisible until the next seal. Both registries keep one
:class:`Record` per entry: the locator its transaction recorded, the
transaction's sender and the height of its block.

A chain keeps its registry state and its tip; the sealed blocks, each
serialized, live in its block log: a ``list[bytes]`` in memory, or the
chain file of a home (``cli.ChainFile``, over :class:`cas.FrameLog`), so
this module knows no file or byte offset. ``seal_block`` appends each block
to the log before it applies the block's transactions; ``verify`` walks the
log's bytes. The chain file form is each serialized block, length-prefixed,
in order. ``Chain.extend`` replays serialized blocks that follow the tip in
the log, so a reader can follow a file that a writer appends to;
``Chain.load`` is ``extend`` on a new chain. A chain is not locked by its
own methods: ``Chain.lock`` is for callers that submit, seal or extend from
several threads.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import threading
import types
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Protocol

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .codec import BYTES, STR, U64, CodecError, counted, decode, encode, raw
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

# The chain's records (see cake.codec). A transaction is its signed fields
# (sender, contract, method, arguments, sender nonce), then its signature; a
# block is its body (height, the hash of the block below it, each
# transaction's bytes), then its hash.
TX_SIGNED = (raw(ADDRESS_BYTES), STR, STR, BYTES, U64)
TX_SIGNATURE = (BYTES,)
TRANSACTION = TX_SIGNED + TX_SIGNATURE
BLOCK_BODY = (U64, raw(HASH_BYTES), counted(BYTES))
BLOCK = BLOCK_BODY + (raw(HASH_BYTES),)
# The arguments of MessageRegistry.store (message id, locator) and of
# ActorRegistry.certify (actor registry key, metadata locator).
STORE_ARGS = (BYTES, STR)
CERTIFY_ARGS = (raw(HASH_BYTES), STR)


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


# A transaction keeps the encoding it was built or parsed from (``_encoded``,
# which is ``None`` on the class), so signing, submit and the seal reuse the
# bytes. Neither a transaction nor a block outlives the seal or the replay
# that made it: the block log keeps the bytes, and the chain only the
# registry state they produce.

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
    return encode(TX_SIGNED, sender, contract, method, args, sender_nonce)


def _with_signature(signing_bytes: bytes, signature: bytes) -> bytes:
    return signing_bytes + encode(TX_SIGNATURE, signature)


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


def _block_body(height: int, prev_hash: bytes,
                transactions: tuple[Transaction, ...]) -> bytes:
    return encode(BLOCK_BODY, height, prev_hash, [tx.canonical_bytes() for tx in transactions])


def _parse_transaction(data: bytes) -> Transaction:
    tx = Transaction(*decode(TRANSACTION, data))
    object.__setattr__(tx, "_encoded", data)
    return tx


def parse_block(data: bytes) -> Block:
    height, prev_hash, transactions, block_hash = decode(BLOCK, data)
    return Block(height, prev_hash, tuple(map(_parse_transaction, transactions)), block_hash)


@dataclass
class TxReceipt:
    tx_hash: bytes
    status: str = STATUS_PENDING
    error: Optional[str] = None
    height: Optional[int] = None


@dataclass(frozen=True)
class Record:
    """A registry entry: the locator a transaction recorded, its sender (the
    data manager or the certifier) and the height of its block."""
    locator: str
    sender: bytes
    height: int


@dataclass(frozen=True)
class ChainVerification:
    ok: bool
    failed_height: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


class BlockLog(Protocol):
    """Where a chain keeps its sealed blocks, each serialized, in order."""

    def append(self, block: bytes) -> None: ...

    def __iter__(self) -> Iterator[bytes]: ...


class Chain:
    """Single-sealer chain over the two registry contracts.

    ``accounts`` are the signing public keys allowed to send transactions
    (the services), fixed at deployment like the certifier set: the mapping
    is read-only, so a signature checked once stays checked. The blocks are
    in :attr:`log`; the chain holds the registries, each sender's next
    nonce, the height and tip hash, the pending transactions with their
    receipts, and one checkpoint (see :meth:`verify`).
    """

    def __init__(self, accounts: Iterable[bytes], certifiers: Iterable[bytes] = (),
                 log: Optional[BlockLog] = None) -> None:
        self.accounts = types.MappingProxyType({address_of(pub): pub for pub in accounts})
        self.certifiers: frozenset[bytes] = frozenset(certifiers)
        self.log: BlockLog = [] if log is None else log
        self.height = 0
        self._tip = GENESIS_PREV_HASH
        # (height, hash of the block below it): the blocks whose signatures
        # this object has checked.
        self._checkpoint = (0, GENESIS_PREV_HASH)
        self._pending: list[tuple[Transaction, TxReceipt]] = []
        self._next_nonce: dict[bytes, int] = {}
        self._messages: dict[bytes, Record] = {}
        self._actors: dict[bytes, Record] = {}
        self.lock = threading.Lock()

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
        receipt = TxReceipt(tx_hash=tx.tx_hash)
        self._pending.append((tx, receipt))
        return receipt

    def seal_block(self) -> Block:
        """Append the next block of the pending transactions to :attr:`log`,
        then apply the transactions in order and fill in their receipts.

        If the append raises, no block is sealed: height and tip stay, the
        transactions are dropped unapplied, and their receipts are rejected
        with the exception's class name as the error. Their senders' nonces
        stay used, which replay and :meth:`verify` allow."""
        pending, self._pending = self._pending, []
        height, prev_hash = self.height, self._tip
        transactions = tuple(tx for tx, _ in pending)
        body = _block_body(height, prev_hash, transactions)
        block_hash = hashlib.sha256(body).digest()
        try:
            self.log.append(body + block_hash)
        except BaseException as exc:
            for _, receipt in pending:
                receipt.status, receipt.error = STATUS_REJECTED, type(exc).__name__
            raise
        if self._checkpoint == (height, prev_hash):
            self._checkpoint = (height + 1, block_hash)
        self.height, self._tip = height + 1, block_hash
        for tx, receipt in pending:
            receipt.height = height
            try:
                self._apply(tx, height)
            except (LedgerError, CodecError) as exc:
                receipt.status, receipt.error = STATUS_REJECTED, type(exc).__name__
            else:
                receipt.status = STATUS_APPLIED
        return Block(height, prev_hash, transactions, block_hash)

    def _apply(self, tx: Transaction, height: int) -> None:
        """Apply ``tx`` to the registries. A transaction that the contracts
        refuse or whose arguments do not decode raises, and is rejected by
        the caller, so it never stops a block from being sealed or loaded."""
        if tx.contract == CONTRACT_MESSAGE_REGISTRY and tx.method == "store":
            message_id, locator = decode(STORE_ARGS, tx.args)
            if message_id in self._messages:
                raise AlreadyRecorded(f"message id {message_id.hex()} already recorded")
            self._messages[message_id] = Record(locator, tx.sender, height)
        elif tx.contract == CONTRACT_ACTOR_REGISTRY and tx.method == "certify":
            if tx.sender not in self.certifiers:
                raise NotCertifier(f"{tx.sender.hex()} is not a certifier")
            actor_key, locator = decode(CERTIFY_ARGS, tx.args)
            self._actors[actor_key] = Record(locator, tx.sender, height)
        else:
            raise UnknownContract(f"no method {tx.method!r} on {tx.contract!r}")

    # -- queries over sealed state ----------------------------------------

    def message_get(self, message_id: bytes) -> Record:
        try:
            return self._messages[message_id]
        except KeyError:
            raise RecordNotFound(f"no record for message id {message_id.hex()}")

    def actor_get(self, actor: bytes) -> Record:
        try:
            return self._actors[actor_registry_key(actor)]
        except KeyError:
            raise RecordNotFound(f"no actor record for {actor.hex()}")

    # -- integrity ---------------------------------------------------------

    def verify(self) -> ChainVerification:
        """Walk the serialized blocks in :attr:`log`: recompute each block's
        height, link and hash, and check the signatures of the blocks past
        the checkpoint. The log must hold the chain's :attr:`height` blocks,
        the last with the chain's tip hash.

        The checkpoint is the run of blocks whose signatures this object has
        checked: :meth:`submit` checks each signature, so a seal that follows
        the checkpoint moves it, and so does a ``verify`` that succeeds. The
        blocks below it are taken as checked only while the recomputed hash
        of its last block is the one recorded; otherwise every signature is
        checked, so a forged signature whose later hashes were redone fails
        at its own height. A chain from :meth:`load` starts with none
        checked.
        """
        failed = self._first_failure(*self._checkpoint)
        if failed is not None and failed < self._checkpoint[0]:
            failed = self._first_failure(0, GENESIS_PREV_HASH)
        if failed is not None:
            return ChainVerification(False, failed)
        self._checkpoint = (self.height, self._tip)
        return ChainVerification(True)

    def _first_failure(self, checked: int, checked_hash: bytes) -> Optional[int]:
        """The first height of :attr:`log` that does not verify, taking the
        signatures below ``checked`` as checked if the block at
        ``checked - 1`` recomputes to ``checked_hash``; ``None`` if all do."""
        # A serialized block starts with its height (u64) and link, and ends
        # with its hash (see BLOCK).
        prev_hash, walked = GENESIS_PREV_HASH, 0
        for height, data in zip(range(self.height), self.log):
            block_hash = hashlib.sha256(data[:-HASH_BYTES]).digest()
            if (int.from_bytes(data[:8], "big") != height
                    or data[8:8 + HASH_BYTES] != prev_hash
                    or data[-HASH_BYTES:] != block_hash
                    or (height == checked - 1 and block_hash != checked_hash)
                    or (height == self.height - 1 and block_hash != self._tip)
                    or (height >= checked and not self._signatures_valid(data))):
                return height
            prev_hash, walked = block_hash, height + 1
        return None if walked == self.height else walked

    def _signatures_valid(self, data: bytes) -> bool:
        """Whether ``data`` parses and each of its transactions is signed by
        its sender's account key."""
        try:
            transactions = parse_block(data).transactions
        except CodecError:
            return False
        return all(tx.sender in self.accounts and verify_signature(
            self.accounts[tx.sender], tx.signature, tx.signing_bytes()) for tx in transactions)

    # -- persistence --------------------------------------------------------

    def serialize(self) -> bytes:
        """The chain file form of the blocks in :attr:`log`: one ``BYTES``
        field (length-prefixed) per block, in order. The file is
        append-only: the form of a later run of blocks is appended to it as
        is."""
        blocks = list(self.log)
        return encode((BYTES,) * len(blocks), *blocks)

    def extend(self, blocks: Iterable[bytes]) -> None:
        """Replay ``blocks``, serialized blocks that follow the tip in
        :attr:`log`, onto this chain's state in order. Parsing is strict
        but state replay is lenient: a transaction the contracts refuse is
        skipped, and hash or signature mismatches are left for
        :meth:`verify` to report."""
        for data in blocks:
            block = parse_block(data)
            for tx in block.transactions:
                self._next_nonce[tx.sender] = max(
                    self._next_nonce.get(tx.sender, 1), tx.sender_nonce + 1)
                with contextlib.suppress(LedgerError, CodecError):
                    self._apply(tx, block.height)
            self.height, self._tip = self.height + 1, block.block_hash

    @classmethod
    def load(cls, accounts: Iterable[bytes], certifiers: Iterable[bytes],
             blocks: Iterable[bytes], log: Optional[BlockLog] = None) -> "Chain":
        """A new chain that has replayed ``blocks`` (see :meth:`extend`) and
        keeps its blocks in ``log``, which holds them already; without
        ``log``, in a new list of ``blocks``."""
        if log is None:
            blocks = log = list(blocks)
        chain = cls(accounts, certifiers, log)
        chain.extend(blocks)
        return chain


def message_store(chain: Chain, signer: Signer, message_id: bytes,
                  locator: str) -> TxReceipt:
    """Submit a write-once notarization of ``locator`` under ``message_id``."""
    tx = make_transaction(signer, CONTRACT_MESSAGE_REGISTRY, "store",
                          encode(STORE_ARGS, message_id, locator),
                          chain.next_nonce(signer.address))
    return chain.submit(tx)


def actor_certify(chain: Chain, signer: Signer, actor: bytes,
                  metadata_locator: str) -> TxReceipt:
    """Submit an actor-metadata certification; upserts the actor's record."""
    tx = make_transaction(signer, CONTRACT_ACTOR_REGISTRY, "certify",
                          encode(CERTIFY_ARGS, actor_registry_key(actor), metadata_locator),
                          chain.next_nonce(signer.address))
    return chain.submit(tx)
