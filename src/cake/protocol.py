"""The three services (data manager, user directory, key manager) and their
client library, over an authenticated, encrypted, length-prefixed transport.

Every conversation starts with a three-message handshake::

    client -> server   HELLO     address, ephemeral X25519 key, nonce
    server -> client   CHALLENGE ephemeral X25519 key, nonce, signature
    client -> server   AUTH      signature

Each side signs the running transcript with its Ed25519 identity key: the
server's key is known to clients ahead of time, the client's is resolved
from the shared identity directory by the address claimed in HELLO. The
session key is derived (HKDF-SHA256, salted with the transcript hash) from
the ephemeral-ephemeral exchange plus an exchange against the server's
static key-agreement key. Both sides check a signature with
``ledger.verify_signature``, the check the chain uses. Signing with any key
other than the one registered for the claimed address fails the handshake
with :class:`AuthFailure`, and so does a directory entry whose key is not
an Ed25519 public key: the server reports it in an error frame, as for any
other refused handshake. Replaying a recorded HELLO and AUTH in a fresh
session fails too: the client signs a transcript that holds the server's
fresh challenge, so the recorded AUTH no longer verifies.

After the handshake, every frame is AES-GCM sealed under the session key
with a per-direction counter as the nonce and the transcript hash as
associated data; counters strictly increase, so recorded frames cannot be
replayed into a live session. Frame layout on the wire is a 4-byte
big-endian length followed by the (sealed) body, written with one send. A
length over the limit (:data:`HELLO_BYTES` or :data:`AUTH_BYTES` before the
session is sealed, :data:`MAX_FRAME_BYTES` after) is refused before the
body is read: the server sends one :class:`ProtocolError` frame and closes.
TCP sockets carry ``TCP_NODELAY``: a client writes AUTH and then its first
request without waiting for a reply in between, and Nagle's algorithm would
hold that second write back until the server's delayed acknowledgement,
some 40 ms later; each frame is one write, so no extra small segments go
out in its place. The server end of every connection, a ``ServiceServer``
one or an in-process one, has a handshake deadline and, once sealed, an
idle timeout (:data:`HANDSHAKE_DEADLINE_S`, :data:`IDLE_TIMEOUT_S`); a
read that runs out of time raises :class:`TransportClosed`, and the
session ends. A ``ServiceServer`` runs at most :data:`MAX_SESSIONS`
sessions at once and closes any connection past them as it accepts it.

Each service answers one request tag, its ``request_tag``, and replies to
a request with tag ``request_tag + 1``; a request with any other tag gets a
:class:`ProtocolError`, and the session goes on. Each service declares the
records of its request and of its reply beside its tag (``request`` and
``reply``, tuples of :mod:`cake.codec` fields), and the client library
sends and reads the same declarations. The request is decoded before the
handler runs, and a request whose payload is not exactly its record gets
:class:`codec.CodecError`, and the session goes on: a key request, whose
record has no field, with any payload; a certify request that does not
decode, even from a caller that is not the certifier. The values the
handler returns are encoded as the reply. A service reports a failed
request as an error frame that names the exception's class; the client
raises that :class:`CakeError` subclass with the same message (policy errors
keep their byte offset), or :class:`RemoteServiceError` when no such class
is loaded; an error frame is a record too (:data:`ERROR_PAYLOAD`), and one
with bytes after its last field is a :class:`codec.CodecError` at the
client. A handler that fails on any other exception is a bug in the
service: the service logs it with its traceback, sends one error frame
naming :class:`InternalError` with a fixed message and no traceback, and
closes the session.

Services:

* ``SdmService`` — encrypts submitted slices under their policies, puts the
  container on the content store, and notarizes message id -> locator on
  the chain under its own address (the submitting owner never appears).
* ``UdService``  — fronts the deployment's one attribute certifier:
  uploads signed actor metadata to the content store and records its
  locator on the chain. The service holds the certifier's ledger signer; a
  session from any other identity is refused with ``NotCertifier``.
* ``SkmService`` — issues attribute-bound user keys: resolves the caller's
  latest certified metadata through chain + store, re-derives wrap keys,
  and returns the bundle over the sealed channel only.

Reading is a pure client-side operation. ``client_read`` is
``fetch_container`` (ledger lookup, verified content fetch, parse, and the
check that the container carries the notarized id) followed by
``abe.decrypt_container``; a caller reading one document with several keys
fetches it once and decrypts it with each.

Every service owns the deployment's chain and content store; the data
manager and the user directory write through ``Service._notarize`` (store
put, then submit and seal under the chain's one lock, and
:class:`LedgerRejected` unless applied); the seal appends the block to the
chain's block log before it applies the block. ``deploy`` is the one place
that wires a deployment: the chain, the identity directory (address ->
signing key, seeded with the certifier) and the three services. A service
is a dataclass that declares the fields its handler reads: every service
has its identity, the directory, the chain, the store and the entropy
source, and each adds its own (the master secret, the certifier's signer,
the clock); ``deploy`` alone builds them. The repr of a service, of a
deployment or of its master secret shows no secret.
``provision`` draws a fresh master secret and ``SERVICE_ROLES`` identities
and deploys them on an empty chain whose block log is a list; the CLI reads
them from its home, whose chain file is the block log.

Process layout: in one process, as in ``provision`` and the in-process CLI,
the three services share one chain object, and each session runs on a
thread of its own over a socket pair (:func:`serve_in_background`), with
the one :class:`SocketTransport`, framing and server deadlines that TCP
sessions have. ``cake serve`` keeps the two writers in one process,
whose chain appends each block to the chain file as it is sealed, and
forks the key manager into a process of its own, which reads: its chain
is a replica, and its ``SkmService.refresh`` hook applies the blocks
appended to the file since the last key request before it answers the
next one (see :mod:`cake.cli`). Each service's ``reload_directory`` hook,
run only when a handshake claims an unknown address, lets ``cake serve``
read its identity directory from the home again before refusing it.

Services may serve many sessions concurrently (state per session is local,
and writes to the chain are serialized by its lock), but a deterministic
deployment should drive them sequentially with a seeded entropy source, as
the scenario harness does.

Entropy: every ``rng`` parameter defaults to :data:`abe.SYSTEM_RANDOM`, the
one system source, and every byte an identity or a handshake draws comes
from :func:`abe.random_bytes`. A source that fails raises
:class:`abe.EntropyFailure`; a server whose source fails in the handshake
sends that error to the client, as for any other refused handshake, and
serves the next session.
"""

from __future__ import annotations

import hashlib
import logging
import random
import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator, Optional

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from . import abe, cas, ledger
from . import policy as policy_mod
from .codec import BYTES, STR, U64, Field, counted, decode, encode, raw
from .errors import CakeError

# The largest frame either side sends or reads: a blob at the store's cap,
# sealed (tag byte and AES-GCM tag). A store request is never larger than
# the container it yields, which holds the same labels, the plaintexts
# sealed and the policies in canonical form (unless a policy text is padded
# with blanks), so a larger frame could only fail after being read whole;
# it is refused at its length prefix instead.
MAX_FRAME_BYTES = cas.MAX_BLOB_BYTES + 1 + 16
# Seconds a ``ServiceServer`` connection has to finish the handshake, then
# may stay silent once sealed (see the module docstring).
HANDSHAKE_DEADLINE_S = 10.0
IDLE_TIMEOUT_S = 300.0
# Sessions one ServiceServer serves at once; a connection past them is closed
# at accept, so clients cannot make it start unbounded threads.
MAX_SESSIONS = 64
NONCE_LEN = 16
# Pre-authentication frames have fixed sizes; the server reads no more.
HELLO_BYTES = 1 + ledger.ADDRESS_BYTES + 32 + NONCE_LEN
AUTH_BYTES = 1 + 64

TAG_HELLO = 0x01
TAG_CHALLENGE = 0x02
TAG_AUTH = 0x03
TAG_STORE_REQ = 0x10
TAG_CERTIFY_REQ = 0x12
TAG_KEY_REQ = 0x14
TAG_ERROR = 0x1F

_SERVER_SIG_CONTEXT = b"cake/handshake/server/v1"
_CLIENT_SIG_CONTEXT = b"cake/handshake/client/v1"
_SESSION_KEY_INFO = b"cake/session-key/v1"

# The identities a deployment is made of, in the order provisioning draws them.
SERVICE_ROLES = ("sdm", "ud", "skm", "certifier")

_DIR_CLIENT_TO_SERVER = 0x01
_DIR_SERVER_TO_CLIENT = 0x02

Clock = Callable[[], int]

_log = logging.getLogger(__name__)


def _system_clock() -> int:
    return int(time.time())


class ProtocolError(CakeError):
    pass


class TransportClosed(ProtocolError):
    """The peer closed the connection."""


class AuthFailure(ProtocolError):
    """Handshake signature or sealed-frame authentication failed."""


class UnknownClient(ProtocolError):
    """The claimed address is not in the identity directory."""


class NotCertified(ProtocolError):
    """The caller has no actor record on the chain."""


class LedgerRejected(ProtocolError):
    """The chain rejected the transaction backing this operation."""


class InternalError(ProtocolError):
    """The service failed on an error of its own; the details are in its log."""


class RemoteServiceError(ProtocolError):
    """Error reported by the peer that maps to no local exception type."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


# --- identities ---------------------------------------------------------------

class Identity:
    """An actor's signing keypair plus static key-agreement keypair."""

    def __init__(self, signer: ledger.Signer, kx_private: X25519PrivateKey) -> None:
        self.signer = signer
        self.kx_private = kx_private
        self.address = signer.address
        self.signing_public = signer.public_bytes
        self.kx_public = kx_private.public_key().public_bytes_raw()

    @classmethod
    def generate(cls, rng: random.Random = abe.SYSTEM_RANDOM) -> "Identity":
        return cls(ledger.Signer.from_seed(abe.random_bytes(rng, 32)),
                   X25519PrivateKey.from_private_bytes(abe.random_bytes(rng, 32)))

    def public(self) -> "PeerIdentity":
        return PeerIdentity(self.address, self.signing_public, self.kx_public)

    def to_dict(self) -> dict[str, str]:
        return {
            "signing_private": self.signer.private_bytes().hex(),
            "kx_private": self.kx_private.private_bytes_raw().hex(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, str]) -> "Identity":
        return cls(
            ledger.Signer.from_seed(bytes.fromhex(data["signing_private"])),
            X25519PrivateKey.from_private_bytes(bytes.fromhex(data["kx_private"])),
        )


@dataclass(frozen=True)
class PeerIdentity:
    """The public half of an identity, as published to peers."""
    address: bytes
    signing_public: bytes
    kx_public: bytes

    def to_dict(self) -> dict[str, str]:
        return {
            "address": self.address.hex(),
            "signing_public": self.signing_public.hex(),
            "kx_public": self.kx_public.hex(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, str]) -> "PeerIdentity":
        return cls(bytes.fromhex(data["address"]),
                   bytes.fromhex(data["signing_public"]),
                   bytes.fromhex(data["kx_public"]))


# address -> Ed25519 signing key; the services authenticate clients by it.
IdentityDirectory = dict[bytes, bytes]


@dataclass(frozen=True)
class ActorMetadata:
    """Certified actor -> attributes binding, uploaded to the content store."""
    actor: bytes
    attributes: frozenset[str]
    certified_at: int
    certifier: bytes


# Its record: the actor, its attributes (sorted), when and by whom certified.
ACTOR_METADATA = (raw(ledger.ADDRESS_BYTES), counted(STR), U64, raw(ledger.ADDRESS_BYTES))


def serialize_actor_metadata(md: ActorMetadata) -> bytes:
    return encode(ACTOR_METADATA, md.actor, sorted(md.attributes), md.certified_at, md.certifier)


def parse_actor_metadata(data: bytes) -> ActorMetadata:
    actor, attributes, certified_at, certifier = decode(ACTOR_METADATA, data)
    return ActorMetadata(actor, frozenset(attributes), certified_at, certifier)


# --- transport ----------------------------------------------------------------

class SocketTransport:
    """Byte-frame duplex channel over a stream socket: a 4-byte big-endian
    length, then the body. Turns Nagle's algorithm off on TCP sockets (see
    the module docstring).

    The ``server`` end of a connection has the server deadlines: every read
    until :meth:`sealed` must complete within :data:`HANDSHAKE_DEADLINE_S`
    of construction, and each read after it may wait :data:`IDLE_TIMEOUT_S`
    for data. A read that runs out of time raises :class:`TransportClosed`.
    """

    def __init__(self, sock: socket.socket, server: bool = False) -> None:
        self._sock = sock
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._deadline = time.monotonic() + HANDSHAKE_DEADLINE_S if server else None
        self._idle_timeout_s = IDLE_TIMEOUT_S if server else None

    def sealed(self) -> None:
        """The handshake on this transport has completed; a service calls
        this before it reads the first request."""
        self._deadline = None
        if self._idle_timeout_s is not None:
            self._sock.settimeout(self._idle_timeout_s)

    def send_frame(self, body: bytes) -> None:
        if len(body) > MAX_FRAME_BYTES:
            raise ProtocolError("frame exceeds size limit")
        try:
            self._sock.sendall(len(body).to_bytes(4, "big") + body)
        except OSError as exc:
            raise TransportClosed(f"socket send failed: {exc}") from exc

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        while n:
            if self._deadline is not None:
                remaining = self._deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportClosed("handshake deadline passed")
                self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(n)
            except OSError as exc:
                raise TransportClosed(f"socket recv failed: {exc}") from exc
            if not chunk:
                raise TransportClosed("peer closed the socket")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def recv_frame(self, limit: int = MAX_FRAME_BYTES) -> bytes:
        """Next frame body; raises :class:`ProtocolError`, without reading
        the body, when it is longer than ``limit``."""
        length = int.from_bytes(self._recv_exact(4), "big")
        if length > limit:
            raise ProtocolError("incoming frame exceeds size limit")
        return self._recv_exact(length)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


# An alias, not a second transport: perfbench/spans.py patches
# ``MemoryTransport.recv_frame`` by name, so the name stays until that
# span table goes.
MemoryTransport = SocketTransport


def memory_pair() -> tuple[SocketTransport, SocketTransport]:
    """An in-process connection over ``socket.socketpair()``: (server end,
    client end). The server end has the handshake deadline and idle timeout
    of a ``ServiceServer`` connection, so a silent peer is dropped, not
    waited for; the client end has none, as :func:`connect_tcp`'s."""
    server, client = socket.socketpair()
    return SocketTransport(server, server=True), SocketTransport(client)


# --- wire errors ----------------------------------------------------------------

def _error_classes(base: type) -> Iterator[type]:
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


def _wire_error(code: str, message: str, offset: int) -> CakeError:
    """The exception an error frame names: the first loaded :class:`CakeError`
    subclass called ``code`` that is built from its message alone (or, for a
    policy error, from its message and offset); otherwise
    :class:`RemoteServiceError`."""
    for cls in _error_classes(CakeError):
        if cls.__name__ != code:
            continue
        if issubclass(cls, policy_mod.PolicyError):
            return cls(message, offset)
        if cls.__init__ is CakeError.__init__:
            return cls(message)
    return RemoteServiceError(code, message)


# An error frame's payload: the exception's class name, its message and a
# policy error's byte offset (0 for any other error).
ERROR_PAYLOAD = (STR, STR, U64)


def _encode_error(exc: Exception) -> bytes:
    message = str(exc.args[0]) if exc.args else str(exc)
    return encode(ERROR_PAYLOAD, type(exc).__name__, message, max(getattr(exc, "offset", 0), 0))


def _raise_wire_error(payload: bytes) -> None:
    raise _wire_error(*decode(ERROR_PAYLOAD, payload))


# --- handshake and sealed session ------------------------------------------------

def _x25519_public(private: X25519PrivateKey) -> bytes:
    return private.public_key().public_bytes_raw()


def _exchange(private: X25519PrivateKey, peer_public: bytes) -> bytes:
    try:
        return private.exchange(X25519PublicKey.from_public_bytes(peer_public))
    except ValueError as exc:  # a low-order point gives an all-zero secret
        raise AuthFailure("peer key agreement failed") from exc


class Session:
    """Sealed channel after a completed handshake: the transcript (HELLO,
    CHALLENGE and AUTH) and the shared secret give the transcript hash and
    the session key."""

    def __init__(self, transport: SocketTransport, transcript: bytes, shared: bytes,
                 peer_address: bytes, is_client: bool) -> None:
        self._transport = transport
        self.transcript_hash = hashlib.sha256(transcript).digest()
        self._aead = AESGCM(HKDF(algorithm=SHA256(), length=32, salt=self.transcript_hash,
                                 info=_SESSION_KEY_INFO).derive(shared))
        self.peer_address = peer_address
        self._send_dir = _DIR_CLIENT_TO_SERVER if is_client else _DIR_SERVER_TO_CLIENT
        self._recv_dir = _DIR_SERVER_TO_CLIENT if is_client else _DIR_CLIENT_TO_SERVER
        self._send_counter = 0
        self._recv_counter = 0

    @staticmethod
    def _nonce(direction: int, counter: int) -> bytes:
        return bytes([direction, 0, 0, 0]) + counter.to_bytes(8, "big")

    def send(self, tag: int, payload: bytes) -> None:
        nonce = self._nonce(self._send_dir, self._send_counter)
        self._send_counter += 1
        sealed = self._aead.encrypt(nonce, bytes([tag]) + payload, self.transcript_hash)
        self._transport.send_frame(sealed)

    def receive(self) -> tuple[int, bytes]:
        sealed = self._transport.recv_frame()
        nonce = self._nonce(self._recv_dir, self._recv_counter)
        try:
            body = self._aead.decrypt(nonce, sealed, self.transcript_hash)
        except InvalidTag as exc:
            raise AuthFailure("sealed frame failed authentication") from exc
        self._recv_counter += 1
        if not body:
            raise AuthFailure("empty sealed frame")
        return body[0], body[1:]

    def close(self) -> None:
        self._transport.close()


def _signing_input(context: bytes, *transcript: bytes) -> bytes:
    return hashlib.sha256(context + b"".join(transcript)).digest()


def client_handshake(identity: Identity, server: PeerIdentity, transport: SocketTransport,
                     rng: random.Random = abe.SYSTEM_RANDOM) -> Session:
    """Run the client side of the handshake and return the sealed session."""
    ephemeral = X25519PrivateKey.from_private_bytes(abe.random_bytes(rng, 32))
    hello = (bytes([TAG_HELLO]) + identity.address + _x25519_public(ephemeral)
             + abe.random_bytes(rng, NONCE_LEN))
    transport.send_frame(hello)

    challenge = transport.recv_frame()
    if challenge[:1] == bytes([TAG_ERROR]):
        _raise_wire_error(challenge[1:])
    if len(challenge) != 1 + 32 + NONCE_LEN + 64 or challenge[0] != TAG_CHALLENGE:
        raise AuthFailure("malformed handshake challenge")
    server_ephemeral = challenge[1:33]
    challenge_core = challenge[1:1 + 32 + NONCE_LEN]
    server_sig = challenge[1 + 32 + NONCE_LEN:]
    if not ledger.verify_signature(server.signing_public, server_sig,
                                   _signing_input(_SERVER_SIG_CONTEXT, hello, challenge_core)):
        raise AuthFailure("server signature does not verify")

    client_sig = identity.signer.sign(_signing_input(_CLIENT_SIG_CONTEXT, hello, challenge))
    auth = bytes([TAG_AUTH]) + client_sig
    transport.send_frame(auth)

    shared = (_exchange(ephemeral, server_ephemeral)
              + _exchange(ephemeral, server.kx_public))
    return Session(transport, hello + challenge + auth, shared, server.address,
                   is_client=True)


# --- services ----------------------------------------------------------------

@dataclass(eq=False, repr=False, kw_only=True)
class Service:
    """Base: handshake, request loop, and the deployment's chain and store.
    Each service declares the fields its handler reads; :func:`deploy`
    builds them."""

    # The one request tag the service answers, and the records of its
    # request and of its reply, which has tag ``request_tag + 1``.
    request_tag: ClassVar[int]
    request: ClassVar[tuple[Field, ...]]
    reply: ClassVar[tuple[Field, ...]]
    identity: Identity
    directory: IdentityDirectory
    chain: ledger.Chain
    store: cas.BlobStore
    rng: random.Random
    # Run once when a handshake claims an address the directory lacks,
    # before the handshake is refused. A server whose directory is read
    # from a file sets it to read the file again, so identities registered
    # since it started are served; a known address never runs it.
    reload_directory: Callable[[], None] = lambda: None

    def public(self) -> PeerIdentity:
        return self.identity.public()

    def serve_session(self, transport: SocketTransport) -> None:
        """Serve one connection until the peer closes it.

        The transport is always closed on return. An exception that is not
        the peer leaving is logged with its traceback, never raised, so one
        session cannot take its thread down uncleanly.
        """
        try:
            self._serve(transport)
        except TransportClosed:
            pass
        except Exception:
            _log.exception("%s session failed", type(self).__name__)
        finally:
            transport.close()

    def _serve(self, transport: SocketTransport) -> None:
        try:
            session = self._server_handshake(transport)
        except TransportClosed:
            return
        except CakeError as exc:
            transport.send_frame(bytes([TAG_ERROR]) + _encode_error(exc))
            return
        transport.sealed()
        while True:
            try:
                tag, payload = session.receive()
            except AuthFailure:
                return  # garbage within a sealed session: drop the peer
            except TransportClosed:
                raise
            except ProtocolError as exc:  # an oversized frame, left unread
                session.send(TAG_ERROR, _encode_error(exc))
                return
            try:
                if tag != self.request_tag:
                    raise ProtocolError(f"unexpected request tag {tag:#x}")
                response = encode(self.reply,
                                  *self._handle(session, *decode(self.request, payload)))
            except CakeError as exc:
                session.send(TAG_ERROR, _encode_error(exc))
                continue
            except Exception:
                _log.exception("%s request failed", type(self).__name__)
                session.send(TAG_ERROR, _encode_error(InternalError(
                    "the service failed on this request")))
                return
            session.send(self.request_tag + 1, response)

    def _server_handshake(self, transport: SocketTransport) -> Session:
        hello = transport.recv_frame(HELLO_BYTES)
        if len(hello) != HELLO_BYTES or hello[0] != TAG_HELLO:
            raise AuthFailure("expected client hello")
        client_address = hello[1:21]
        client_ephemeral = hello[21:53]
        client_signing = self.directory.get(client_address)
        if client_signing is None:
            self.reload_directory()
            client_signing = self.directory.get(client_address)
        if client_signing is None:
            raise UnknownClient(f"no identity registered for {client_address.hex()}")

        ephemeral = X25519PrivateKey.from_private_bytes(abe.random_bytes(self.rng, 32))
        challenge_core = _x25519_public(ephemeral) + abe.random_bytes(self.rng, NONCE_LEN)
        server_sig = self.identity.signer.sign(
            _signing_input(_SERVER_SIG_CONTEXT, hello, challenge_core))
        challenge = bytes([TAG_CHALLENGE]) + challenge_core + server_sig
        transport.send_frame(challenge)

        auth = transport.recv_frame(AUTH_BYTES)
        if len(auth) != AUTH_BYTES or auth[0] != TAG_AUTH:
            raise AuthFailure("expected client auth")
        if not ledger.verify_signature(client_signing, auth[1:],
                                       _signing_input(_CLIENT_SIG_CONTEXT, hello, challenge)):
            raise AuthFailure("client signature does not verify")

        shared = (_exchange(ephemeral, client_ephemeral)
                  + _exchange(self.identity.kx_private, client_ephemeral))
        return Session(transport, hello + challenge + auth, shared, client_address,
                       is_client=False)

    def _handle(self, session: Session, *request: object) -> tuple:
        """The values of the reply to one request of tag :attr:`request_tag`,
        given the values of the request."""
        raise NotImplementedError

    def _notarize(self, blob: bytes,
                  submit: Callable[[str], ledger.TxReceipt]) -> str:
        """Put ``blob`` on the content store, seal the transaction that
        ``submit`` makes for its locator into a block, and return the
        locator; raises :class:`LedgerRejected` unless the chain applied it.

        ``submit`` reads the sender's next nonce, signs and submits; that
        and the seal, which appends the block to the chain's block log, run
        under ``chain.lock``, so concurrent sessions never reuse a nonce or
        seal a pending list that another session is still appending to. An
        append that fails raises here, and the transaction is not applied."""
        locator = self.store.put(blob).render()
        with self.chain.lock:
            receipt = submit(locator)
            self.chain.seal_block()
        if receipt.status != ledger.STATUS_APPLIED:
            raise LedgerRejected(f"transaction rejected: {receipt.error}")
        return locator


@dataclass(eq=False, repr=False, kw_only=True)
class SdmService(Service):
    """Secure data manager: encrypt, store, notarize."""

    request_tag = TAG_STORE_REQ
    request = (counted(STR, STR, BYTES),)  # (label, policy, plaintext) slices
    reply = (BYTES, STR)  # message id, locator
    master: abe.MasterSecret

    def _handle(self, session: Session, slices: list[tuple[str, str, bytes]]) -> tuple[bytes, str]:
        message_id = abe.new_message_id(self.rng)
        container = abe.encrypt_container(self.master, message_id, slices, self.rng)
        locator = self._notarize(
            abe.serialize_container(container),
            lambda loc: ledger.message_store(self.chain, self.identity.signer,
                                             message_id, loc))
        return message_id, locator


@dataclass(eq=False, repr=False, kw_only=True)
class UdService(Service):
    """User directory: actor metadata upload plus on-chain certification.

    Runs on behalf of the deployment's one attribute certifier: it holds
    the certifier's ledger signer, and a session authenticated as anyone
    else is refused.
    """

    request_tag = TAG_CERTIFY_REQ
    request = (raw(ledger.ADDRESS_BYTES), counted(STR))  # actor, attributes
    reply = (STR,)  # metadata locator
    certifier: ledger.Signer
    clock: Clock

    def _handle(self, session: Session, actor: bytes, attributes: list[str]) -> tuple[str]:
        if session.peer_address != self.certifier.address:
            raise ledger.NotCertifier(
                f"{session.peer_address.hex()} is not a registered certifier")
        attrs = frozenset(map(policy_mod.normalize_attribute, attributes))
        if not attrs:
            raise abe.EmptyAttributeSet("cannot certify an empty attribute set")

        metadata = ActorMetadata(actor, attrs, self.clock(), self.certifier.address)
        locator = self._notarize(
            serialize_actor_metadata(metadata),
            lambda loc: ledger.actor_certify(self.chain, self.certifier, actor, loc))
        return (locator,)


@dataclass(eq=False, repr=False, kw_only=True)
class SkmService(Service):
    """Secure key manager: derive and return attribute-bound user keys."""

    request_tag = TAG_KEY_REQ
    request = ()
    reply = (BYTES,)  # the user key, as abe.serialize_user_key writes it
    master: abe.MasterSecret
    clock: Clock
    # Run before every key request. A key manager whose chain is a replica
    # of another process's sets it to catch up with the writer:
    # re-certification is last-write-wins, so a stale replica would issue
    # attributes that were since taken away.
    refresh: Callable[[], None] = lambda: None

    def _handle(self, session: Session) -> tuple[bytes]:
        self.refresh()
        caller = session.peer_address
        try:
            record = self.chain.actor_get(caller)
        except ledger.RecordNotFound as exc:
            raise NotCertified(f"no certification for {caller.hex()}") from exc
        blob = self.store.get(cas.parse_locator(record.locator))
        metadata = parse_actor_metadata(blob)
        if metadata.actor != caller:
            raise cas.IntegrityViolation("metadata does not belong to the caller")
        user_key = abe.keygen(self.master, caller, metadata.attributes,
                              issued_at=self.clock())
        return (abe.serialize_user_key(user_key),)


# --- client library -----------------------------------------------------------

class ServiceClient:
    """One authenticated session against one service; as a context manager,
    it closes the session on exit. A handshake that fails closes the
    transport before the error propagates."""

    def __init__(self, identity: Identity, server: PeerIdentity, transport: SocketTransport,
                 rng: random.Random = abe.SYSTEM_RANDOM) -> None:
        self.identity = identity
        try:
            self.session = client_handshake(identity, server, transport, rng)
        except BaseException:
            transport.close()
            raise

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _call(self, tag: int, payload: bytes) -> bytes:
        """Send a request of ``tag``; return the payload of the reply, which
        has tag ``tag + 1``, or raise the error it reports."""
        self.session.send(tag, payload)
        resp_tag, resp_payload = self.session.receive()
        if resp_tag == TAG_ERROR:
            _raise_wire_error(resp_payload)
        if resp_tag != tag + 1:
            raise ProtocolError(f"unexpected response tag {resp_tag:#x}")
        return resp_payload

    def _request(self, service: type[Service], *request: object) -> list:
        """Send ``service`` the request of these values; return the values
        of its reply."""
        return decode(service.reply,
                      self._call(service.request_tag, encode(service.request, *request)))

    def store(self, slices: list[tuple[str, str, bytes]]) -> tuple[bytes, str]:
        """Submit (label, policy, plaintext) slices; returns (message id, locator)."""
        return tuple(self._request(SdmService, slices))

    def certify(self, actor: bytes, attributes: Iterable[str]) -> str:
        """Certify an actor's attribute set; returns the metadata locator."""
        [locator] = self._request(UdService, actor, sorted(set(attributes)))
        return locator

    def request_key(self) -> abe.UserKey:
        """Obtain this identity's attribute-bound decryption key."""
        [key] = self._request(SkmService)
        return abe.parse_user_key(key)

    def close(self) -> None:
        self.session.close()


def fetch_container(chain: ledger.Chain, store: cas.BlobStore,
                    message_id: bytes) -> abe.CiphertextContainer:
    """Resolve a notarized id, fetch and verify its content, and parse it.

    Raises :class:`ledger.RecordNotFound` for unknown ids and
    :class:`cas.IntegrityViolation` / :class:`abe.IntegrityFailure` for
    tampered content. The container is parsed whole: a slice header that is
    not its policy's canonical header, which the data manager never writes,
    or whose policy nests past :data:`policy.MAX_NESTING`, which it no
    longer writes, fails the fetch with :class:`abe.IntegrityFailure`.
    """
    record = chain.message_get(message_id)
    blob = store.get(cas.parse_locator(record.locator))
    container = abe.parse_container(blob)
    if container.message_id != message_id:
        raise abe.IntegrityFailure("container does not carry the notarized id")
    return container


def client_read(chain: ledger.Chain, store: cas.BlobStore, message_id: bytes,
                key: abe.UserKey) -> list[tuple[str, Optional[bytes]]]:
    """Fetch a notarized container and decrypt it with ``key``.

    Raises what :func:`fetch_container` raises; per-slice policy failures
    come back as ``None``.
    """
    return abe.decrypt_container(key, fetch_container(chain, store, message_id))


# --- deployment plumbing ---------------------------------------------------------

@dataclass
class Deployment:
    """A provisioned single-authority installation of the three services."""
    master: abe.MasterSecret
    chain: ledger.Chain
    store: cas.BlobStore
    directory: IdentityDirectory
    sdm: SdmService
    ud: UdService
    skm: SkmService
    certifier: Identity

    def register(self, identity: Identity | PeerIdentity) -> None:
        self.directory[identity.address] = identity.signing_public

    def connect_sdm(self, identity: Identity,
                    rng: random.Random = abe.SYSTEM_RANDOM) -> ServiceClient:
        return ServiceClient(identity, self.sdm.public(),
                             serve_in_background(self.sdm), rng)

    def connect_ud(self, identity: Identity,
                   rng: random.Random = abe.SYSTEM_RANDOM) -> ServiceClient:
        return ServiceClient(identity, self.ud.public(),
                             serve_in_background(self.ud), rng)

    def connect_skm(self, identity: Identity,
                    rng: random.Random = abe.SYSTEM_RANDOM) -> ServiceClient:
        return ServiceClient(identity, self.skm.public(),
                             serve_in_background(self.skm), rng)


def deploy(master: abe.MasterSecret, identities: dict[str, Identity],
           store: cas.BlobStore, chain_blocks: Iterable[bytes],
           clock: Clock = _system_clock,
           rng: random.Random = abe.SYSTEM_RANDOM,
           log: Optional[ledger.BlockLog] = None) -> Deployment:
    """Wire a deployment: ``identities`` maps each of :data:`SERVICE_ROLES`
    to its identity; the chain replays ``chain_blocks``, serialized blocks
    that ``log`` holds (by default, a new list of them), keeps its blocks in
    ``log``, and accepts transactions from the data manager and the
    certifier only. Without ``rng``, the services draw from the system
    source."""
    sdm, ud, skm, certifier = (identities[role] for role in SERVICE_ROLES)
    chain = ledger.Chain.load(accounts=[sdm.signing_public, certifier.signing_public],
                              certifiers=[certifier.address], blocks=chain_blocks,
                              log=log)
    directory: IdentityDirectory = {certifier.address: certifier.signing_public}
    shared = dict(directory=directory, chain=chain, store=store, rng=rng)
    return Deployment(
        master, chain, store, directory,
        SdmService(identity=sdm, master=master, **shared),
        UdService(identity=ud, certifier=certifier.signer, clock=clock, **shared),
        SkmService(identity=skm, master=master, clock=clock, **shared),
        certifier)


def provision(rng: random.Random = abe.SYSTEM_RANDOM,
              clock: Clock = _system_clock) -> Deployment:
    """Draw a master secret and the :data:`SERVICE_ROLES` identities, in that
    order, and :func:`deploy` them on an empty chain and an in-memory store."""
    master = abe.setup(rng)
    identities = {role: Identity.generate(rng) for role in SERVICE_ROLES}
    return deploy(master, identities, cas.MemoryBlobStore(), (), clock, rng)


# The name of each session thread :func:`serve_in_background` starts.
SESSION_THREAD_NAME = "cake-session"


def serve_in_background(service: Service) -> SocketTransport:
    """Serve one in-process session on a thread of its own; returns the
    client end of its :func:`memory_pair`. The server end runs with the
    deadlines of a ``ServiceServer`` connection."""
    server_side, client_side = memory_pair()
    thread = threading.Thread(target=service.serve_session, args=(server_side,),
                              name=SESSION_THREAD_NAME, daemon=True)
    thread.start()
    return client_side


class _SessionHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        self.server.cake_service.serve_session(
            SocketTransport(self.request, server=True))


class ServiceServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server for one service; the caller runs serve_forever.
    A silent connection is dropped at :data:`HANDSHAKE_DEADLINE_S` or
    :data:`IDLE_TIMEOUT_S`, so it cannot pin its thread. At most
    :data:`MAX_SESSIONS` sessions run at once: a connection accepted past
    them is closed before any byte is read, and a slot frees when its
    session's thread ends."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, service: Service, host: str, port: int) -> None:
        super().__init__((host, port), _SessionHandler)
        self.cake_service = service
        self._slots = threading.BoundedSemaphore(MAX_SESSIONS)

    def verify_request(self, request: socket.socket, client_address: object) -> bool:
        return self._slots.acquire(blocking=False)

    def process_request_thread(self, request: socket.socket, client_address: object) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


def connect_tcp(host: str, port: int) -> SocketTransport:
    return SocketTransport(socket.create_connection((host, port)))
