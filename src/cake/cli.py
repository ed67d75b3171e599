"""Command-line front end.

Commands map one-to-one onto protocol operations and run against a local
deployment directory (``--home``, default ``$CAKE_HOME`` or ``./.cake``)
that is auto-provisioned on first use. When ``CAKE_SDM_ADDR`` /
``CAKE_UD_ADDR`` / ``CAKE_SKM_ADDR`` are set (``host:port``), the client
commands talk to remote services (see ``cake serve``) instead of in-process
ones. A port, there or in an option of ``cake serve``, is 0-65535; any
other fails with :class:`UsageError` (exit 64) before a socket is opened.

A home holds:

* ``master.key`` and ``services.json``: the master secret and the service
  identities;
* ``directory.json``, ``identities/`` and ``keys/``: registered peers,
  named identities and issued user keys. A name is one path component
  (the rule :func:`abe.check_label` applies to slice labels); any other
  fails with :class:`UsageError` (exit 64) before a file named by it is
  read or written;
* ``chain.bin``: the chain, an append-only run of length-prefixed blocks;
* ``blobs.pack``: every blob, an append-only run of frames (see
  :class:`cas.DirectoryBlobStore`), created by the first put.

Every file of the home but the two append-only ones (and ``chain.bin``
is created empty the same way) is written whole (:func:`_write_file`): a
new file, readable by its owner alone from creation, is written beside it
and renamed over it, so a reader sees the old file or the new one, never a
part. There is no ``fsync`` yet: a crash of the machine may lose a write.
``cake identity new`` reads, changes and writes ``directory.json`` under an
exclusive ``flock`` on the home directory itself, which no rename replaces,
and provisioning runs under the same lock and writes ``master.key``, the
mark of a provisioned home, last. A home file that cannot be read, does not
parse, or lacks what a command reads from it, fails with
:class:`cas.StorageFailure` (exit 72); so does a user key file in ``keys/``
that does not parse. ``cake serve`` reads two home files while it serves:
``directory.json`` when a handshake claims an unknown address, and
``chain.bin`` in the key manager before each key request. If either cannot
be read, the client gets :class:`cas.StorageFailure` for that handshake or
request, and the service goes on serving.

A home that still has the ``blobs/`` directory of earlier versions, one
file per blob, is refused with :class:`cas.StorageFailure` (exit 72). A
command that reads no blob, such as ``cake ledger verify``, never opens the
pack.

The chain file ``chain.bin`` has one writer at a time. Both files are
read and appended through :class:`cas.FrameLog`, which alone knows their
framing. :meth:`Home.open` reads the chain file's whole blocks and makes
the file the chain's block log (:class:`ChainFile`), so each block is
appended to the file, in one write, as it is sealed and before its
transactions are applied or its receipt is returned; the chain keeps no
block in memory. A blob is appended to the pack before the transaction
that names it is submitted, so no block names a blob written after it. A
write that fails or comes up short is cut back to the file's last whole
frame, and the store or certification whose seal wrote it fails with
:class:`cas.StorageFailure` (exit 72); the block is not sealed, so a failed
store is not notarized and a retry notarizes it once. Like the pack
append, the chain append does not ``fsync``: a sealed block outlives the
process that sealed it, not a crash of the machine. A file whose last
block was cut short keeps its whole blocks; the torn tail is logged,
dropped from the chain, and truncated by the next append. ``cake ledger
verify`` re-reads ``chain.bin``: it walks the bytes of the blocks it
loaded, and checks every signature. ``cake serve`` holds an exclusive
``flock`` on the chain file while it runs; a one-shot command takes the
lock, without waiting, around its own append only. A second writer, or a
writer that finds whole blocks it did not read past the ones it did, or a
file shorter than them, fails with :class:`ChainConflict` (exit 71) and
appends nothing. Pack appends take the pack's own ``flock`` around each
append, so a one-shot command and ``cake serve`` never interleave frames.

``cake serve`` runs in two processes. It binds the three listeners, then
forks: the child serves the key manager (SKM) alone, the parent the data
manager (SDM) and the user directory (UD), which seal blocks. The SKM only
reads, so the child keeps its own replica of the chain and, before every
key request, applies the blocks the parent has appended to the file since
it last looked (``Chain.extend`` of the frames past its chain file's end).
Its copy of the pack index is the parent's at the fork; a metadata blob the
parent appended since is not in it, so the lookup misses and rescans the
pack from the end of the indexed frames. Key handshakes then no longer hold
the parent's interpreter lock while stores run. Each process reads
``directory.json`` again when a handshake claims an address it does not
know, before refusing it, so an identity made after the server started is
served. The child ignores SIGINT, exits on SIGTERM and exits once its
parent is gone; the parent stops it with SIGTERM and reaps it on every way
out.

Exit codes: 0 success, 64 usage, 65-75 one code per error class. A
scenario script that is not UTF-8 or does not parse fails with
:class:`scenario.ScenarioError` at step ``parse`` (exit 74). A scenario run
whose realized access matrix does not match the script's expectations
prints its report, then fails with :class:`scenario.ScenarioError` at step
``matrix`` (exit 74), naming each mismatched cell.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import io
import json
import logging
import os
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Iterator, Optional, TypeVar

from . import abe, cas, ledger, protocol, scenario
from . import policy as policy_mod
from .codec import CodecError
from .errors import CakeError

EXIT_OK = 0
EXIT_USAGE = 64
EXIT_POLICY_SYNTAX = 65
EXIT_NOT_FOUND = 66
EXIT_POLICY_NOT_SATISFIED = 67
EXIT_INTEGRITY = 68
EXIT_AUTH = 69
EXIT_NOT_CERTIFIED = 70
EXIT_LEDGER_REJECTED = 71
EXIT_STORAGE = 72
EXIT_CHAIN_INVALID = 73
EXIT_BAD_REQUEST = 74
EXIT_OTHER = 75

_log = logging.getLogger(__name__)


class ChainConflict(CakeError):
    """Another process holds this home's chain file, or wrote to it since
    this one read it."""


_EXIT_CODES: list[tuple[tuple[type, ...], int]] = [
    ((policy_mod.PolicyError,), EXIT_POLICY_SYNTAX),
    ((ledger.RecordNotFound, cas.BlobNotFound), EXIT_NOT_FOUND),
    ((abe.PolicyNotSatisfied,), EXIT_POLICY_NOT_SATISFIED),
    ((abe.IntegrityFailure, cas.IntegrityViolation), EXIT_INTEGRITY),
    ((protocol.AuthFailure, protocol.UnknownClient), EXIT_AUTH),
    ((protocol.NotCertified, ledger.NotCertifier), EXIT_NOT_CERTIFIED),
    ((protocol.LedgerRejected, ledger.AlreadyRecorded, ledger.BadNonce,
      ledger.BadSignature, ledger.UnknownContract, ChainConflict),
     EXIT_LEDGER_REJECTED),
    ((cas.StorageFailure, cas.BlobTooLarge), EXIT_STORAGE),
    ((abe.EmptyContainer, abe.DuplicateLabel, abe.InvalidLabel, abe.EmptyAttributeSet,
      cas.MalformedLocator, CodecError, scenario.ScenarioError), EXIT_BAD_REQUEST),
]


def exit_code_for(exc: Exception) -> int:
    for classes, code in _EXIT_CODES:
        if isinstance(exc, classes):
            return code
    return EXIT_OTHER


class UsageError(Exception):
    pass


T = TypeVar("T")


def _read_home_file(path: Path, parse: Callable[[bytes], T]) -> T:
    """``parse`` of the bytes of the home file ``path``. Raises
    :class:`cas.StorageFailure` when the file cannot be read, or when
    ``parse`` finds its bytes malformed (text that is not UTF-8 included) or
    without a field it reads."""
    try:
        return parse(path.read_bytes())
    except (OSError, AttributeError, LookupError, TypeError, ValueError, CodecError,
            abe.EmptyAttributeSet) as exc:
        raise cas.StorageFailure(f"{path} cannot be read as a home file: {exc!r}") from exc


def _write_file(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` whole. A new file is made in the same
    directory (``tempfile.mkstemp``: ``O_CREAT | O_EXCL``, mode 0600),
    written, and renamed over ``path``; if any step fails, it is removed."""
    fd, temporary = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


def _check_name(name: str) -> str:
    """Return the identity name ``name`` if it is one path component, else
    raise :class:`UsageError`: the home names identity and key files by it."""
    try:
        return abe.check_label(name)
    except abe.InvalidLabel:
        raise UsageError(f"name {name!r} is not a single path component") from None


def _json_bytes(value: object) -> bytes:
    return json.dumps(value, indent=2).encode()


# --- the deployment directory ------------------------------------------------

class ChainFile:
    """The block log of a chain opened from a home: ``chain.bin``, one frame
    per block, read and appended through a :class:`cas.FrameLog`.

    Iterating reads, with ``pread``, the blocks of the frames read or
    written through this log, so it holds nothing per block. An append
    writes through the handle :meth:`Home.lock_chain` holds locked, or, when
    there is none, locks the file around this append alone. It raises
    :class:`ChainConflict`, and writes nothing, when another process holds
    the lock or has changed the file's whole blocks since this process read
    them; it raises :class:`cas.StorageFailure`, and leaves the file at its
    last whole block, when the write fails (:meth:`cas.FrameLog.append`).
    """

    def __init__(self, home: "Home") -> None:
        self._home = home
        self.frames = cas.FrameLog(home.chain_file)

    def __iter__(self) -> Iterator[bytes]:
        with self.frames.path.open("rb") as fh:
            for (length,), body in self.frames.read(fh.fileno()):
                yield os.pread(fh.fileno(), length, body)

    def read_new(self, fd: int) -> Iterator[bytes]:
        """The blocks in the chain file ``fd`` past the frames this log has
        read or written, which it then counts as read."""
        for (length,), body in self.frames.read_new(fd):
            yield os.pread(fd, length, body)

    def append(self, block: bytes) -> None:
        writer = self._home._chain_writer
        try:
            if writer is not None:
                self.frames.append(writer.fileno(), block)
            else:
                with _open_locked(self.frames.path) as fh:
                    self.frames.append(fh.fileno(), block)
        except cas.LogConflict as exc:
            raise ChainConflict(*exc.args) from exc


class Home:
    """On-disk deployment state for the in-process services."""

    def __init__(self, path: Path) -> None:
        self.path = path
        # The chain file, open and exclusively locked, while ``cake serve`` runs.
        self._chain_writer: Optional[io.FileIO] = None

    # file layout
    @property
    def master_file(self) -> Path: return self.path / "master.key"
    @property
    def services_file(self) -> Path: return self.path / "services.json"
    @property
    def chain_file(self) -> Path: return self.path / "chain.bin"
    @property
    def directory_file(self) -> Path: return self.path / "directory.json"
    @property
    def identities_dir(self) -> Path: return self.path / "identities"
    @property
    def keys_dir(self) -> Path: return self.path / "keys"

    def ensure_provisioned(self) -> None:
        if self.master_file.exists():
            return
        self.path.mkdir(parents=True, exist_ok=True)
        with self._locked():
            if self.master_file.exists():  # another process provisioned it
                return
            self.identities_dir.mkdir(exist_ok=True)
            self.keys_dir.mkdir(exist_ok=True)
            services = {name: protocol.Identity.generate().to_dict()
                        for name in protocol.SERVICE_ROLES}
            _write_file(self.services_file, _json_bytes(services))
            _write_file(self.chain_file, b"")
            _write_file(self.directory_file, _json_bytes({"peers": {}}))
            _write_file(self.master_file, abe.setup().root_key.hex().encode())
        print(f"provisioned new deployment in {self.path}", file=sys.stderr)

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold an exclusive ``flock`` on the home directory, for a
        read-modify-write of its files; waits for another holder."""
        fd = os.open(self.path, os.O_RDONLY | os.O_DIRECTORY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)

    def _peers(self) -> dict[str, protocol.PeerIdentity]:
        """The registered peers, by name."""
        return _read_home_file(self.directory_file, lambda data: {
            name: protocol.PeerIdentity.from_dict(peer)
            for name, peer in json.loads(data)["peers"].items()})

    def open(self) -> protocol.Deployment:
        """The deployment on this home; its chain's block log is the chain
        file, so each block the chain seals is appended to it."""
        self.ensure_provisioned()
        old_blobs = self.path / "blobs"
        if old_blobs.is_dir():
            raise cas.StorageFailure(
                f"{old_blobs} holds one file per blob, a home layout "
                f"this version does not read; it keeps blobs in {cas.PACK_NAME}")
        master = _read_home_file(
            self.master_file, lambda data: abe.MasterSecret(bytes.fromhex(data.decode().strip())))

        def service_identities(data: bytes) -> dict[str, protocol.Identity]:
            services = json.loads(data)
            return {role: protocol.Identity.from_dict(services[role])
                    for role in protocol.SERVICE_ROLES}

        identities = _read_home_file(self.services_file, service_identities)
        log = ChainFile(self)
        with self.chain_file.open("rb") as fh:
            deployment = protocol.deploy(master, identities,
                                         cas.DirectoryBlobStore(self.path),
                                         log.read_new(fh.fileno()), log=log)
            torn = os.fstat(fh.fileno()).st_size - log.frames.end
        if torn > 0:
            _log.warning("%s: dropped a torn %d-byte tail after %d whole blocks; "
                         "the next append truncates it", self.chain_file, torn,
                         deployment.chain.height)
        self.register_peers(deployment)
        return deployment

    def register_peers(self, deployment: protocol.Deployment) -> None:
        """Register in ``deployment`` every peer ``directory.json`` names."""
        for peer in self._peers().values():
            deployment.register(peer)

    def save_chain(self, chain: ledger.Chain) -> None:
        """Make sure that every block ``chain`` sealed is in the chain file.
        A chain from :meth:`open` appends each block to the file as it seals
        it, so this writes nothing; a chain that keeps its blocks anywhere
        else raises :class:`ValueError`."""
        if not (isinstance(chain.log, ChainFile) and chain.log.frames.path == self.chain_file):
            raise ValueError(f"the chain does not keep its blocks in {self.chain_file}")

    def lock_chain(self) -> None:
        """Hold the chain file open and exclusively locked until
        :meth:`release_chain`; raises :class:`ChainConflict` if another
        process holds it."""
        self.ensure_provisioned()
        self._chain_writer = _open_locked(self.chain_file)

    def release_chain(self) -> None:
        """Close this process's handle on the locked chain file. The lock
        is gone once no process holds the file open (a forked child closes
        the copy it inherited)."""
        if self._chain_writer is not None:
            self._chain_writer.close()
            self._chain_writer = None

    def refresh_chain(self, chain: ledger.Chain) -> None:
        """Apply to ``chain``, opened from this home, the blocks another
        process appended to the chain file since ``chain`` last read it.
        Raises :class:`cas.StorageFailure` if the file cannot be opened."""
        try:
            fh = self.chain_file.open("rb")
        except OSError as exc:
            raise cas.StorageFailure(f"cannot open {self.chain_file}: {exc}") from exc
        with chain.lock, fh:
            chain.extend(chain.log.read_new(fh.fileno()))

    # named identities and keys
    def save_identity(self, name: str, identity: protocol.Identity) -> None:
        """Write the named identity, then register it in the directory; the
        directory is read, changed and written under the home's lock."""
        _check_name(name)
        self.identities_dir.mkdir(parents=True, exist_ok=True)
        with self._locked():
            peers = self._peers()
            _write_file(self.identities_dir / f"{name}.json", _json_bytes(identity.to_dict()))
            peers[name] = identity.public()
            _write_file(self.directory_file, _json_bytes(
                {"peers": {peer: public.to_dict() for peer, public in peers.items()}}))

    def identity(self, name: str) -> protocol.Identity:
        path = self.identities_dir / f"{_check_name(name)}.json"
        if not path.exists():
            raise UsageError(f"unknown identity {name!r}; run: cake identity new {name}")
        return _read_home_file(path, lambda data: protocol.Identity.from_dict(json.loads(data)))

    def address_of(self, name: str) -> bytes:
        peer = self._peers().get(name)
        if peer is None:
            raise UsageError(f"unknown identity {name!r}; run: cake identity new {name}")
        return peer.address

    def save_user_key(self, name: str, key: abe.UserKey) -> Path:
        path = self.keys_dir / f"{_check_name(name)}.key"
        self.keys_dir.mkdir(parents=True, exist_ok=True)
        _write_file(path, abe.serialize_user_key(key))
        return path

    def user_key(self, name: str) -> abe.UserKey:
        path = self.keys_dir / f"{_check_name(name)}.key"
        if not path.exists():
            raise UsageError(f"no key for {name!r}; run: cake key request --as {name}")
        return _read_home_file(path, abe.parse_user_key)


def _open_locked(path: Path) -> io.FileIO:
    """``path`` open for writing and exclusively locked; raises
    :class:`ChainConflict` if another process holds the lock."""
    fh = path.open("r+b", buffering=0)
    try:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError as exc:
        fh.close()
        raise ChainConflict(f"another process is writing {path}") from exc
    return fh


def _port(text: str) -> int:
    """``text`` as a TCP port: decimal digits, 0-65535. Otherwise raises
    ``argparse.ArgumentTypeError``, which the parser reports as a usage
    error."""
    if not (text.isascii() and text.isdigit()) or int(text) > 65535:
        raise argparse.ArgumentTypeError(f"a port is 0-65535, got {text!r}")
    return int(text)


def _remote_addr(var: str) -> Optional[tuple[str, int]]:
    value = os.environ.get(var)
    if not value:
        return None
    host, _, port = value.rpartition(":")
    with contextlib.suppress(argparse.ArgumentTypeError):
        if host:
            return host, _port(port)
    raise UsageError(f"{var} must be host:port with a port of 0-65535, got {value!r}")


def _connect(deployment: protocol.Deployment, which: str,
             identity: protocol.Identity) -> protocol.ServiceClient:
    remote = _remote_addr(f"CAKE_{which.upper()}_ADDR")
    service = getattr(deployment, which)
    transport = (protocol.serve_in_background(service) if remote is None
                 else protocol.connect_tcp(*remote))
    return protocol.ServiceClient(identity, service.public(), transport)


# --- output helpers -------------------------------------------------------------

def _emit(args: argparse.Namespace, human: str, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


# --- commands --------------------------------------------------------------------

def cmd_identity_new(args: argparse.Namespace, home: Home) -> int:
    home.ensure_provisioned()
    identity = protocol.Identity.generate()
    home.save_identity(args.name, identity)
    _emit(args, f"{args.name}: {identity.address.hex()}",
          {"name": args.name, "address": identity.address.hex()})
    return EXIT_OK


def cmd_certify(args: argparse.Namespace, home: Home) -> int:
    deployment = home.open()
    actor = home.address_of(args.actor)
    with _connect(deployment, "ud", deployment.certifier) as client:
        locator = client.certify(actor, args.attributes)
    _emit(args, f"certified {args.actor} -> {locator}",
          {"actor": args.actor, "address": actor.hex(),
           "attributes": sorted(policy_mod.normalize_attribute(a)
                                for a in args.attributes),
           "metadata_locator": locator})
    return EXIT_OK


def _collect_slices(args: argparse.Namespace) -> list[tuple[str, str, bytes]]:
    policies = args.policy or []
    extra = args.slice or []
    expected = len(extra) + (1 if args.file else 0)
    if not policies or len(policies) != expected:
        raise UsageError("each slice (the positional file and every --slice) "
                         "needs exactly one --policy, in order")
    slices: list[tuple[str, str, bytes]] = []
    cursor = 0
    if args.file:
        path = Path(args.file)
        slices.append((args.label or path.name, policies[0], path.read_bytes()))
        cursor = 1
    for spec in extra:
        label, sep, filename = spec.partition("=")
        if not sep or not label or not filename:
            raise UsageError(f"--slice wants label=file, got {spec!r}")
        slices.append((label, policies[cursor], Path(filename).read_bytes()))
        cursor += 1
    return slices


def cmd_store(args: argparse.Namespace, home: Home) -> int:
    slices = _collect_slices(args)
    deployment = home.open()
    with _connect(deployment, "sdm", home.identity(args.as_name)) as client:
        message_id, locator = client.store(slices)
    _emit(args, f"message {message_id.hex()} -> {locator}",
          {"message_id": message_id.hex(), "locator": locator,
           "slices": [label for label, _, _ in slices]})
    return EXIT_OK


def cmd_key_request(args: argparse.Namespace, home: Home) -> int:
    deployment = home.open()
    with _connect(deployment, "skm", home.identity(args.as_name)) as client:
        key = client.request_key()
    path = home.save_user_key(args.as_name, key)
    _emit(args, f"key for {args.as_name} ({', '.join(sorted(key.attributes))}) "
                f"saved to {path}",
          {"holder": key.holder.hex(), "attributes": sorted(key.attributes),
           "issued_at": key.issued_at, "path": str(path)})
    return EXIT_OK


def _message_id(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise UsageError("message id must be hex") from None


def cmd_read(args: argparse.Namespace, home: Home) -> int:
    message_id = _message_id(args.message_id)
    deployment = home.open()
    key = home.user_key(args.as_name)
    results = protocol.client_read(deployment.chain, deployment.store,
                                   message_id, key)
    if args.out_dir:
        # Containers stored before labels were checked may carry any label.
        for label, body in results:
            if body is not None:
                abe.check_label(label)
    payload: dict = {"message_id": args.message_id, "slices": []}
    lines = []
    readable = 0
    for label, body in results:
        if body is None:
            lines.append(f"{label}: policy not satisfied")
            payload["slices"].append({"label": label, "readable": False})
            continue
        readable += 1
        if args.out_dir:
            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / label).write_bytes(body)
            lines.append(f"{label}: {len(body)} bytes -> {out / label}")
        else:
            try:
                rendered = body.decode("utf-8")
            except UnicodeDecodeError:
                rendered = body.hex()
            lines.append(f"{label}: {rendered}")
        payload["slices"].append({"label": label, "readable": True,
                                  "bytes": len(body)})
    _emit(args, "\n".join(lines), payload)
    if readable == 0:
        raise abe.PolicyNotSatisfied("no slice readable with this key")
    return EXIT_OK


def cmd_ledger_verify(args: argparse.Namespace, home: Home) -> int:
    deployment = home.open()
    result = deployment.chain.verify()
    _emit(args,
          "ledger ok" if result.ok else f"ledger INVALID at height {result.failed_height}",
          {"ok": result.ok, "failed_height": result.failed_height,
           "height": deployment.chain.height})
    return EXIT_OK if result.ok else EXIT_CHAIN_INVALID


def cmd_ledger_show(args: argparse.Namespace, home: Home) -> int:
    message_id = _message_id(args.message_id)
    deployment = home.open()
    record = deployment.chain.message_get(message_id)
    _emit(args,
          f"{args.message_id}: locator={record.locator} "
          f"sender={record.sender.hex()} height={record.height}",
          {"message_id": args.message_id, "locator": record.locator,
           "sender": record.sender.hex(), "height": record.height})
    return EXIT_OK


def _run_scenario(args: argparse.Namespace, script: scenario.ScenarioScript) -> int:
    report = scenario.run_scenario(script, seed=args.seed)
    if args.ledger_out:
        Path(args.ledger_out).write_bytes(report.ledger_bytes)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_table())
        print(f"ledger height={report.ledger_height} "
              f"verified={'ok' if report.chain_ok else 'INVALID'}")
    if not report.chain_ok:
        return EXIT_CHAIN_INVALID
    if not report.matrix_ok:
        raise scenario.ScenarioError("matrix", f"access matrix mismatch: {report.mismatches()}")
    return EXIT_OK


def cmd_scenario_brie(args: argparse.Namespace, home: Home) -> int:
    return _run_scenario(args, scenario.brie_script())


def cmd_scenario_run(args: argparse.Namespace, home: Home) -> int:
    try:
        text = Path(args.script).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise scenario.ScenarioError("parse", f"script is not UTF-8: {exc}") from None
    script = scenario.parse_script(text)
    return _run_scenario(args, script)


def cmd_serve(args: argparse.Namespace, home: Home) -> int:
    """Serve until SIGINT or SIGTERM, the SKM in a forked child process.

    The process locks the chain file and binds all three listeners before
    it forks, and starts no thread before then. Both signals are handled
    explicitly, so SIGINT stops the server even when it was started ignoring
    it (as a background job of a non-interactive shell is); a second signal
    while stopping is ignored. Exits 75 if the key manager process dies.
    """
    previous = {sig: signal.signal(sig, signal.default_int_handler)
                for sig in (signal.SIGINT, signal.SIGTERM)}
    servers: list[protocol.ServiceServer] = []
    serving: list[protocol.ServiceServer] = []
    child = None
    try:
        home.lock_chain()
        deployment = home.open()
        for service in (deployment.sdm, deployment.ud, deployment.skm):
            service.reload_directory = lambda: home.register_peers(deployment)
        for service, port in ((deployment.sdm, args.sdm_port),
                              (deployment.ud, args.ud_port),
                              (deployment.skm, args.skm_port)):
            servers.append(protocol.ServiceServer(service, args.host, port))
        sdm, ud, skm = servers
        parent = os.getpid()
        child = os.fork()
        if child == 0:
            _run_key_manager(home, deployment, skm, [sdm, ud], parent)
        skm.server_close()
        for server in (sdm, ud):
            threading.Thread(target=server.serve_forever, daemon=True).start()
            serving.append(server)
        print(f"sdm={args.host}:{args.sdm_port} ud={args.host}:{args.ud_port} "
              f"skm={args.host}:{args.skm_port}", file=sys.stderr)
        print("serving; ctrl-c to stop (each block is saved as it is sealed)",
              file=sys.stderr)
        os.waitpid(child, 0)
        child = None
        print("error: the key manager process exited", file=sys.stderr)
        return EXIT_OTHER
    except KeyboardInterrupt:
        return EXIT_OK
    finally:
        for sig in previous:
            signal.signal(sig, signal.SIG_IGN)
        for server in serving:
            server.shutdown()
        for server in servers:
            server.server_close()
        if child:
            os.kill(child, signal.SIGTERM)
            os.waitpid(child, 0)
        home.release_chain()
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _run_key_manager(home: Home, deployment: protocol.Deployment,
                     skm: protocol.ServiceServer,
                     others: list[protocol.ServiceServer], parent: int) -> None:
    """The forked key manager process: serve ``skm`` with a chain replica
    that catches up with the file before every key request, until SIGTERM
    or until the parent is gone. Never returns."""
    code = EXIT_OTHER
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        home.release_chain()
        for server in others:
            server.server_close()
        deployment.skm.refresh = lambda: home.refresh_chain(deployment.chain)
        threading.Thread(target=skm.serve_forever, daemon=True).start()
        while os.getppid() == parent:
            time.sleep(0.25)
        code = EXIT_OK
    except Exception:
        _log.exception("key manager process failed")
    finally:
        os._exit(code)


# --- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cake",
        description="Share policy-encrypted document slices over a "
                    "content-addressed store and a notarizing ledger.")
    parser.add_argument("--home", default=None,
                        help="deployment directory (default $CAKE_HOME or ./.cake)")
    parser.add_argument("--format", choices=("table", "json"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identity", help="identity management")
    idsub = p.add_subparsers(dest="subcommand", required=True)
    p = idsub.add_parser("new", help="create and register a named identity")
    p.add_argument("name")
    p.set_defaults(func=cmd_identity_new)

    p = sub.add_parser("certify", help="certify an actor's attributes")
    p.add_argument("actor")
    p.add_argument("attributes", nargs="+")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("store", help="encrypt, store, and notarize slices")
    p.add_argument("--as", dest="as_name", required=True,
                   help="identity submitting the data")
    p.add_argument("--policy", action="append",
                   help="policy for the next slice (repeatable, in order)")
    p.add_argument("--slice", action="append", metavar="LABEL=FILE",
                   help="additional slice (repeatable)")
    p.add_argument("--label", help="label for the positional file")
    p.add_argument("file", nargs="?", help="file for the first slice")
    p.set_defaults(func=cmd_store)

    p = sub.add_parser("key", help="decryption keys")
    keysub = p.add_subparsers(dest="subcommand", required=True)
    p = keysub.add_parser("request", help="request this identity's key")
    p.add_argument("--as", dest="as_name", required=True)
    p.set_defaults(func=cmd_key_request)

    p = sub.add_parser("read", help="fetch and decrypt a notarized message")
    p.add_argument("message_id")
    p.add_argument("--as", dest="as_name", required=True)
    p.add_argument("--out-dir", help="write readable slices into this directory")
    p.set_defaults(func=cmd_read)

    p = sub.add_parser("ledger", help="chain queries")
    ledsub = p.add_subparsers(dest="subcommand", required=True)
    p = ledsub.add_parser("verify", help="recheck every block and signature")
    p.set_defaults(func=cmd_ledger_verify)
    p = ledsub.add_parser("show", help="resolve a message id")
    p.add_argument("message_id")
    p.set_defaults(func=cmd_ledger_show)

    p = sub.add_parser("scenario", help="end-to-end scenario runs")
    scsub = p.add_subparsers(dest="subcommand", required=True)
    p = scsub.add_parser("brie", help="run the built-in import-export exchange")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ledger-out", help="write the run's ledger bytes here")
    p.set_defaults(func=cmd_scenario_brie)
    p = scsub.add_parser("run", help="run a scenario script file")
    p.add_argument("script")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ledger-out")
    p.set_defaults(func=cmd_scenario_run)

    p = sub.add_parser("serve", help="host the services over TCP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--sdm-port", type=_port, default=7801)
    p.add_argument("--ud-port", type=_port, default=7802)
    p.add_argument("--skm-port", type=_port, default=7803)
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    home = Home(Path(args.home or os.environ.get("CAKE_HOME", ".cake")))
    try:
        return args.func(args, home)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CakeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STORAGE


if __name__ == "__main__":
    sys.exit(main())
