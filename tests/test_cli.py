import contextlib
import gc
import json
import logging
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest

from cake import abe, cas, cli, ledger, protocol, scenario

SRC = Path(cli.__file__).resolve().parents[1]
HOST = "127.0.0.1"
# Runs ``cake`` with SIGINT ignored, as a background job of a
# non-interactive shell starts it.
IGNORING_SIGINT = ("import signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); "
                   "from cake.cli import main; sys.exit(main(sys.argv[1:]))")


def free_ports(count: int) -> list[int]:
    socks = [socket.socket() for _ in range(count)]
    try:
        for sock in socks:
            sock.bind((HOST, 0))
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def wait_ready(proc: subprocess.Popen, stderr: Path) -> None:
    deadline = time.monotonic() + 30
    while "serving;" not in stderr.read_text():
        assert proc.poll() is None, stderr.read_text()
        assert time.monotonic() < deadline, "cake serve did not become ready"
        time.sleep(0.02)


@contextlib.contextmanager
def serving(tmp_path: Path, home_dir: Path, launcher=("-m", "cake.cli")):
    """``cake serve`` on ``home_dir`` in a subprocess; yields the process
    and its ports by service name, and kills it on the way out."""
    ports = dict(zip(("sdm", "ud", "skm"), free_ports(3)))
    stderr = tmp_path / "serve.stderr"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with stderr.open("w") as err:
        proc = subprocess.Popen(
            [sys.executable, *launcher, "--home", str(home_dir), "serve",
             "--host", HOST, "--sdm-port", str(ports["sdm"]),
             "--ud-port", str(ports["ud"]), "--skm-port", str(ports["skm"])],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=err, env=env)
    try:
        wait_ready(proc, stderr)
        yield proc, ports
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def children_of(pid: int) -> list[int]:
    """Process ids whose parent is ``pid``, from /proc."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return found


def refuses(port: int, within: float = 5.0) -> bool:
    """Whether connecting to ``port`` is refused, trying for ``within`` s."""
    deadline = time.monotonic() + within
    while True:
        try:
            socket.create_connection((HOST, port), timeout=1).close()
        except ConnectionRefusedError:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


def home_with(tmp_path: Path, *names: str) -> tuple[Path, protocol.Deployment,
                                                    list[protocol.Identity]]:
    """A provisioned home with the named identities registered."""
    home_dir = tmp_path / "home"
    home = cli.Home(home_dir)
    home.ensure_provisioned()
    identities = [protocol.Identity.generate() for _ in names]
    for name, identity in zip(names, identities):
        home.save_identity(name, identity)
    return home_dir, home.open(), identities


def tcp_client(identity, service, port) -> protocol.ServiceClient:
    return protocol.ServiceClient(identity, service.public(),
                                  protocol.connect_tcp(HOST, port))


needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="finds the key manager process in /proc")


class TestServeSignals:
    @needs_proc
    @pytest.mark.parametrize("sig,launcher", [
        (signal.SIGTERM, ["-m", "cake.cli"]),
        (signal.SIGINT, ["-c", IGNORING_SIGINT]),
    ], ids=["sigterm", "sigint-inherited-ignored"])
    def test_stops_and_saves_the_chain(self, tmp_path, sig, launcher):
        home_dir, deployment, [owner] = home_with(tmp_path, "owner")
        with serving(tmp_path, home_dir, launcher) as (proc, ports):
            sdm = tcp_client(owner, deployment.sdm, ports["sdm"])
            try:
                message_id, _ = sdm.store([("doc", "a or b", b"body")])
            finally:
                sdm.close()
            [key_manager] = children_of(proc.pid)
            proc.send_signal(sig)
            assert proc.wait(timeout=30) == 0
        assert not Path(f"/proc/{key_manager}").exists()
        assert refuses(ports["skm"], within=0)

        assert cli.main(["--home", str(home_dir), "ledger", "verify"]) == 0
        chain = cli.Home(home_dir).open().chain
        assert chain.message_get(message_id).locator


class TestServeProcesses:
    def test_key_manager_sees_each_certification_at_once(self, tmp_path):
        home_dir, deployment, [actor] = home_with(tmp_path, "actor")
        with serving(tmp_path, home_dir) as (proc, ports):
            for attributes in (["finance", "audit", "sales"], ["sales"]):
                ud = tcp_client(deployment.certifier, deployment.ud, ports["ud"])
                try:
                    ud.certify(actor.address, attributes)
                finally:
                    ud.close()
                skm = tcp_client(actor, deployment.skm, ports["skm"])
                try:
                    key = skm.request_key()
                finally:
                    skm.close()
                assert key.attributes == frozenset(attributes)

    @needs_proc
    def test_acknowledged_stores_survive_sigkill(self, tmp_path, capsys):
        home_dir, deployment, [owner] = home_with(tmp_path, "owner")
        with serving(tmp_path, home_dir) as (proc, ports):
            sdm = tcp_client(owner, deployment.sdm, ports["sdm"])
            try:
                acked = [sdm.store([("doc", "a", b"body %d" % n)])[0]
                         for n in range(5)]
            finally:
                sdm.close()
            proc.kill()
            proc.wait()
            # the orphaned key manager notices and exits
            assert refuses(ports["skm"])
        for message_id in acked:
            assert cli.main(["--home", str(home_dir), "ledger", "show",
                             message_id.hex()]) == 0
        assert cli.main(["--home", str(home_dir), "ledger", "verify"]) == 0

    def test_client_commands_reach_the_services_it_names(self, tmp_path, monkeypatch,
                                                         capsys):
        home_dir, _, _ = home_with(tmp_path, "owner")
        (tmp_path / "doc.txt").write_bytes(b"remote body")
        cake = ["--home", str(home_dir), "--format", "json"]
        with serving(tmp_path, home_dir) as (proc, ports):
            for which, port in ports.items():
                monkeypatch.setenv(f"CAKE_{which.upper()}_ADDR", f"{HOST}:{port}")
            # the server holds the chain file, so only it can seal these
            assert cli.main([*cake, "certify", "owner", "finance"]) == 0
            capsys.readouterr()
            assert cli.main([*cake, "store", "--as", "owner", "--policy", "finance",
                             str(tmp_path / "doc.txt")]) == 0
            message_id = json.loads(capsys.readouterr().out)["message_id"]
            assert cli.main([*cake, "key", "request", "--as", "owner"]) == 0
            assert cli.main([*cake, "read", message_id, "--as", "owner",
                             "--out-dir", str(tmp_path / "out")]) == 0
            assert (tmp_path / "out" / "doc.txt").read_bytes() == b"remote body"
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
        assert cli.main([*cake, "ledger", "verify"]) == 0
        monkeypatch.setenv("CAKE_SDM_ADDR", "no-port")
        assert cli.main([*cake, "store", "--as", "owner", "--policy", "finance",
                         str(tmp_path / "doc.txt")]) == cli.EXIT_USAGE == 64

    def test_an_identity_made_after_start_is_served(self, tmp_path):
        home_dir, deployment, _ = home_with(tmp_path, "owner")
        with serving(tmp_path, home_dir) as (proc, ports):
            assert cli.main(["--home", str(home_dir), "identity", "new", "late"]) == 0
            late = cli.Home(home_dir).identity("late")
            sdm = tcp_client(late, deployment.sdm, ports["sdm"])
            try:
                message_id, _ = sdm.store([("doc", "a", b"late body")])
            finally:
                sdm.close()
            ud = tcp_client(deployment.certifier, deployment.ud, ports["ud"])
            try:
                ud.certify(late.address, ["a"])
            finally:
                ud.close()
            # the key manager's process reads the directory file too
            skm = tcp_client(late, deployment.skm, ports["skm"])
            try:
                assert skm.request_key().attributes == frozenset({"a"})
            finally:
                skm.close()
            # an address the file does not hold is still refused
            for service in ("sdm", "skm"):
                with pytest.raises(protocol.UnknownClient):
                    tcp_client(protocol.Identity.generate(), getattr(deployment, service),
                               ports[service])
        assert cli.main(["--home", str(home_dir), "ledger", "show", message_id.hex()]) == 0

    def test_a_directory_file_that_cannot_be_read_refuses_as_a_storage_failure(
            self, tmp_path):
        home_dir, deployment, _ = home_with(tmp_path, "owner")
        directory, aside = home_dir / "directory.json", tmp_path / "directory.json"
        with serving(tmp_path, home_dir) as (proc, ports):
            directory.rename(aside)
            for service in ("sdm", "skm"):
                with pytest.raises(cas.StorageFailure, match="directory.json"):
                    tcp_client(protocol.Identity.generate(), getattr(deployment, service),
                               ports[service])
            aside.rename(directory)
            assert cli.main(["--home", str(home_dir), "identity", "new", "late"]) == 0
            sdm = tcp_client(cli.Home(home_dir).identity("late"), deployment.sdm,
                             ports["sdm"])
            try:
                sdm.store([("doc", "a", b"late body")])
            finally:
                sdm.close()

    def test_a_chain_file_that_cannot_be_read_fails_a_key_request_as_a_storage_failure(
            self, tmp_path):
        home_dir, deployment, [actor] = home_with(tmp_path, "actor")
        chain_file, aside = home_dir / "chain.bin", tmp_path / "chain.bin"
        with serving(tmp_path, home_dir) as (proc, ports):
            ud = tcp_client(deployment.certifier, deployment.ud, ports["ud"])
            try:
                ud.certify(actor.address, ["a"])
            finally:
                ud.close()
            skm = tcp_client(actor, deployment.skm, ports["skm"])
            try:
                chain_file.rename(aside)
                with pytest.raises(cas.StorageFailure, match="chain.bin"):
                    skm.request_key()
                aside.rename(chain_file)
                assert skm.request_key().attributes == frozenset({"a"})
            finally:
                skm.close()

    def test_second_writer_is_refused(self, tmp_path, monkeypatch, capsys):
        for var in ("CAKE_SDM_ADDR", "CAKE_UD_ADDR", "CAKE_SKM_ADDR"):
            monkeypatch.delenv(var, raising=False)
        home_dir, deployment, [owner] = home_with(tmp_path, "owner")
        (tmp_path / "doc.txt").write_bytes(b"body")
        cake = ["--home", str(home_dir)]
        with serving(tmp_path, home_dir) as (proc, ports):
            before = (home_dir / "chain.bin").read_bytes()
            assert cli.main([*cake, "store", "--as", "owner", "--policy", "a",
                             str(tmp_path / "doc.txt")]) == \
                cli.EXIT_LEDGER_REJECTED == 71
            assert "ChainConflict" in capsys.readouterr().err
            assert (home_dir / "chain.bin").read_bytes() == before
            assert cli.main([*cake, "serve", "--sdm-port", "0", "--ud-port", "0",
                             "--skm-port", "0"]) == cli.EXIT_LEDGER_REJECTED
            assert cli.main([*cake, "ledger", "verify"]) == 0
            sdm = tcp_client(owner, deployment.sdm, ports["sdm"])
            try:
                sdm.store([("doc", "a", b"body")])
            finally:
                sdm.close()
        assert cli.main([*cake, "ledger", "verify"]) == 0


@pytest.fixture
def cake(tmp_path, monkeypatch, capsys):
    """Runs ``cake --home <tmp> --format json ...`` in this process, with the
    in-process services; returns the exit code and the parsed output."""
    for var in ("CAKE_HOME", "CAKE_SDM_ADDR", "CAKE_UD_ADDR", "CAKE_SKM_ADDR"):
        monkeypatch.delenv(var, raising=False)
    home = tmp_path / "home"

    def run(*args: str) -> tuple[int, object]:
        capsys.readouterr()
        code = cli.main(["--home", str(home), "--format", "json", *args])
        out = capsys.readouterr().out
        return code, json.loads(out) if out else None

    return run


@pytest.fixture
def stored(cake, tmp_path):
    """A home where ``owner`` stored two slices and ``owner`` and ``clerk``
    hold keys for different attributes; returns the message id."""
    (tmp_path / "terms.txt").write_bytes(b"payment terms")
    (tmp_path / "notes.txt").write_bytes(b"internal notes")
    for name in ("owner", "clerk", "stranger"):
        assert cake("identity", "new", name)[0] == 0
    assert cake("certify", "owner", "finance", "audit")[0] == 0
    assert cake("certify", "clerk", "sales")[0] == 0
    code, out = cake("store", "--as", "owner",
                     "--policy", "finance", "--label", "terms",
                     str(tmp_path / "terms.txt"),
                     "--policy", "finance and audit",
                     "--slice", f"notes={tmp_path / 'notes.txt'}")
    assert code == 0 and out["slices"] == ["terms", "notes"]
    for name in ("owner", "clerk"):
        assert cake("key", "request", "--as", name)[0] == 0
    return out["message_id"]


class TestInProcessCommands:
    def test_allowed_read_writes_every_slice(self, cake, stored, tmp_path):
        out_dir = tmp_path / "out"
        code, out = cake("read", stored, "--as", "owner", "--out-dir", str(out_dir))
        assert code == cli.EXIT_OK
        assert [s["readable"] for s in out["slices"]] == [True, True]
        assert (out_dir / "terms").read_bytes() == b"payment terms"
        assert (out_dir / "notes").read_bytes() == b"internal notes"

    def test_denied_read(self, cake, stored):
        code, out = cake("read", stored, "--as", "clerk")
        assert code == cli.EXIT_POLICY_NOT_SATISFIED == 67
        assert [s["readable"] for s in out["slices"]] == [False, False]

    def test_ledger_show_and_verify(self, cake, stored):
        code, out = cake("ledger", "show", stored)
        assert code == 0
        assert out["message_id"] == stored and out["height"] == 2
        code, out = cake("ledger", "verify")
        assert code == 0
        assert out == {"ok": True, "failed_height": None, "height": 3}

    @pytest.mark.parametrize("args", [
        ("read", "not-hex", "--as", "owner"),
        ("ledger", "show", "not-hex"),
        ("store", "--as", "nobody", "--policy", "finance", "{terms}"),
        ("key", "request", "--as", "nobody"),
        ("read", "00", "--as", "nobody"),
        ("store", "--as", "owner", "--policy", "finance", "--policy", "audit", "{terms}"),
        ("store", "--as", "owner", "--policy", "finance", "--slice", "{terms}"),
        ("certify", "nobody", "sales"),
        ("serve", "--sdm-port", "99999"),
        ("serve", "--skm-port", "-1"),
    ], ids=["read-non-hex", "show-non-hex", "store-unknown-as",
            "key-unknown-as", "read-unknown-as", "store-policy-count",
            "slice-without-equals", "certify-unknown-name", "serve-port-too-large",
            "serve-port-negative"])
    def test_usage_errors(self, cake, stored, tmp_path, args):
        args = [arg.format(terms=tmp_path / "terms.txt") for arg in args]
        assert cake(*args)[0] == cli.EXIT_USAGE == 64

    @pytest.mark.parametrize("addr", ["127.0.0.1:99999", "127.0.0.1:65536", "127.0.0.1:"])
    def test_a_service_address_out_of_range_connects_nowhere(self, cake, stored, tmp_path,
                                                             monkeypatch, addr):
        def connect(host, port):
            raise AssertionError(f"connected to {host}:{port}")

        monkeypatch.setattr(protocol, "connect_tcp", connect)
        monkeypatch.setenv("CAKE_SDM_ADDR", addr)
        assert cake("store", "--as", "owner", "--policy", "finance",
                    str(tmp_path / "terms.txt"))[0] == cli.EXIT_USAGE == 64

    @pytest.mark.parametrize("args", [
        ("ledger", "show", "00" * 16),
        ("read", "00" * 16, "--as", "owner"),
    ], ids=["show", "read"])
    def test_unknown_message_id(self, cake, stored, args):
        assert cake(*args)[0] == cli.EXIT_NOT_FOUND == 66

    def test_a_slice_that_is_not_utf8_prints_as_hex(self, cake, stored, tmp_path, capsys):
        (tmp_path / "raw.bin").write_bytes(b"\xff\xfe\x00")
        code, out = cake("store", "--as", "owner", "--policy", "finance", "--label", "raw",
                         str(tmp_path / "raw.bin"))
        assert code == 0
        capsys.readouterr()
        assert cli.main(["--home", str(tmp_path / "home"), "read", out["message_id"],
                         "--as", "owner"]) == cli.EXIT_OK
        assert capsys.readouterr().out == "raw: fffe00\n"

    def test_policy_syntax_error(self, cake, stored, tmp_path):
        code, _ = cake("store", "--as", "owner", "--policy", "(a or",
                       str(tmp_path / "terms.txt"))
        assert code == cli.EXIT_POLICY_SYNTAX == 65

    def test_key_request_from_uncertified_identity(self, cake, stored):
        assert cake("key", "request", "--as", "stranger")[0] == \
            cli.EXIT_NOT_CERTIFIED == 70

    def test_store_refuses_a_label_that_escapes(self, cake, stored, tmp_path):
        code, _ = cake("store", "--as", "owner", "--policy", "finance",
                       "--slice", f"../escaped={tmp_path / 'terms.txt'}")
        assert code == cli.EXIT_BAD_REQUEST == 74

    @pytest.mark.parametrize("label", ["../escaped", "..", "{tmp}/absolute"],
                             ids=["parent", "dot-dot", "absolute"])
    def test_read_refuses_a_stored_label_that_escapes(self, cake, stored, tmp_path, label):
        # a container stored before labels were checked, notarized directly
        label = label.format(tmp=tmp_path)
        home = cli.Home(tmp_path / "home")
        deployment = home.open()
        sdm = deployment.sdm
        rng = random.Random(1)
        message_id = abe.new_message_id(rng)
        ct = abe.encrypt_slice(deployment.master, "finance", b"escaped body", rng)
        blob = abe.serialize_container(
            abe.CiphertextContainer(message_id, (("fine", ct), (label, ct))))
        sdm._notarize(blob, lambda loc: ledger.message_store(
            deployment.chain, sdm.identity.signer, message_id, loc))
        home.save_chain(deployment.chain)
        before = sorted(tmp_path.rglob("*"))

        out_dir = tmp_path / "out"
        code, _ = cake("read", message_id.hex(), "--as", "owner",
                       "--out-dir", str(out_dir))
        assert code == cli.EXIT_BAD_REQUEST
        assert sorted(tmp_path.rglob("*")) == before
        code, out = cake("read", message_id.hex(), "--as", "owner")
        assert code == cli.EXIT_OK
        assert [s["label"] for s in out["slices"]] == ["fine", label]

    def test_tampered_chain_file(self, cake, stored, tmp_path):
        chain_file = tmp_path / "home" / "chain.bin"
        data = bytearray(chain_file.read_bytes())
        data[-1] ^= 0x01
        chain_file.write_bytes(bytes(data))
        code, out = cake("ledger", "verify")
        assert code == cli.EXIT_CHAIN_INVALID == 73
        assert out["ok"] is False and out["failed_height"] == 2


class TestChainFile:
    @pytest.mark.parametrize("tear,height", [
        (lambda data: data[:-3], 2),
        # the start of a block longer than the next one to be appended
        (lambda data: data + (10_000).to_bytes(4, "big") + bytes(500), 3),
    ], ids=["last-block-cut", "long-partial-block"])
    def test_torn_tail_is_dropped_then_truncated(self, cake, stored, tmp_path, caplog,
                                                 tear, height):
        chain_file = tmp_path / "home" / "chain.bin"
        torn = tear(chain_file.read_bytes())
        chain_file.write_bytes(torn)
        with caplog.at_level(logging.WARNING, logger="cake.cli"):
            code, out = cake("ledger", "verify")
        assert code == 0
        assert out == {"ok": True, "failed_height": None, "height": height}
        assert "torn" in caplog.text
        assert chain_file.read_bytes() == torn  # a reader leaves the file alone
        assert cake("ledger", "show", stored)[0] == \
            (cli.EXIT_OK if height == 3 else cli.EXIT_NOT_FOUND)

        assert cake("certify", "stranger", "sales")[0] == 0
        code, out = cake("ledger", "verify")
        assert code == 0 and out["height"] == height + 1
        chain = cli.Home(tmp_path / "home").open().chain
        assert chain_file.read_bytes() == chain.serialize()

    def test_a_cut_at_every_offset_of_the_last_block_keeps_the_others(
            self, cake, stored, tmp_path):
        chain_file = tmp_path / "home" / "chain.bin"
        data = chain_file.read_bytes()
        blocks = list(cli.Home(tmp_path / "home").open().chain.log)
        assert len(blocks) == 3 and data.endswith(blocks[-1])
        start = len(data) - 4 - len(blocks[-1])  # the last block's frame
        for cut in range(start, len(data)):
            chain_file.write_bytes(data[:cut])
            # ``ledger verify`` reports the height of the chain Home.open read.
            assert cake("ledger", "verify") == \
                (0, {"ok": True, "failed_height": None, "height": 2})
        for cut in (start + 1, start + 4, (start + len(data)) // 2, len(data) - 1):
            chain_file.write_bytes(data[:cut])
            assert cake("certify", "stranger", "sales")[0] == 0
            assert cake("ledger", "verify") == \
                (0, {"ok": True, "failed_height": None, "height": 3})
            chain = cli.Home(tmp_path / "home").open().chain
            assert chain_file.read_bytes() == chain.serialize()

    def test_each_seal_is_on_disk_before_the_command_returns(self, cake, stored,
                                                             tmp_path, monkeypatch):
        home = cli.Home(tmp_path / "home")
        deployment = home.open()
        log, sizes = deployment.chain.log, []
        append = log.append
        monkeypatch.setattr(log, "append", lambda block: (
            append(block), sizes.append(home.chain_file.stat().st_size)))
        for name in ("owner", "clerk"):
            client = deployment.connect_ud(deployment.certifier)
            try:
                client.certify(home.address_of(name), ["sales"])
            finally:
                client.close()
        assert sizes[0] < sizes[1] == len(deployment.chain.serialize())
        home.save_chain(deployment.chain)  # nothing left to write
        assert home.chain_file.stat().st_size == sizes[1]
        with pytest.raises(ValueError):
            home.save_chain(protocol.provision().chain)  # its blocks are in memory

    def test_a_sealing_chain_holds_no_block(self, cake, stored, tmp_path):
        # The blocks are in the chain file; what the chain keeps per store is
        # its registry record (~300 B), not the ~280 B block a second time.
        deployment = cli.Home(tmp_path / "home").open()
        chain, signer = deployment.chain, deployment.sdm.identity.signer
        rng = random.Random(5)
        stores = [(rng.randbytes(16), cas.locator_for(rng.randbytes(8)).render())
                  for _ in range(500)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for message_id, locator in stores:
                ledger.message_store(chain, signer, message_id, locator)
                chain.seal_block()
            del stores
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert chain.height == 503
        assert grown / 500 < 600

    def test_an_opened_chain_needs_no_cycle_collection(self, cake, stored, tmp_path):
        # Loaded chains can hold many blocks: the block log Home.open gives
        # a chain must not tie it into a reference cycle that keeps it alive.
        gc.disable()
        try:
            chain = weakref.ref(cli.Home(tmp_path / "home").open().chain)
            assert chain() is None
        finally:
            gc.enable()

    def test_writer_refuses_a_file_changed_since_it_read_it(self, cake, stored,
                                                            tmp_path):
        home = cli.Home(tmp_path / "home")
        deployment = home.open()
        assert cake("certify", "stranger", "sales")[0] == 0  # another writer
        before = home.chain_file.read_bytes()
        client = deployment.connect_ud(deployment.certifier)
        try:
            with pytest.raises(cli.ChainConflict):
                client.certify(home.address_of("clerk"), ["audit"])
        finally:
            client.close()
        assert home.chain_file.read_bytes() == before
        assert cake("ledger", "verify")[0] == 0


def wait_for_sessions(within: float = 10.0) -> None:
    """Wait until every in-process session thread has ended, as each closes
    its end of the session's socket pair last."""
    deadline = time.monotonic() + within
    for thread in threading.enumerate():
        if thread.name == protocol.SESSION_THREAD_NAME:
            thread.join(max(0.0, deadline - time.monotonic()))
            assert not thread.is_alive(), "a session thread did not end"


class TestBlobPack:
    def test_reads_leave_no_descriptor_open(self, cake, stored):
        assert cake("read", stored, "--as", "owner")[0] == 0
        wait_for_sessions()
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(200):
            assert cake("read", stored, "--as", "owner")[0] == 0
        assert len(os.listdir("/proc/self/fd")) == before


class TestExitCodes:
    def test_flipped_blob_byte_is_an_integrity_failure(self, cake, stored, tmp_path):
        _, shown = cake("ledger", "show", stored)
        pack = tmp_path / "home" / cas.PACK_NAME
        data = bytearray(pack.read_bytes())
        digest_at = data.find(cas.parse_locator(shown["locator"]).digest)
        length = int.from_bytes(data[digest_at - 4:digest_at], "big")
        data[digest_at + 32 + length // 2] ^= 0x01
        pack.write_bytes(bytes(data))
        assert cake("read", stored, "--as", "owner")[0] == cli.EXIT_INTEGRITY == 68

    def test_identity_missing_from_the_directory_fails_auth(self, cake, stored,
                                                            tmp_path):
        assert cake("identity", "new", "ghost")[0] == 0
        directory = tmp_path / "home" / "directory.json"
        registry = json.loads(directory.read_text())
        del registry["peers"]["ghost"]
        directory.write_text(json.dumps(registry))
        assert cake("key", "request", "--as", "ghost")[0] == cli.EXIT_AUTH == 69

    def test_ledger_rejection(self, cake, stored, monkeypatch):
        def rejecting(self, session, *request):
            raise protocol.LedgerRejected("transaction rejected: AlreadyRecorded")

        monkeypatch.setattr(protocol.UdService, "_handle", rejecting)
        assert cake("certify", "stranger", "sales")[0] == \
            cli.EXIT_LEDGER_REJECTED == 71

    def test_unusable_blob_directory_is_a_storage_failure(self, cake, stored,
                                                          tmp_path):
        pack = tmp_path / "home" / cas.PACK_NAME
        pack.unlink()
        pack.mkdir()
        assert cake("read", stored, "--as", "owner")[0] == cli.EXIT_STORAGE == 72
        assert cake("certify", "stranger", "sales")[0] == cli.EXIT_STORAGE == 72

    def test_home_with_a_blob_directory_is_refused(self, cake, stored, tmp_path):
        (tmp_path / "home" / "blobs").mkdir()
        with pytest.raises(cas.StorageFailure, match="one file per blob"):
            cli.Home(tmp_path / "home").open()
        assert cake("ledger", "verify")[0] == cli.EXIT_STORAGE == 72
        assert cake("read", stored, "--as", "owner")[0] == cli.EXIT_STORAGE

    def test_unmapped_service_error(self, cake, stored, monkeypatch):
        def broken(self, session, *request):
            raise protocol.ProtocolError("key manager out of order")

        monkeypatch.setattr(protocol.SkmService, "_handle", broken)
        assert cake("key", "request", "--as", "owner")[0] == cli.EXIT_OTHER == 75

    @pytest.mark.parametrize("text", [None, '{"peers": []}'], ids=["cut-in-half", "peers-not-a-map"])
    def test_a_directory_that_does_not_parse_is_a_storage_failure(self, cake, stored,
                                                                  tmp_path, text):
        directory = tmp_path / "home" / "directory.json"
        whole = directory.read_text()
        directory.write_text(whole[:len(whole) // 2] if text is None else text)
        assert cake("ledger", "verify")[0] == cli.EXIT_STORAGE == 72
        assert cake("identity", "new", "late")[0] == cli.EXIT_STORAGE
        assert cake("certify", "clerk", "audit")[0] == cli.EXIT_STORAGE
        assert not (tmp_path / "home" / "identities" / "late.json").exists()

    @pytest.mark.parametrize("text", ["zz", "00" * 31], ids=["not-hex", "short"])
    def test_a_master_key_that_does_not_parse_is_a_storage_failure(self, cake, stored,
                                                                   tmp_path, text):
        (tmp_path / "home" / "master.key").write_text(text)
        assert cake("ledger", "verify")[0] == cli.EXIT_STORAGE == 72

    def test_no_command_is_a_usage_error_and_help_is_not(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE == 64
        assert "required: command" in capsys.readouterr().err
        assert cli.main(["--help"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("usage: cake")

    @pytest.mark.parametrize("damage", [
        lambda data: data[:len(data) // 2],
        lambda data: b"\xff" * len(data),
        # the holder and the issue time, then a count of zero attributes
        lambda data: data[:28] + bytes(4),
    ], ids=["cut-in-half", "garbage", "no-attributes"])
    def test_a_user_key_that_does_not_parse_is_a_storage_failure(
            self, cake, stored, tmp_path, capsys, damage):
        key_file = tmp_path / "home" / "keys" / "owner.key"
        key_file.write_bytes(damage(key_file.read_bytes()))
        out_dir = tmp_path / "out"
        capsys.readouterr()
        assert cli.main(["--home", str(tmp_path / "home"), "read", stored, "--as", "owner",
                         "--out-dir", str(out_dir)]) == cli.EXIT_STORAGE == 72
        assert str(key_file) in capsys.readouterr().err
        assert not out_dir.exists()

    def test_services_without_a_role_are_a_storage_failure(self, cake, stored, tmp_path):
        services = tmp_path / "home" / "services.json"
        roles = json.loads(services.read_text())
        del roles[protocol.SERVICE_ROLES[-1]]
        services.write_text(json.dumps(roles))
        assert cake("ledger", "verify")[0] == cli.EXIT_STORAGE == 72


class TestHomeFiles:
    def test_every_home_file_is_private(self, cake, tmp_path):
        umask = os.umask(0o022)
        try:
            assert cake("identity", "new", "owner")[0] == 0
            assert cake("certify", "owner", "finance")[0] == 0
            assert cake("key", "request", "--as", "owner")[0] == 0
        finally:
            os.umask(umask)
        home = tmp_path / "home"
        files = [home / "master.key", home / "services.json", home / "directory.json",
                 home / "chain.bin", home / "identities" / "owner.json",
                 home / "keys" / "owner.key"]
        assert {path.name: oct(path.stat().st_mode & 0o777) for path in files} == \
            {path.name: oct(0o600) for path in files}

    def test_concurrent_identities_are_all_registered(self, tmp_path):
        home_dir = tmp_path / "home"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        names = [f"actor{i}" for i in range(8)]
        procs = [subprocess.Popen(
            [sys.executable, "-m", "cake.cli", "--home", str(home_dir), "identity", "new", name],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env=env) for name in names]
        try:
            outcomes = [(proc.wait(timeout=60), proc.stderr.read()) for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                proc.stderr.close()
        assert [code for code, _ in outcomes] == [0] * len(names), outcomes
        assert sum(b"provisioned" in err for _, err in outcomes) == 1
        peers = json.loads((home_dir / "directory.json").read_text())["peers"]
        assert sorted(peers) == names
        home = cli.Home(home_dir)
        for name in names:
            assert home.address_of(name) == home.identity(name).address

    @pytest.mark.parametrize("args", [
        ("identity", "new", "../x"),
        ("identity", "new", "."),
        ("key", "request", "--as", "../x"),
        # names the file of the identity ``owner``, and at keys/../identities
        ("key", "request", "--as", "../identities/owner"),
    ], ids=["identity-parent", "identity-dot", "key-parent", "key-through-identities"])
    def test_a_name_that_is_not_one_path_component_writes_nothing(self, cake, stored,
                                                                  tmp_path, args):
        def files():
            return {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}

        before = files()
        assert cake(*args)[0] == cli.EXIT_USAGE == 64
        assert files() == before

    def test_a_failed_replace_leaves_no_temporary_file(self, cake, tmp_path, monkeypatch):
        assert cake("identity", "new", "owner")[0] == 0
        home = tmp_path / "home"
        before = sorted(home.rglob("*"))
        directory = (home / "directory.json").read_bytes()

        def failing(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(cli.os, "replace", failing)
        assert cake("identity", "new", "late")[0] == cli.EXIT_STORAGE == 72
        assert sorted(home.rglob("*")) == before
        assert (home / "directory.json").read_bytes() == directory


BRIE_SCRIPT = Path(__file__).resolve().parents[1] / "src" / "cake" / "brie.scenario"
# Customs cannot read the transport order, but this script expects it to.
MISMATCHED_BRIE = BRIE_SCRIPT.read_text().replace(
    "courier:allow customs:deny", "courier:allow customs:allow", 1)


class TestScenarioCommand:
    def test_brie_prints_the_matrix_as_a_table(self, cake, tmp_path, capsys):
        capsys.readouterr()
        assert cli.main(["--home", str(tmp_path / "home"), "scenario", "brie",
                         "--seed", "7"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["document", "economic_operator", "courier", "customs"]
        assert lines[1].split() == ["transport_order", "allow", "allow", "deny"]
        assert lines[-1] == "ledger height=7 verified=ok"

    def test_brie_as_json_and_its_ledger(self, cake, tmp_path):
        ledger_out = tmp_path / "brie.ledger"
        code, out = cake("scenario", "brie", "--seed", "7", "--ledger-out", str(ledger_out))
        assert code == cli.EXIT_OK
        assert out["matrix_ok"] and out["chain_ok"] and out["ledger_height"] == 7
        assert out["matrix"] == out["expected"]
        assert ledger_out.read_bytes() == \
            scenario.run_scenario(scenario.brie_script(), 7).ledger_bytes

    def test_a_mismatched_matrix_exits_74_and_names_the_cell(self, cake, tmp_path, capsys):
        script = tmp_path / "mismatched.scenario"
        script.write_text(MISMATCHED_BRIE)
        capsys.readouterr()
        code = cli.main(["--home", str(tmp_path / "home"), "scenario", "run", str(script),
                         "--seed", "7"])
        assert code == cli.EXIT_BAD_REQUEST == 74
        out, err = capsys.readouterr()
        assert "ledger height=7 verified=ok" in out
        assert "[matrix]" in err and "('transport_order', 'customs')" in err

    def test_a_malformed_script_exits_74_at_parse(self, cake, tmp_path, capsys):
        script = tmp_path / "malformed.scenario"
        for data in (b"[ledger]\n", b"\xff\xfe[ledger]\n"):
            script.write_bytes(data)
            capsys.readouterr()
            assert cli.main(["--home", str(tmp_path / "home"), "scenario", "run",
                             str(script)]) == cli.EXIT_BAD_REQUEST
            assert "[parse]" in capsys.readouterr().err
