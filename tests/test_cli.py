import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cake import abe, cli, ledger, protocol

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


class TestServeSignals:
    @pytest.mark.parametrize("sig,launcher", [
        (signal.SIGTERM, ["-m", "cake.cli"]),
        (signal.SIGINT, ["-c", IGNORING_SIGINT]),
    ], ids=["sigterm", "sigint-inherited-ignored"])
    def test_stops_and_saves_the_chain(self, tmp_path, sig, launcher):
        home_dir = tmp_path / "home"
        home = cli.Home(home_dir)
        home.ensure_provisioned()
        owner = protocol.Identity.generate()
        home.save_identity("owner", owner)
        deployment = home.open()

        sdm_port, ud_port, skm_port = free_ports(3)
        stderr = tmp_path / "serve.stderr"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        with stderr.open("w") as err:
            proc = subprocess.Popen(
                [sys.executable, *launcher, "--home", str(home_dir), "serve",
                 "--host", HOST, "--sdm-port", str(sdm_port),
                 "--ud-port", str(ud_port), "--skm-port", str(skm_port)],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err, env=env)
        try:
            wait_ready(proc, stderr)
            sdm = protocol.ServiceClient(owner, deployment.sdm.public(),
                                         protocol.connect_tcp(HOST, sdm_port))
            try:
                message_id, _ = sdm.store([("doc", "a or b", b"body")])
            finally:
                sdm.close()
            proc.send_signal(sig)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        assert cli.main(["--home", str(home_dir), "ledger", "verify"]) == 0
        chain = cli.Home(home_dir).open().chain
        assert chain.message_get(message_id).locator


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
    ], ids=["read-non-hex", "show-non-hex", "store-unknown-as",
            "key-unknown-as", "read-unknown-as"])
    def test_usage_errors(self, cake, stored, tmp_path, args):
        args = [arg.format(terms=tmp_path / "terms.txt") for arg in args]
        assert cake(*args)[0] == cli.EXIT_USAGE == 64

    @pytest.mark.parametrize("args", [
        ("ledger", "show", "00" * 16),
        ("read", "00" * 16, "--as", "owner"),
    ], ids=["show", "read"])
    def test_unknown_message_id(self, cake, stored, args):
        assert cake(*args)[0] == cli.EXIT_NOT_FOUND == 66

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
