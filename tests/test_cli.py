import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cake import cli, protocol

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
