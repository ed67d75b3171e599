import contextlib
import hashlib
import logging
import random
import socket
import sys
import threading
import time

import pytest

import cake.cli  # noqa: F401  (loads every module that defines an error class)
from cake import cas, protocol
from cake import policy as policy_mod
from cake.codec import Reader, Writer
from cake.errors import CakeError
from cake.protocol import (
    TAG_AUTH,
    TAG_CERTIFY_REQ,
    TAG_CHALLENGE,
    TAG_ERROR,
    TAG_HELLO,
    TAG_KEY_REQ,
    TAG_STORE_REQ,
)

# u = 0 is a low-order X25519 point: any exchange with it gives the all-zero
# secret, which the key-agreement primitive refuses.
LOW_ORDER_KEY = bytes(32)


@pytest.fixture
def deployment():
    return protocol.provision(random.Random(1), clock=lambda: 0)


@pytest.fixture
def client(deployment):
    identity = protocol.Identity.generate(random.Random(2))
    deployment.register(identity)
    return identity


@pytest.fixture
def serve():
    """A function that starts one in-process session of a service
    (``serve_in_background``) and returns (client end, server thread);
    every client end it made is closed at teardown."""
    opened = []

    def start(service):
        before = set(threading.enumerate())
        transport = protocol.serve_in_background(service)
        opened.append(transport)
        [thread] = set(threading.enumerate()) - before
        return transport, thread

    yield start
    for transport in opened:
        transport.close()


@pytest.fixture
def pair():
    """An in-process (server end, client end), both closed at teardown."""
    ends = protocol.memory_pair()
    yield ends
    for end in ends:
        end.close()


def signing_input(context: bytes, *parts: bytes) -> bytes:
    return hashlib.sha256(context + b"".join(parts)).digest()


def wire_error_code(frame: bytes) -> str:
    assert frame[0] == TAG_ERROR
    return Reader(frame[1:]).take_str()


class TestLowOrderKeys:
    def test_server_answers_auth_failure_and_closes(self, deployment, client, serve):
        transport, thread = serve(deployment.sdm)
        hello = bytes([TAG_HELLO]) + client.address + LOW_ORDER_KEY + bytes(range(16))
        transport.send_frame(hello)
        challenge = transport.recv_frame()
        assert challenge[0] == TAG_CHALLENGE
        signature = client.signer.sign(
            signing_input(b"cake/handshake/client/v1", hello, challenge))
        transport.send_frame(bytes([TAG_AUTH]) + signature)

        assert wire_error_code(transport.recv_frame()) == "AuthFailure"
        with pytest.raises(protocol.TransportClosed):
            transport.recv_frame()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_client_raises_auth_failure(self, deployment, client, pair):
        server = deployment.sdm.identity
        server_side, client_side = pair
        outcome: list[BaseException] = []

        def handshake() -> None:
            try:
                protocol.client_handshake(client, server.public(), client_side,
                                          random.Random(3))
            except BaseException as exc:
                outcome.append(exc)

        thread = threading.Thread(target=handshake, daemon=True)
        thread.start()
        hello = server_side.recv_frame()
        core = LOW_ORDER_KEY + bytes(16)
        signature = server.signer.sign(
            signing_input(b"cake/handshake/server/v1", hello, core))
        server_side.send_frame(bytes([TAG_CHALLENGE]) + core + signature)
        assert server_side.recv_frame()[0] == TAG_AUTH
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert len(outcome) == 1 and isinstance(outcome[0], protocol.AuthFailure)


class TestReplay:
    def test_recorded_hello_and_auth_fail_in_a_fresh_session(self, deployment, client,
                                                             serve):
        transport, thread = serve(deployment.sdm)
        sent: list[bytes] = []
        send = transport.send_frame

        def record(body: bytes) -> None:
            sent.append(body)
            send(body)

        transport.send_frame = record
        session = protocol.client_handshake(client, deployment.sdm.public(), transport,
                                            random.Random(6))
        session.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        hello, auth = sent
        assert (hello[0], auth[0]) == (TAG_HELLO, TAG_AUTH)

        transport, thread = serve(deployment.sdm)
        transport.send_frame(hello)
        assert transport.recv_frame()[0] == TAG_CHALLENGE  # a fresh challenge
        transport.send_frame(auth)
        error = transport.recv_frame()
        assert error[0] == TAG_ERROR
        with pytest.raises(protocol.AuthFailure):
            protocol._raise_wire_error(error[1:])
        with pytest.raises(protocol.TransportClosed):
            transport.recv_frame()
        thread.join(timeout=5)
        assert not thread.is_alive()


class TestInProcessSessions:
    def test_a_silent_session_is_dropped_at_the_handshake_deadline(
            self, deployment, serve, monkeypatch):
        monkeypatch.setattr(protocol, "HANDSHAKE_DEADLINE_S", 0.2)
        started = time.monotonic()
        transport, thread = serve(deployment.sdm)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert 0.2 <= time.monotonic() - started < 2
        with pytest.raises(protocol.TransportClosed):
            transport.recv_frame()

    def test_a_send_after_the_server_dropped_the_session_raises(self, deployment,
                                                                 serve):
        transport, thread = serve(deployment.sdm)
        transport.send_frame(bytes(protocol.HELLO_BYTES))  # tag 0: no HELLO
        assert wire_error_code(transport.recv_frame()) == "AuthFailure"
        thread.join(timeout=5)
        assert not thread.is_alive()
        with pytest.raises(protocol.TransportClosed):
            transport.send_frame(bytes([TAG_HELLO]))


class TestConcurrentStores:
    def test_threaded_stores_keep_the_chain_whole(self, deployment, client):
        failures: list[Exception] = []

        def store_many():
            sdm = deployment.connect_sdm(client)
            try:
                for _ in range(25):
                    try:
                        sdm.store([("doc", "a or b", b"body")])
                    except CakeError as exc:
                        failures.append(exc)
            finally:
                sdm.close()

        threads = [threading.Thread(target=store_many) for _ in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert deployment.chain.height == 200
        assert deployment.chain.verify().ok


def store_request(slices) -> bytes:
    w = Writer()
    w.put_u32(len(slices))
    for label, policy, data in slices:
        w.put_str(label)
        w.put_str(policy)
        w.put_bytes(data)
    return w.getvalue()


def assert_dropped(transport, thread) -> None:
    """The server closed the channel and its session thread has exited."""
    with pytest.raises(protocol.TransportClosed):
        transport.recv_frame()
    thread.join(timeout=5)
    assert not thread.is_alive()


def honest_store(deployment, client) -> None:
    sdm = deployment.connect_sdm(client, random.Random(9))
    try:
        message_id, _ = sdm.store([("doc", "a", b"body")])
    finally:
        sdm.close()
    assert deployment.chain.message_get(message_id)


class TestRejections:
    def test_auth_signed_with_an_unregistered_key(self, deployment, client, serve):
        # Claims the registered client's address, signs with another key.
        impostor = protocol.Identity.generate(random.Random(7))
        impostor.address = client.address
        transport, thread = serve(deployment.sdm)
        protocol.client_handshake(impostor, deployment.sdm.public(), transport,
                                  random.Random(8))
        error = transport.recv_frame()
        assert wire_error_code(error) == "AuthFailure"
        with pytest.raises(protocol.AuthFailure):
            protocol._raise_wire_error(error[1:])
        assert_dropped(transport, thread)
        honest_store(deployment, client)

    def test_wrong_server_signing_key(self, deployment, client, serve):
        transport, thread = serve(deployment.sdm)
        with pytest.raises(protocol.AuthFailure, match="server signature"):
            protocol.client_handshake(client, deployment.ud.public(), transport,
                                      random.Random(8))
        transport.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        honest_store(deployment, client)

    def test_swapped_sealed_frames_drop_the_session(self, deployment, client, serve):
        transport, thread = serve(deployment.sdm)
        session = protocol.client_handshake(client, deployment.sdm.public(), transport,
                                            random.Random(8))
        send = transport.send_frame
        held: list[bytes] = []
        transport.send_frame = held.append
        session.send(TAG_STORE_REQ, store_request([("one", "a", b"1")]))
        session.send(TAG_STORE_REQ, store_request([("two", "a", b"2")]))
        first, second = held
        send(second)
        # The server drops the session at ``second``, so this send may meet
        # a closed peer.
        with contextlib.suppress(protocol.TransportClosed):
            send(first)
        assert_dropped(transport, thread)
        assert deployment.chain.height == 0
        honest_store(deployment, client)


def serving(service):
    """Start a ``ServiceServer``; returns it, its thread, and the list of
    (thread, seconds since the start) each finished session appends to."""
    finished: list[tuple[threading.Thread, float]] = []
    started = time.monotonic()
    serve_session = service.serve_session

    def recording(transport):
        try:
            serve_session(transport)
        finally:
            finished.append((threading.current_thread(), time.monotonic() - started))

    service.serve_session = recording
    server = protocol.ServiceServer(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, finished


def stop(server, thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def wait_finished(finished, count: int) -> list[tuple[threading.Thread, float]]:
    deadline = time.monotonic() + 5
    while len(finished) < count and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(finished) == count
    for session_thread, _ in finished:
        session_thread.join(timeout=5)
        assert not session_thread.is_alive()
    return finished


class TestDeadlines:
    @pytest.fixture(autouse=True)
    def short_limits(self, monkeypatch):
        monkeypatch.setattr(protocol, "HANDSHAKE_DEADLINE_S", 0.2)
        monkeypatch.setattr(protocol, "IDLE_TIMEOUT_S", 0.5)

    def test_silent_client_is_dropped_at_the_handshake_deadline(self, deployment):
        server, thread, finished = serving(deployment.sdm)
        try:
            with socket.create_connection(server.server_address, timeout=5) as sock:
                assert sock.recv(1) == b""  # the server closed the connection
            [(_, seconds)] = wait_finished(finished, 1)
            assert 0.2 <= seconds < 2
        finally:
            stop(server, thread)

    def test_deadline_covers_the_whole_handshake(self, deployment, client):
        # One byte of HELLO every 50 ms keeps each read short, not the handshake.
        server, thread, finished = serving(deployment.sdm)
        hello = bytes([TAG_HELLO]) + client.address + bytes(48)
        frame = len(hello).to_bytes(4, "big") + hello
        try:
            with socket.create_connection(server.server_address, timeout=5) as sock:
                for byte in frame:
                    try:
                        sock.sendall(bytes([byte]))
                    except OSError:
                        break
                    if finished:
                        break
                    time.sleep(0.05)
            [(_, seconds)] = wait_finished(finished, 1)
            assert seconds < 1
        finally:
            stop(server, thread)

    def test_idle_sealed_session_is_dropped(self, deployment, client):
        server, thread, finished = serving(deployment.sdm)
        try:
            transport = protocol.connect_tcp(*server.server_address)
            sdm = protocol.ServiceClient(client, deployment.sdm.public(), transport,
                                         random.Random(4))
            try:
                sdm.store([("doc", "a", b"first")])  # within the idle timeout
                wait_finished(finished, 1)
                with pytest.raises(protocol.TransportClosed):
                    sdm.store([("doc", "a", b"late")])
            finally:
                sdm.close()
        finally:
            stop(server, thread)

    def test_honest_tcp_session_outlives_the_handshake_deadline(self, deployment, client):
        server, thread, finished = serving(deployment.sdm)
        try:
            transport = protocol.connect_tcp(*server.server_address)
            sdm = protocol.ServiceClient(client, deployment.sdm.public(), transport,
                                         random.Random(4))
            try:
                stored = []
                for n in range(4):  # 0.4 s in all, each pause within the idle timeout
                    time.sleep(0.1)
                    stored.append(sdm.store([("doc", "a", bytes([n]))]))
            finally:
                sdm.close()
            wait_finished(finished, 1)
        finally:
            stop(server, thread)
        for message_id, _ in stored:
            assert deployment.chain.message_get(message_id)


class TestSessionCap:
    def test_a_session_past_the_cap_is_refused_until_one_ends(self, deployment, client,
                                                              monkeypatch):
        monkeypatch.setattr(protocol, "MAX_SESSIONS", 2)
        before = set(threading.enumerate())
        server, thread, finished = serving(deployment.sdm)

        def connect():
            return protocol.ServiceClient(client, deployment.sdm.public(),
                                          protocol.connect_tcp(*server.server_address),
                                          random.Random(6))

        try:
            first, second = connect(), connect()
            try:
                with pytest.raises(protocol.TransportClosed):
                    connect()
                first.store([("doc", "a", b"still served")])
                first.close()
                wait_finished(finished, 1)
                with connect() as third:
                    third.store([("doc", "a", b"a freed slot")])
                second.store([("doc", "a", b"still served")])
            finally:
                first.close()
                second.close()
            wait_finished(finished, 3)
        finally:
            stop(server, thread)
        assert deployment.chain.height == 3
        assert set(threading.enumerate()) <= before


class TestRefusedClient:
    def test_unregistered_tcp_client_closes_its_socket(self, deployment):
        stranger = protocol.Identity.generate(random.Random(5))  # never registered
        server, thread, finished = serving(deployment.sdm)
        try:
            transport = protocol.connect_tcp(*server.server_address)
            with pytest.raises(protocol.UnknownClient):
                protocol.ServiceClient(stranger, deployment.sdm.public(), transport,
                                       random.Random(6))
            assert transport._sock.fileno() == -1  # closed, not left to the collector
            wait_finished(finished, 1)
        finally:
            stop(server, thread)


class TestRequestTags:
    @pytest.mark.parametrize("role", ["sdm", "ud", "skm"])
    def test_another_services_tag_is_refused_and_the_session_goes_on(
            self, deployment, client, serve, role):
        with deployment.connect_ud(deployment.certifier, random.Random(3)) as ud:
            ud.certify(client.address, ["a"])
        service = getattr(deployment, role)
        caller = deployment.certifier if role == "ud" else client
        transport, thread = serve(service)
        with protocol.ServiceClient(caller, service.public(), transport,
                                    random.Random(4)) as session:
            others = {TAG_STORE_REQ, TAG_CERTIFY_REQ, TAG_KEY_REQ} - {service.request_tag}
            for tag in sorted(others):
                with pytest.raises(protocol.ProtocolError) as caught:
                    session._call(tag, store_request([("doc", "a", b"body")]))
                assert type(caught.value) is protocol.ProtocolError
                assert f"{tag:#x}" in str(caught.value)
            if role == "sdm":
                message_id, _ = session.store([("doc", "a", b"body")])
                assert deployment.chain.message_get(message_id)
            elif role == "ud":
                session.certify(client.address, ["b"])
                assert deployment.chain.height == 2
            else:
                assert session.request_key().attributes == {"a"}
        thread.join(timeout=5)
        assert not thread.is_alive()


class TestSessionBoundary:
    def test_unexpected_handler_error_is_logged_and_closes(
            self, deployment, client, monkeypatch, caplog):
        def broken_handler(session, payload):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(deployment.sdm, "_handle", broken_handler)
        with deployment.connect_sdm(client, random.Random(4)) as sdm:
            with caplog.at_level(logging.ERROR, logger="cake.protocol"):
                with pytest.raises(protocol.InternalError) as caught:
                    sdm.store([("doc", "a", b"body")])
            assert "handler bug" not in str(caught.value)
            with pytest.raises(protocol.TransportClosed):
                sdm.store([("doc", "a", b"body")])
        [record] = [r for r in caplog.records if r.name == "cake.protocol"]
        assert record.exc_info is not None
        assert "handler bug" in caplog.text


class TestPreAuthFrameLimits:
    def test_in_process_transport_enforces_limit(self, pair):
        server_side, client_side = pair
        client_side.send_frame(bytes(protocol.HELLO_BYTES + 1))
        with pytest.raises(protocol.ProtocolError):
            server_side.recv_frame(protocol.HELLO_BYTES)

    def test_oversized_hello_prefix_refused_without_reading_body(self, deployment):
        server = protocol.ServiceServer(deployment.sdm, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(server.server_address, timeout=5) as sock:
                # Only the length prefix is sent: a server waiting for the
                # 1 MiB body would never answer, and the read below times out.
                sock.sendall((1 << 20).to_bytes(4, "big"))
                transport = protocol.SocketTransport(sock)
                assert wire_error_code(transport.recv_frame()) == "ProtocolError"
                with pytest.raises(protocol.TransportClosed):
                    transport.recv_frame()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()


class TestSealedFrameLimit:
    def test_limit_is_a_sealed_blob_at_the_cap(self):
        assert protocol.MAX_FRAME_BYTES == cas.MAX_BLOB_BYTES + 1 + 16

    def test_oversized_sealed_prefix_refused_without_reading_body(self, deployment,
                                                                  client):
        server = protocol.ServiceServer(deployment.sdm, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            transport = protocol.connect_tcp(*server.server_address)
            transport._sock.settimeout(5)
            with protocol.ServiceClient(client, deployment.sdm.public(),
                                        transport) as sdm:
                # Only the length prefix is sent, as in the pre-HELLO test.
                transport._sock.sendall(
                    (protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
                tag, payload = sdm.session.receive()
                assert wire_error_code(bytes([tag]) + payload) == "ProtocolError"
                with pytest.raises(protocol.TransportClosed):
                    transport.recv_frame()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()
        honest_store(deployment, client)


def nodelay(sock: socket.socket) -> bool:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


class TestNoDelay:
    def test_both_ends_of_a_tcp_session(self, deployment, monkeypatch):
        accepted: list[bool] = []

        def record(transport):
            accepted.append(nodelay(transport._sock))
            transport.close()

        monkeypatch.setattr(deployment.sdm, "serve_session", record)
        server = protocol.ServiceServer(deployment.sdm, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            transport = protocol.connect_tcp(*server.server_address)
            try:
                assert nodelay(transport._sock)
                with pytest.raises(protocol.TransportClosed):
                    transport.recv_frame()
            finally:
                transport.close()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert accepted == [True]


def cake_error_classes():
    found, pending = [], [CakeError]
    while pending:
        for cls in pending.pop().__subclasses__():
            found.append(cls)
            pending.append(cls)
    return found


class TestWireErrors:
    def test_every_error_a_handler_raises_arrives_as_its_own_type(
            self, deployment, client, monkeypatch):
        raised: list[Exception] = []
        monkeypatch.setattr(deployment.sdm, "_handle",
                            lambda session, payload: raise_(raised[-1]))
        sdm = deployment.connect_sdm(client, random.Random(5))
        try:
            for cls in cake_error_classes():
                if issubclass(cls, policy_mod.PolicyError):
                    error = cls("bad token", 7)
                elif cls.__init__ is CakeError.__init__:
                    error = cls("went wrong")
                else:
                    continue  # needs fields an error frame does not carry
                raised.append(error)
                with pytest.raises(cls) as caught:
                    sdm.store([("doc", "a", b"body")])
                assert type(caught.value) is cls
                assert str(caught.value) == str(error)
                assert getattr(caught.value, "offset", None) == getattr(error, "offset", None)
        finally:
            sdm.close()
        assert {type(e).__name__ for e in raised} >= {
            "BadNonce", "AlreadyRecorded", "ProtocolError", "PolicyNotSatisfied",
            "CodecError", "MalformedLocator", "PolicySyntaxError"}

    @pytest.mark.parametrize("code", ["NoSuchError", "RemoteServiceError"])
    def test_unknown_or_structured_error_is_remote_service_error(self, code):
        w = Writer()
        w.put_str(code)
        w.put_str("upstream failed")
        w.put_u64(0)
        with pytest.raises(protocol.RemoteServiceError) as caught:
            protocol._raise_wire_error(w.getvalue())
        assert type(caught.value) is protocol.RemoteServiceError
        assert caught.value.code == code


def raise_(exc: Exception):
    raise exc
