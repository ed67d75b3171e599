import fcntl
import hashlib
import logging
import multiprocessing
import os
import random
import struct
import threading

import pytest

from cake import cas, cli, protocol
from cake.cas import (
    BlobNotFound,
    BlobTooLarge,
    DirectoryBlobStore,
    IntegrityViolation,
    Locator,
    MalformedLocator,
    MemoryBlobStore,
    StorageFailure,
    base58_encode,
    locator_for,
    parse_locator,
    render_locator,
)
from helpers import alt_base58_encode

# published sha-256 test vector for the ascii bytes "hello"
HELLO = b"hello"
HELLO_DIGEST = bytes.fromhex(
    "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824")


# A pack frame is a 4-byte body length and the 32-byte digest, then the body.
FRAME_HEADER = 4 + 32


def flip_pack_bit(root, offset: int, mask: int) -> None:
    with open(root / cas.PACK_NAME, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ mask]))


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryBlobStore()
    return DirectoryBlobStore(tmp_path)


class TestPut:
    def test_digest_matches_known_vector(self, store):
        loc = store.put(HELLO)
        assert loc.digest == HELLO_DIGEST

    def test_idempotent(self, store):
        assert store.put(HELLO) == store.put(HELLO)

    def test_single_bit_changes_locator(self, store):
        a = store.put(b"\x00\x01\x02")
        b = store.put(b"\x00\x01\x03")
        assert a != b

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(cas, "MAX_BLOB_BYTES", 8)
        small = MemoryBlobStore()
        small.put(b"x" * 8)
        with pytest.raises(BlobTooLarge):
            small.put(b"x" * 9)

    def test_locator_is_pure_function_of_bytes(self, store):
        assert store.put(HELLO) == locator_for(HELLO)


class TestGet:
    def test_roundtrip(self, store):
        data = random.Random(1).randbytes(500)
        assert store.get(store.put(data)) == data

    def test_unknown_locator(self, store):
        with pytest.raises(BlobNotFound):
            store.get(Locator(bytes(32)))

    def test_directory_tamper_detected(self, tmp_path):
        store = DirectoryBlobStore(tmp_path)
        loc = store.put(b"important bytes")
        flip_pack_bit(tmp_path, FRAME_HEADER + 3, 0x40)
        with pytest.raises(IntegrityViolation):
            store.get(loc)

    def test_memory_tamper_detected(self):
        store = MemoryBlobStore()
        loc = store.put(b"important bytes")
        store._blobs[loc.digest] = b"important bytes!"
        with pytest.raises(IntegrityViolation):
            store.get(loc)

    def test_sampled_bit_flips_all_detected(self, tmp_path):
        store = DirectoryBlobStore(tmp_path)
        data = random.Random(2).randbytes(1024)
        loc = store.put(data)
        rng = random.Random(3)
        for _ in range(64):
            bit = rng.randrange(len(data) * 8)
            flip_pack_bit(tmp_path, FRAME_HEADER + bit // 8, 1 << (bit % 8))
            with pytest.raises(IntegrityViolation):
                store.get(loc)
            flip_pack_bit(tmp_path, FRAME_HEADER + bit // 8, 1 << (bit % 8))
        assert store.get(loc) == data


def put_fifty(root, tag: bytes, barrier) -> None:
    store = DirectoryBlobStore(root)
    for n in range(50):
        barrier.wait(10)  # so that the two writers try to append at once
        store.put(b"%s %d " % (tag, n) * 1000)


class TestPack:
    def test_torn_last_frame_is_dropped_then_truncated(self, tmp_path):
        blobs = [b"first blob", b"second blob", b"third blob, cut short"]
        locs = [DirectoryBlobStore(tmp_path).put(blob) for blob in blobs]
        pack = tmp_path / cas.PACK_NAME
        whole = pack.read_bytes()
        last = len(whole) - FRAME_HEADER - len(blobs[2])
        for cut in range(last, len(whole)):
            pack.write_bytes(whole[:cut])
            store = DirectoryBlobStore(tmp_path)
            assert [store.get(loc) for loc in locs[:2]] == blobs[:2]
            with pytest.raises(BlobNotFound):
                store.get(locs[2])
            extra = store.put(b"after the tear")
            assert pack.stat().st_size == last + FRAME_HEADER + len(b"after the tear")
            assert store.put(blobs[2]) == locs[2]
            reopened = DirectoryBlobStore(tmp_path)
            assert [reopened.get(loc) for loc in [*locs, extra]] == \
                [*blobs, b"after the tear"]

    def test_failed_append_leaves_the_pack_as_it_was(self, tmp_path, monkeypatch):
        store = DirectoryBlobStore(tmp_path)
        first = store.put(b"first")
        pack = tmp_path / cas.PACK_NAME
        size = pack.stat().st_size
        pwritev = os.pwritev

        def header_then_fail(fd, buffers, offset):
            pwritev(fd, buffers[:1], offset)
            raise OSError("disk full")

        monkeypatch.setattr(cas.os, "pwritev", header_then_fail)
        with pytest.raises(StorageFailure, match="disk full"):
            store.put(HELLO)
        assert pack.stat().st_size == size
        monkeypatch.undo()
        assert store.get(store.put(HELLO)) == HELLO
        reopened = DirectoryBlobStore(tmp_path)
        assert (reopened.get(first), reopened.get(locator_for(HELLO))) == (b"first", HELLO)

    @pytest.mark.parametrize("torn", [False, True], ids=["whole", "torn-tail"])
    @pytest.mark.parametrize("failure", ["short write", "OSError"])
    def test_failed_chain_append_leaves_the_chain_file_as_it_was(self, tmp_path, monkeypatch,
                                                                 failure, torn):
        home = cli.Home(tmp_path / "home")
        home.ensure_provisioned()
        owner = protocol.Identity.generate()
        home.save_identity("owner", owner)
        deployment = home.open()

        def store(body: bytes) -> bytes:
            with deployment.connect_sdm(owner) as client:
                return client.store([("doc", "a", body)])[0]

        acknowledged = [store(b"first")]
        size = home.chain_file.stat().st_size
        if torn:  # the append that fails first cuts the torn tail off
            with home.chain_file.open("ab") as fh:
                fh.write(b"\0\0")
            deployment = home.open()
        pwritev, chain_inode = os.pwritev, home.chain_file.stat().st_ino

        def failing_chain_write(fd, buffers, offset):
            if os.fstat(fd).st_ino != chain_inode:
                return pwritev(fd, buffers, offset)  # the blob pack
            if failure == "OSError":
                raise OSError("disk full")
            data = b"".join(buffers)
            return pwritev(fd, [data[:len(data) // 2]], offset)

        monkeypatch.setattr(cas.os, "pwritev", failing_chain_write)
        with pytest.raises(StorageFailure):
            store(b"failed")
        assert home.chain_file.stat().st_size == size
        monkeypatch.undo()
        acknowledged.append(store(b"second"))
        # the failed store is not on the chain, in memory or in the file
        assert home.chain_file.read_bytes() == deployment.chain.serialize()
        reopened = cli.Home(tmp_path / "home").open().chain
        assert reopened.height == deployment.chain.height == 2
        for message_id in acknowledged:
            reopened.message_get(message_id)
        assert reopened.verify().ok

    def test_two_writer_processes_share_one_pack(self, tmp_path):
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        workers = [context.Process(target=put_fifty, args=(tmp_path, tag, barrier))
                   for tag in (b"left", b"right")]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30)
            assert worker.exitcode == 0
            worker.close()
        blobs = [b"%s %d " % (tag, n) * 1000 for tag in (b"left", b"right")
                 for n in range(50)]
        store = DirectoryBlobStore(tmp_path)
        assert [store.get(locator_for(blob)) for blob in blobs] == blobs
        assert (tmp_path / cas.PACK_NAME).stat().st_size == \
            sum(FRAME_HEADER + len(blob) for blob in blobs)

    def test_an_append_waits_for_the_pack_lock(self, tmp_path):
        store = DirectoryBlobStore(tmp_path)
        store.put(b"first")
        pack = tmp_path / cas.PACK_NAME
        with open(pack, "rb") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            writer = threading.Thread(target=store.put, args=(HELLO,))
            writer.start()
            writer.join(0.2)
            assert writer.is_alive()
            assert pack.stat().st_size == FRAME_HEADER + len(b"first")
            fcntl.flock(held, fcntl.LOCK_UN)
            writer.join(5)
        assert not writer.is_alive()
        assert store.get(locator_for(HELLO)) == HELLO

    def test_a_miss_finds_frames_appended_since_the_index_was_built(self, tmp_path):
        reader = DirectoryBlobStore(tmp_path)
        early = DirectoryBlobStore(tmp_path).put(b"early")
        assert reader.get(early) == b"early"
        late = DirectoryBlobStore(tmp_path).put(b"late")
        assert reader.get(late) == b"late"

    def test_nothing_is_created_until_a_put(self, tmp_path):
        store = DirectoryBlobStore(tmp_path)
        with pytest.raises(BlobNotFound):
            store.get(locator_for(HELLO))
        assert os.listdir(tmp_path) == []
        store.put(HELLO)
        assert os.listdir(tmp_path) == [cas.PACK_NAME]


# The header fields of a frame of ``body`` under each header the home's logs
# use: the pack's (length, digest) and the chain file's (length).
FRAME_FIELDS = {
    ">I32s": lambda body: (len(body), hashlib.sha256(body).digest()),
    ">I": lambda body: (len(body),),
}
BODIES = [b"", b"first", b"x" * 40, b"last"]


@pytest.fixture(params=FRAME_FIELDS)
def frames(request):
    """The ``fields`` a log is made with (its header past the length), a
    function framing a body under that header, and the bytes of
    :data:`BODIES` framed in order, each as (fields, body offset, end)."""
    header = struct.Struct(request.param)

    def frame(body: bytes) -> bytes:
        return header.pack(*FRAME_FIELDS[request.param](body)) + body

    data, spans = b"", []
    for body in BODIES:
        spans.append((FRAME_FIELDS[request.param](body), len(data) + header.size,
                      len(data) + len(frame(body))))
        data += frame(body)
    return request.param[len(">I"):], frame, data, spans


def read_all(log: cas.FrameLog, path) -> list[tuple[tuple, int]]:
    with open(path, "rb") as fh:
        return list(log.read_new(fh.fileno()))


def append(log: cas.FrameLog, path, body: bytes) -> int:
    """Append ``body`` under the header fields :data:`FRAME_FIELDS` gives it."""
    fields = FRAME_FIELDS[log.header.format](body)[1:]
    with open(path, "r+b") as fh:
        return log.append(fh.fileno(), body, *fields)


class TestFrameLog:
    def test_read_new_yields_the_whole_frames_at_every_cut(self, tmp_path, frames):
        extra, _, data, spans = frames
        path = tmp_path / "log"
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            log = cas.FrameLog(path, extra)
            whole = [span for span in spans if span[2] <= cut]
            assert read_all(log, path) == [(fields, body) for fields, body, _ in whole]
            assert log.end == (whole[-1][2] if whole else 0)
            path.write_bytes(data)
            with path.open("rb") as fh:  # ``read`` stops at ``end``
                assert list(log.read(fh.fileno())) == \
                    [(fields, body) for fields, body, _ in whole]
            assert read_all(log, path) == \
                [(fields, body) for fields, body, _ in spans[len(whole):]]
            assert log.end == len(data)

    def test_an_append_cuts_a_torn_tail_and_logs_once(self, tmp_path, frames, caplog):
        extra, frame, data, spans = frames
        path = tmp_path / "log"
        last = spans[-2][2]
        for cut in range(last, len(data)):
            path.write_bytes(data[:cut])
            log = cas.FrameLog(path, extra)
            read_all(log, path)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="cake.cas"):
                assert append(log, path, b"one") == last
                assert append(log, path, b"two") == last + len(frame(b"one"))
            assert path.read_bytes() == data[:last] + frame(b"one") + frame(b"two")
            assert log.end == path.stat().st_size
            assert [record.getMessage() for record in caplog.records] == \
                ([f"{path}: truncating a torn {cut - last}-byte tail"] if cut > last else [])

    def test_frames_another_writer_changed_make_an_append_raise(self, tmp_path, frames):
        extra, frame, data, spans = frames
        path = tmp_path / "log"
        end = spans[1][2]
        path.write_bytes(data[:end])
        log = cas.FrameLog(path, extra)
        read_all(log, path)
        for changed in (data[:spans[2][2]],  # a whole frame past the end
                        data[:spans[2][2] + 3],  # ... and a torn tail after it
                        data[:end - 1],  # shorter than the end
                        data[:spans[0][2]]):
            path.write_bytes(changed)
            with pytest.raises(cas.LogConflict):
                append(log, path, b"mine")
            assert path.read_bytes() == changed
            assert log.end == end


class TestLocatorCodec:
    def test_rendering_starts_with_qm(self):
        rng = random.Random(4)
        for _ in range(50):
            assert render_locator(Locator(rng.randbytes(32))).startswith("Qm")

    def test_roundtrip(self):
        rng = random.Random(5)
        for _ in range(200):
            loc = Locator(rng.randbytes(32))
            assert parse_locator(render_locator(loc)) == loc

    def test_zero_digest_against_independent_base58(self):
        raw = b"\x12\x20" + bytes(32)
        assert base58_encode(raw) == alt_base58_encode(raw)
        assert render_locator(Locator(bytes(32))) == alt_base58_encode(raw)

    def test_base58_against_independent_implementation(self):
        rng = random.Random(6)
        samples = [b"", b"\x00", b"\x00\x00a", rng.randbytes(34), b"hello world"]
        samples += [rng.randbytes(rng.randrange(0, 40)) for _ in range(100)]
        for data in samples:
            assert base58_encode(data) == alt_base58_encode(data)

    def test_parse_rejects_garbage(self):
        good = render_locator(Locator(bytes(range(32))))
        with pytest.raises(MalformedLocator):
            parse_locator(good[:-1])  # wrong length
        with pytest.raises(MalformedLocator):
            parse_locator("0OIl" + good[4:])  # not base58 alphabet
        with pytest.raises(MalformedLocator):
            parse_locator("1" + good)  # leading-zero padding, wrong size
        wrong_prefix = base58_encode(b"\x13\x20" + bytes(range(32)))
        with pytest.raises(MalformedLocator):
            parse_locator(wrong_prefix)

    def test_malformed_text_raises_on_every_call_and_is_not_cached(self):
        good = render_locator(Locator(bytes(range(32))))
        for text in (good[:-1], "0OIl" + good[4:], "1" + good):
            before = parse_locator.cache_info()
            for _ in range(3):
                with pytest.raises(MalformedLocator):
                    parse_locator(text)
            after = parse_locator.cache_info()
            assert after.misses == before.misses + 3
            assert after.currsize == before.currsize

    def test_memo_hit_equals_a_fresh_parse(self):
        rng = random.Random(7)
        locators = [Locator(rng.randbytes(32)) for _ in range(20)]
        for loc in locators:
            parse_locator(render_locator(loc))
        for loc in locators:
            text = render_locator(loc)
            hits = parse_locator.cache_info().hits
            assert parse_locator(text) == parse_locator.__wrapped__(text) == loc
            assert parse_locator.cache_info().hits == hits + 1

    def test_memo_is_bounded(self):
        assert parse_locator.cache_info().maxsize == cas._LOCATOR_MEMO_SIZE

    def test_locator_str(self):
        loc = Locator(bytes(32))
        assert str(loc) == render_locator(loc)

    def test_digest_length_enforced(self):
        with pytest.raises(MalformedLocator):
            Locator(b"\x00" * 31)
