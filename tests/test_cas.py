import os
import random

import pytest

from cake import cas
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

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        store = DirectoryBlobStore(tmp_path)

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cas.os, "replace", refuse)
        with pytest.raises(StorageFailure, match="disk full"):
            store.put(HELLO)
        assert os.listdir(tmp_path / "blobs") == []
        monkeypatch.undo()
        assert store.get(store.put(HELLO)) == HELLO


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
        path = tmp_path / "blobs" / loc.digest.hex()
        raw = bytearray(path.read_bytes())
        raw[3] ^= 0x40
        path.write_bytes(bytes(raw))
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
        path = tmp_path / "blobs" / loc.digest.hex()
        original = path.read_bytes()
        rng = random.Random(3)
        for _ in range(64):
            bit = rng.randrange(len(original) * 8)
            raw = bytearray(original)
            raw[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(raw))
            with pytest.raises(IntegrityViolation):
                store.get(loc)
        path.write_bytes(original)
        assert store.get(loc) == data


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
