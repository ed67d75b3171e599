import pytest

from cake.codec import CodecError, Reader, Writer

# (put method, take method, take arguments, value) for every field kind
FIELDS = [
    ("put_u32", "take_u32", (), 2**32 - 1),
    ("put_u64", "take_u64", (), 2**64 - 1),
    ("put_bytes", "take_bytes", (), b"\x00payload\xff"),
    ("put_bytes", "take_bytes", (), b""),
    ("put_str", "take_str", (), "custöms ✓"),
    ("put_raw", "take_raw", (3,), b"xyz"),
]


def encode_all() -> bytes:
    w = Writer()
    for put, _, _, value in FIELDS:
        getattr(w, put)(value)
    return w.getvalue()


def decode_all(data: bytes) -> list:
    r = Reader(data)
    values = [getattr(r, take)(*args) for _, take, args, _ in FIELDS]
    r.expect_end()
    return values


def test_roundtrip_every_field_kind():
    assert decode_all(encode_all()) == [value for *_, value in FIELDS]


def test_layout_is_big_endian_and_length_prefixed():
    w = Writer()
    w.put_u32(1)
    w.put_str("ab")
    assert w.getvalue() == b"\x00\x00\x00\x01" + b"\x00\x00\x00\x02ab"


def test_every_truncated_prefix_rejected():
    data = encode_all()
    for end in range(len(data)):
        with pytest.raises(CodecError):
            decode_all(data[:end])


def test_invalid_utf8_string_rejected():
    w = Writer()
    w.put_bytes(b"\xff\xfe")
    with pytest.raises(CodecError):
        Reader(w.getvalue()).take_str()


def test_trailing_bytes_fail_expect_end():
    r = Reader(encode_all() + b"\x00")
    for _, take, args, _ in FIELDS:
        getattr(r, take)(*args)
    assert r.remaining == 1
    with pytest.raises(CodecError):
        r.expect_end()
