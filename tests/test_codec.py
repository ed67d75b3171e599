import importlib
import pkgutil
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cake
from cake import abe
from cake.codec import (
    BYTES,
    STR,
    U32,
    U64,
    CodecError,
    Field,
    Reader,
    Writer,
    counted,
    decode,
    encode,
    raw,
)

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


# --- declared records --------------------------------------------------------

def _is_record(value) -> bool:
    return (isinstance(value, tuple) and not isinstance(value, Field)
            and all(isinstance(field, Field) for field in value))


def declared_records() -> dict[str, tuple[Field, ...]]:
    """Every record the package declares: each module-level tuple of fields,
    and each class's ``request`` and ``reply`` (a request may have none)."""
    found = {}
    for info in pkgutil.iter_modules(cake.__path__):
        module = importlib.import_module(f"cake.{info.name}")
        for name, value in vars(module).items():
            if _is_record(value) and value:
                found[f"{info.name}.{name}"] = value
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr in ("request", "reply"):
                    if _is_record(vars(value).get(attr)):
                        found[f"{info.name}.{name}.{attr}"] = vars(value)[attr]
    return found


RECORDS = declared_records()


def values_of(field: Field):
    """A strategy for the values of one field."""
    if field is U32:
        return st.integers(0, 2**32 - 1)
    if field is U64:
        return st.integers(0, 2**64 - 1)
    if field is BYTES:
        return st.binary(max_size=24)
    if field is STR:
        return st.text(max_size=8)
    if isinstance(field.of, int):
        return st.binary(min_size=field.of, max_size=field.of)
    entries = [values_of(entry) for entry in field.of]
    return st.lists(entries[0] if len(entries) == 1 else st.tuples(*entries), max_size=3)


def test_every_record_the_package_declares_is_found():
    services = [f"protocol.{cls}.{attr}" for cls in ("SdmService", "UdService", "SkmService")
                for attr in ("request", "reply")]
    assert set(RECORDS) >= {
        "ledger.TX_SIGNED", "ledger.TRANSACTION", "ledger.BLOCK", "ledger.STORE_ARGS",
        "ledger.CERTIFY_ARGS", "protocol.ACTOR_METADATA", "protocol.ERROR_PAYLOAD",
        "abe.USER_KEY", "abe.CONTAINER", "abe.SLICE_PAYLOAD", *services}


@pytest.mark.parametrize("name", sorted(RECORDS))
@settings(derandomize=True, max_examples=15, database=None, deadline=None)
@given(data=st.data())
def test_every_declared_record_round_trips_and_refuses_other_bytes(name, data):
    fields = RECORDS[name]
    values = data.draw(st.tuples(*map(values_of, fields)))
    encoded = encode(fields, *values)
    assert decode(fields, encoded) == list(values)
    for end in range(len(encoded)):
        with pytest.raises(CodecError):
            decode(fields, encoded[:end])
    with pytest.raises(CodecError):
        decode(fields, encoded + b"\x00")
    with pytest.raises(CodecError):
        encode(fields, *values, 0)
    if fields:
        with pytest.raises(CodecError):
            encode(fields, *values[:-1])


def test_a_record_is_laid_out_as_the_writer_lays_out_its_fields():
    fields = (U32, U64, BYTES, STR, raw(3), counted(STR), counted(STR, BYTES))
    values = (7, 2**40, b"\x00b", "ö", b"xyz", ["p", ""], [("k", b"v"), ("", b"")])
    w = Writer()
    w.put_u32(7)
    w.put_u64(2**40)
    w.put_bytes(b"\x00b")
    w.put_str("ö")
    w.put_raw(b"xyz")
    w.put_u32(2)
    w.put_str("p")
    w.put_str("")
    w.put_u32(2)
    for name, blob in values[-1]:
        w.put_str(name)
        w.put_bytes(blob)
    assert encode(fields, *values) == w.getvalue()
    assert decode(fields, w.getvalue()) == list(values)


def test_a_counted_entry_with_the_wrong_number_of_values_is_refused():
    with pytest.raises(CodecError):
        encode((counted(STR, BYTES),), [("name", b"key", b"extra")])
    with pytest.raises(CodecError):
        encode((counted(STR, BYTES),), [("name",)])


def test_the_container_record_reads_as_parse_container_does():
    rng = random.Random(3)
    message_id = abe.new_message_id(rng)
    container = abe.encrypt_container(abe.setup(rng), message_id,
                                      [("terms", "a and b", b"one"), ("note", "c", b"")], rng)
    blob = abe.serialize_container(container)
    parsed = abe.parse_container(blob)
    assert decode(abe.CONTAINER, blob) == [
        parsed.message_id, [(label, abe.serialize_slice(ct)) for label, ct in parsed.slices]]
