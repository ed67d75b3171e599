import dataclasses
import functools
import hashlib
import random
import sys
import threading
from dataclasses import replace

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptography.exceptions import InvalidTag

from cake import abe
from cake.codec import CodecError, Reader, Writer
from cake.policy import (
    MAX_NESTING,
    PolicyError,
    attributes_of,
    evaluate,
    min_satisfying_leaves,
    parse_policy,
    render_policy,
    tree_leaves,
)
from cake.sss import (
    PRIME,
    FieldDecodeError,
    decode_field,
    encode_field,
    leaf_weights,
    reconstruct_tree,
)
from helpers import (
    ATTRIBUTE_POOL,
    SERVE_ROLES,
    SliceFields,
    WrappedShare,
    attribute_subsets,
    encode_header,
    encode_slice,
    hkdf_sha256,
    min_satisfying_size,
    nested_policy,
    parse_slice,
    random_policy,
    reslice,
    serve_shaped_policy,
    slice_fields,
)
from test_policy import asts

IMPORT_DECLARATION = "(29837 and ((economic_operator) or (customs)))"
TRANSPORT_DOCUMENT = "(29837 and ((economic_operator) or (customs) or (courier)))"

HOLDER = bytes(range(20))

# computed with the from-scratch RFC 5869 implementation in helpers.py
KDF_VECTORS = [
    ("00" * 32, "customs",
     "1cb9ba6f7f230a7ea799f6f6665b57686812936b6c76286a1048810919e39aa1"),
    ("0102" * 16, "29837",
     "b362fb36aa412bd802217185abc084acdbf16292c84d3e2ca42043a932512653"),
    ("ff" * 32, "economic_operator",
     "278750059392a8719aebe3912f1637baf37f031b78ccbb0e06bdc453375ef146"),
]


# Arbitrary header fields, for the header encoder.
texts = st.text(max_size=12)
wrapped_shares = st.builds(WrappedShare, st.integers(0, 2**32 - 1), texts,
                           st.binary(max_size=16), st.binary(max_size=64))

# Containers of random policies' slices with arbitrary payload fields: the
# parse takes only a policy's canonical header, and never checks that a
# share or the payload opens.
_STRATEGY_SECRET = abe.setup(random.Random(47))
slice_ciphertexts = st.builds(
    lambda ast, seed, payload_nonce, payload: replace(
        abe.encrypt_slice(_STRATEGY_SECRET, render_policy(ast), b"", random.Random(seed)),
        payload_nonce=payload_nonce, payload=payload),
    asts, st.integers(0, 2**32 - 1), st.binary(max_size=16), st.binary(max_size=64))
containers = st.builds(
    abe.CiphertextContainer, st.binary(min_size=16, max_size=16),
    st.lists(st.tuples(texts, slice_ciphertexts), min_size=1, max_size=4,
             unique_by=lambda entry: entry[0]).map(tuple))


def make_key(ms, attrs, holder=HOLDER):
    return abe.keygen(ms, holder, frozenset(attrs), issued_at=0)


def flip_last_byte(ws: WrappedShare) -> WrappedShare:
    return ws._replace(wrapped=ws.wrapped[:-1] + bytes([ws.wrapped[-1] ^ 1]))


@pytest.fixture
def ms():
    return abe.setup(random.Random(1))


@pytest.fixture
def aead_opens(monkeypatch):
    """Records every AES-GCM decryption ``abe`` performs."""
    opens: list[bytes] = []

    class CountingAESGCM:
        def __init__(self, key: bytes) -> None:
            self._aead = AESGCM(key)

        def encrypt(self, nonce, data, aad):
            return self._aead.encrypt(nonce, data, aad)

        def decrypt(self, nonce, data, aad):
            opens.append(aad)
            return self._aead.decrypt(nonce, data, aad)

    monkeypatch.setattr(abe, "AESGCM", CountingAESGCM)
    return opens


class BrokenEntropy(random.Random):
    """An entropy source whose draws raise ``OSError`` or come back one byte
    short."""

    def __init__(self, raises: bool) -> None:
        super().__init__(0)
        self.raises = raises

    def randbytes(self, n: int) -> bytes:
        if self.raises:
            raise OSError("no entropy")
        return bytes(n - 1)


class TestSetup:
    def test_root_key_length(self, ms):
        assert len(ms.root_key) == 32

    def test_seed_determinism(self):
        assert abe.setup(random.Random(5)) == abe.setup(random.Random(5))
        assert abe.setup(random.Random(5)) != abe.setup(random.Random(6))

    @pytest.mark.parametrize("raises", [True, False], ids=["raises", "short"])
    def test_a_failing_entropy_source_is_an_entropy_failure(self, raises):
        with pytest.raises(abe.EntropyFailure):
            abe.setup(BrokenEntropy(raises))


class TestAttributeWrapKey:
    def test_deterministic(self, ms):
        assert abe.attribute_wrap_key(ms, "courier") == abe.attribute_wrap_key(ms, "courier")

    def test_distinct_across_scenario_attributes(self, ms):
        names = ["29837", "courier", "economic_operator", "customs"] + ATTRIBUTE_POOL
        keys = {abe.attribute_wrap_key(ms, name) for name in names}
        assert len(keys) == len(names)

    @pytest.mark.parametrize("root_hex,attr,expected", KDF_VECTORS)
    def test_matches_independent_kdf(self, root_hex, attr, expected):
        secret = abe.MasterSecret(bytes.fromhex(root_hex))
        assert abe.attribute_wrap_key(secret, attr).hex() == expected
        # keep the oracle honest too
        assert hkdf_sha256(bytes.fromhex(root_hex),
                           b"cake/attribute-key/" + attr.encode()).hex() == expected

    @pytest.mark.parametrize("root_hex,attr,expected", KDF_VECTORS)
    def test_memo_hit_matches_independent_kdf(self, root_hex, attr, expected):
        secret = abe.MasterSecret(bytes.fromhex(root_hex))
        abe.attribute_wrap_key(secret, attr)
        hits = abe.attribute_wrap_key.cache_info().hits
        assert abe.attribute_wrap_key(secret, attr).hex() == expected
        assert abe.attribute_wrap_key.cache_info().hits == hits + 1

    def test_master_secrets_never_share_entries(self):
        secrets = [abe.setup(random.Random(seed)) for seed in (7, 8)]
        abe.attribute_wrap_key.cache_clear()
        for _ in range(2):
            for secret in secrets:
                assert abe.attribute_wrap_key(secret, "Customs") == hkdf_sha256(
                    secret.root_key, b"cake/attribute-key/customs")
        info = abe.attribute_wrap_key.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)

    def test_memo_is_bounded(self):
        assert abe.attribute_wrap_key.cache_info().maxsize == abe._WRAP_KEY_MEMO_SIZE


class TestKeygen:
    def test_exact_entries(self, ms):
        key = make_key(ms, {"courier", "29837"})
        assert key.attributes == frozenset({"courier", "29837"})
        assert key.attribute_keys["courier"] == abe.attribute_wrap_key(ms, "courier")

    def test_single_attribute(self, ms):
        assert make_key(ms, {"x"}).attributes == frozenset({"x"})

    def test_same_attribute_same_key_across_users(self, ms):
        # derivation is deterministic; collusion caveat is documented
        a = make_key(ms, {"customs"}, holder=b"\x01" * 20)
        b = make_key(ms, {"customs"}, holder=b"\x02" * 20)
        assert a.attribute_keys == b.attribute_keys

    def test_empty_set_rejected(self, ms):
        with pytest.raises(abe.EmptyAttributeSet):
            make_key(ms, set())


class TestSliceRoundtrip:
    def test_full_attribute_set_decrypts(self, ms):
        rng = random.Random(2)
        for policy in ("x", IMPORT_DECLARATION, "(a and b) or (c and d)"):
            plaintext = rng.randbytes(rng.randrange(0, 200))
            ct = abe.encrypt_slice(ms, policy, plaintext, rng)
            key = make_key(ms, attributes_of(parse_policy(policy)))
            assert abe.decrypt_slice(key, ct) == plaintext

    @pytest.mark.parametrize("size", [0, 1, 100_000])
    def test_payload_sizes(self, ms, size):
        rng = random.Random(3)
        plaintext = rng.randbytes(size)
        ct = abe.encrypt_slice(ms, "a", plaintext, rng)
        assert abe.decrypt_slice(make_key(ms, {"a"}), ct) == plaintext

    def test_single_attribute_gatekeeping(self, ms):
        ct = abe.encrypt_slice(ms, "x", b"secret", random.Random(4))
        assert abe.decrypt_slice(make_key(ms, {"x"}), ct) == b"secret"
        with pytest.raises(abe.PolicyNotSatisfied):
            abe.decrypt_slice(make_key(ms, {"y"}), ct)

    def test_import_declaration_actors(self, ms):
        ct = abe.encrypt_slice(ms, IMPORT_DECLARATION, b"declaration",
                               random.Random(5))
        customs = make_key(ms, {"29837", "customs"})
        courier = make_key(ms, {"29837", "courier"})
        assert abe.decrypt_slice(customs, ct) == b"declaration"
        with pytest.raises(abe.PolicyNotSatisfied):
            abe.decrypt_slice(courier, ct)

    def test_transport_document_all_actors(self, ms):
        ct = abe.encrypt_slice(ms, TRANSPORT_DOCUMENT, b"transport",
                               random.Random(6))
        for role in ("economic_operator", "customs", "courier"):
            key = make_key(ms, {"29837", role})
            assert abe.decrypt_slice(key, ct) == b"transport"

    def test_policy_stored_canonically(self, ms):
        ct = abe.encrypt_slice(ms, "A AND (b OR c)", b"", random.Random(7))
        assert ct.policy_text == "(a and (b or c))"
        assert render_policy(parse_policy(ct.policy_text)) == ct.policy_text

    def test_decrypt_iff_satisfy_random_corpus(self, ms):
        rng = random.Random(8)
        for _ in range(30):
            ast = random_policy(rng, ATTRIBUTE_POOL, depth=3)
            ct = abe.encrypt_slice(ms, render_policy(ast), b"payload", rng)
            for subset in attribute_subsets(attributes_of(ast)):
                if not subset:
                    continue
                key = make_key(ms, subset)
                if evaluate(ast, subset):
                    assert abe.decrypt_slice(key, ct) == b"payload"
                else:
                    with pytest.raises(abe.PolicyNotSatisfied):
                        abe.decrypt_slice(key, ct)

    def test_key_minimality(self, ms):
        # on a minimal satisfying set, dropping any attribute flips the outcome
        rng = random.Random(9)
        for _ in range(20):
            ast = random_policy(rng, ATTRIBUTE_POOL[:4], depth=3)
            ct = abe.encrypt_slice(ms, render_policy(ast), b"m", rng)
            minimal = [s for s in attribute_subsets(attributes_of(ast))
                       if s and evaluate(ast, s)
                       and not any(evaluate(ast, s - {a}) for a in s)]
            for subset in minimal[:4]:
                assert abe.decrypt_slice(make_key(ms, subset), ct) == b"m"
                for attr in subset:
                    smaller = subset - {attr}
                    if not smaller:
                        continue
                    with pytest.raises(abe.PolicyNotSatisfied):
                        abe.decrypt_slice(make_key(ms, smaller), ct)

    def test_writer_not_in_policy_cannot_read_own_upload(self, ms):
        writer = make_key(ms, {"economic_operator"})
        ct = abe.encrypt_slice(ms, "(29837 and customs)", b"own upload",
                               random.Random(10))
        with pytest.raises(abe.PolicyNotSatisfied):
            abe.decrypt_slice(writer, ct)

    def test_nonces_come_from_one_draw(self, ms):
        class CountingRandom(random.Random):
            draws: list[int] = []

            def randbytes(self, n):
                self.draws.append(n)
                return super().randbytes(n)

        rng = CountingRandom(11)
        ct = abe.encrypt_slice(ms, TRANSPORT_DOCUMENT, b"payload", rng)
        nonces = [ws.nonce for ws in slice_fields(ct).shares] + [ct.payload_nonce]
        assert rng.draws == [abe.NONCE_BYTES * len(nonces)]
        assert all(len(n) == abe.NONCE_BYTES for n in nonces)
        assert len(set(nonces)) == len(nonces)
        assert abe.decrypt_slice(make_key(ms, {"29837", "courier"}), ct) == b"payload"


class TestIntegrity:
    def test_payload_bit_flips_detected(self, ms):
        rng = random.Random(11)
        ct = abe.encrypt_slice(ms, "a", b"short message", rng)
        key = make_key(ms, {"a"})
        for i in range(len(ct.payload)):
            for bit in range(8):
                broken = bytearray(ct.payload)
                broken[i] ^= 1 << bit
                mutated = replace(ct, payload=bytes(broken))
                with pytest.raises(abe.IntegrityFailure):
                    abe.decrypt_slice(key, mutated)

    def test_policy_text_mutation_detected(self, ms):
        ct = abe.encrypt_slice(ms, "(a or b)", b"m", random.Random(12))
        key = make_key(ms, {"a", "b"})
        # same leaves, different gate: shares still reconstruct, header fails
        mutated = reslice(ct, policy_text="(a and b)")
        with pytest.raises(abe.IntegrityFailure):
            abe.decrypt_slice(key, mutated)
        with pytest.raises(abe.IntegrityFailure):
            abe.decrypt_slice(key, reslice(ct, policy_text="(a or (b or b))"))
        with pytest.raises(abe.IntegrityFailure):
            abe.decrypt_slice(key, reslice(ct, policy_text="a or b"))  # non-canonical

    def test_wrapped_share_mutation_detected(self, ms):
        ct = abe.encrypt_slice(ms, "(a and b)", b"m", random.Random(13))
        key = make_key(ms, {"a", "b"})
        first, second = slice_fields(ct).shares
        broken = first._replace(wrapped=bytes(first.wrapped[:-1])
                                + bytes([first.wrapped[-1] ^ 1]))
        with pytest.raises(abe.IntegrityFailure):
            abe.decrypt_slice(key, reslice(ct, shares=(broken, second)))

    def test_every_serialized_byte_is_load_bearing(self, ms):
        # no single-byte corruption may ever yield wrong plaintext silently
        rng = random.Random(14)
        ct = abe.encrypt_slice(ms, "(a or b)", b"tamper target", rng)
        key = make_key(ms, {"a"})
        blob = abe.serialize_slice(ct)
        detectable = (abe.IntegrityFailure, abe.PolicyNotSatisfied,
                      CodecError, FieldDecodeError, ValueError)
        for i in range(len(blob)):
            broken = bytearray(blob)
            broken[i] ^= 0x01
            try:
                out = abe.decrypt_slice(key, parse_slice(bytes(broken)))
            except detectable:
                continue
            assert out == b"tamper target", f"silent corruption at byte {i}"

    def test_share_swap_between_slices_detected(self, ms):
        rng = random.Random(15)
        one = abe.encrypt_slice(ms, "a", b"one", rng)
        two = abe.encrypt_slice(ms, "a", b"two", rng)
        franken = reslice(one, shares=slice_fields(two).shares)
        with pytest.raises(abe.IntegrityFailure):
            abe.decrypt_slice(make_key(ms, {"a"}), franken)


class TestMinimalUnwrap:
    def test_opens_exactly_a_minimal_set(self, ms, aead_opens):
        # share opens = all AES-GCM opens minus the one payload open
        rng = random.Random(30)
        policies = 0
        while policies < 25:
            ast = random_policy(rng, ATTRIBUTE_POOL, depth=3)
            if len(tree_leaves(ast)) > 10:
                continue  # keep the exhaustive oracle cheap
            policies += 1
            ct = abe.encrypt_slice(ms, render_policy(ast), b"payload", rng)
            for subset in attribute_subsets(attributes_of(ast)):
                if not subset:
                    continue
                key = make_key(ms, subset)
                need = min_satisfying_size(ast, subset)
                aead_opens.clear()
                if evaluate(ast, subset):
                    assert abe.decrypt_slice(key, ct) == b"payload"
                    assert len(aead_opens) - 1 == need
                else:
                    assert need is None
                    with pytest.raises(abe.PolicyNotSatisfied):
                        abe.decrypt_slice(key, ct)
                    assert aead_opens == []

    def test_tampered_share_held_but_not_opened_detected(self, ms, aead_opens):
        ct = abe.encrypt_slice(ms, "(a or b)", b"m", random.Random(31))
        key = make_key(ms, {"a", "b"})
        first, second = slice_fields(ct).shares
        with pytest.raises(abe.IntegrityFailure):
            abe.decrypt_slice(key, reslice(ct, shares=(first, flip_last_byte(second))))
        # only share 1 and the payload were opened; the payload AEAD caught it
        assert len(aead_opens) == 2

    def test_unsatisfying_key_with_tampered_share_is_not_satisfied(self, ms):
        # such a reader could not rebuild the data key either way
        ct = abe.encrypt_slice(ms, "(a and b)", b"m", random.Random(32))
        first, second = slice_fields(ct).shares
        with pytest.raises(abe.PolicyNotSatisfied):
            abe.decrypt_slice(make_key(ms, {"a"}),
                              reslice(ct, shares=(flip_last_byte(first), second)))

    def test_bad_header_fails_every_read(self, ms):
        ct = abe.encrypt_slice(ms, "(a or b)", b"m", random.Random(33))
        for text in ("(a or", "a or b", "(a or b))"):
            bad = encode_slice(slice_fields(ct)._replace(policy_text=text))
            misses = abe._compiled_header.cache_info().misses
            for _ in range(3):  # no failure is memoized
                with pytest.raises(abe.IntegrityFailure):
                    parse_slice(bad)
            assert abe._compiled_header.cache_info().misses == misses + 3

    def test_share_list_checked_on_memo_hit(self, ms):
        ct = abe.encrypt_slice(ms, "(a or b)", b"m", random.Random(34))
        assert abe.decrypt_slice(make_key(ms, {"a", "b"}), ct) == b"m"
        fields = slice_fields(ct)
        swapped = encode_slice(fields._replace(shares=fields.shares[::-1]))
        cut = encode_slice(fields._replace(shares=fields.shares[:1]))
        abe._compiled_header(ct.policy_text)
        hits = abe._compiled_header.cache_info().hits
        for _ in range(2):
            with pytest.raises(abe.IntegrityFailure):
                parse_slice(swapped)
            with pytest.raises(CodecError):  # the canonical header runs past it
                parse_slice(cut)
        assert abe._compiled_header.cache_info().hits == hits + 4

    def test_memo_is_bounded(self):
        assert 0 < abe._compiled_header.cache_info().maxsize <= 256


class TestContainers:
    def test_single_slice_behaves_like_encrypt_slice(self, ms):
        rng = random.Random(16)
        container = abe.encrypt_container(
            ms, abe.new_message_id(rng), [("doc", "a", b"body")], rng)
        assert [label for label, _ in container.slices] == ["doc"]
        assert abe.decrypt_container(make_key(ms, {"a"}), container) == [("doc", b"body")]

    def test_partial_readability(self, ms):
        rng = random.Random(17)
        container = abe.encrypt_container(
            ms, abe.new_message_id(rng),
            [("first", "a", b"alpha"), ("second", "b", b"beta")], rng)
        assert abe.decrypt_container(make_key(ms, {"a"}), container) == [
            ("first", b"alpha"), ("second", None)]

    def test_brie_documents_one_container_each(self, ms):
        rng = random.Random(18)
        table = [
            ("transport_order", "(29837 and ((economic_operator) or (courier)))"),
            ("import_declaration", IMPORT_DECLARATION),
            ("declaration_of_conformity",
             "(29837 and ((customs) or (economic_operator) or (courier)))"),
            ("transport_document", TRANSPORT_DOCUMENT),
        ]
        customs = make_key(ms, {"29837", "customs"})
        readable = []
        for name, policy in table:
            container = abe.encrypt_container(
                ms, abe.new_message_id(rng), [(name, policy, name.encode())], rng)
            [(label, body)] = abe.decrypt_container(customs, container)
            readable.append(body is not None)
        assert readable == [False, True, True, True]

    def test_duplicate_labels_rejected(self, ms):
        with pytest.raises(abe.DuplicateLabel):
            abe.encrypt_container(ms, bytes(16),
                                  [("x", "a", b""), ("x", "b", b"")],
                                  random.Random(19))

    def test_empty_container_rejected(self, ms):
        with pytest.raises(abe.EmptyContainer):
            abe.encrypt_container(ms, bytes(16), [], random.Random(20))

    def test_a_parsed_container_with_no_slices_is_refused(self):
        empty = abe.serialize_container(abe.CiphertextContainer(bytes(16), ()))
        with pytest.raises(abe.EmptyContainer):
            abe.parse_container(empty)

    def test_a_parsed_container_with_a_repeated_label_is_refused(self, ms):
        ct = abe.encrypt_slice(ms, "a", b"body", random.Random(24))
        twice = abe.serialize_container(
            abe.CiphertextContainer(bytes(16), (("doc", ct), ("doc", ct))))
        with pytest.raises(abe.DuplicateLabel):
            abe.parse_container(twice)

    def test_message_id_length_checked(self, ms):
        with pytest.raises(ValueError):
            abe.encrypt_container(ms, b"short", [("x", "a", b"")],
                                  random.Random(21))

    @pytest.mark.parametrize("label", [
        "", ".", "..", "../escaped", "/etc/passwd", "a/b", "dir/", "nul\0byte"])
    def test_label_must_be_one_path_component(self, ms, label):
        with pytest.raises(abe.InvalidLabel):
            abe.encrypt_container(ms, bytes(16), [("ok", "a", b""), (label, "a", b"")],
                                  random.Random(22))

    @pytest.mark.parametrize("label", ["doc", "...", ".hidden", "a b", "x\\y", "ünïcode"])
    def test_single_component_labels_accepted(self, ms, label):
        container = abe.encrypt_container(ms, bytes(16), [(label, "a", b"body")],
                                          random.Random(23))
        assert abe.decrypt_container(make_key(ms, {"a"}), container) == [(label, b"body")]


class TestSerialization:
    def test_container_roundtrip_bit_exact(self, ms):
        rng = random.Random(22)
        container = abe.encrypt_container(
            ms, abe.new_message_id(rng),
            [("a-slice", "(a or b)", b"alpha"), ("b-slice", "c", b"")], rng)
        blob = abe.serialize_container(container)
        parsed = abe.parse_container(blob)
        assert parsed == container
        assert abe.serialize_container(parsed) == blob

    def test_slice_roundtrip(self, ms):
        ct = abe.encrypt_slice(ms, "(a and b)", b"zzz", random.Random(23))
        assert parse_slice(abe.serialize_slice(ct)) == ct

    def test_a_parsed_user_key_with_no_attributes_is_refused(self):
        blob = abe.serialize_user_key(abe.UserKey(HOLDER, {}, 0))
        with pytest.raises(abe.EmptyAttributeSet):
            abe.parse_user_key(blob)

    def test_user_key_roundtrip(self, ms):
        key = make_key(ms, {"courier", "29837"})
        parsed = abe.parse_user_key(abe.serialize_user_key(key))
        assert parsed == key

    def test_trailing_garbage_rejected(self, ms):
        ct = abe.encrypt_slice(ms, "a", b"x", random.Random(24))
        with pytest.raises(CodecError):
            parse_slice(abe.serialize_slice(ct) + b"\x00")

    def test_header_hash_ignores_payload_fields(self, ms):
        ct = abe.encrypt_slice(ms, "a", b"x", random.Random(25))
        assert abe.header_hash(ct) == abe.header_hash(replace(ct, payload=b"other",
                                                              payload_nonce=b""))

    def test_header_hash_is_the_digest_of_the_emptied_slice(self, ms):
        ct = abe.encrypt_slice(ms, "(a or b)", b"x", random.Random(26))
        emptied = abe.serialize_slice(replace(ct, payload=b"", payload_nonce=b""))
        assert abe.header_hash(ct) == hashlib.sha256(emptied).digest()
        assert abe.serialize_slice(ct).startswith(ct.header)
        assert emptied == ct.header + bytes(8)

    def test_serve_shaped_slices_are_pinned(self, ms):
        """Twenty 8-32 leaf policies of the data manager's benchmark shape,
        encrypted in turn with one seeded generator: the bytes are those of
        the encoder the header was once built with."""
        corpus = random.Random("serve-shaped corpus")
        rng = random.Random(7)
        digest = hashlib.sha256()
        for _ in range(20):
            policy = serve_shaped_policy(corpus, corpus.randint(8, 32))
            ct = abe.encrypt_slice(ms, policy, corpus.randbytes(corpus.randint(0, 512)), rng)
            digest.update(abe.serialize_slice(ct))
        assert digest.hexdigest() == \
            "fb4e2d9721694b320313319c1225e30a5854dbf4a1d7d8af6342676fcf1a8ead"

    @settings(max_examples=200, deadline=None)
    @given(containers)
    def test_container_roundtrip_keeps_canonical_headers(self, container):
        parsed = abe.parse_container(abe.serialize_container(container))
        assert parsed == container

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(asts)
    def test_encryption_writes_shares_where_the_memo_entry_reads_them(self, ast):
        ms = abe.setup(random.Random(48))
        ct = abe.encrypt_slice(ms, render_policy(ast), b"", random.Random(49))
        compiled = abe._compiled_header(ct.policy_text)
        shares = slice_fields(ct).shares
        assert compiled.leaves == tuple(ws.attribute for ws in shares)
        assert [abe._share_fields(ct.header, at) for at in compiled.nonces_at] == \
            [(ws.nonce, ws.wrapped) for ws in shares]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(texts, st.lists(wrapped_shares, max_size=5))
    def test_header_encoder_agrees_with_the_reference(self, policy_text, shares):
        header, nonces_at = abe._encode_header(policy_text, shares)
        assert header == encode_header(policy_text, shares)
        assert len(nonces_at) == len(shares)
        for at, (_, _, nonce, wrapped) in zip(nonces_at, shares):
            r = Reader(header[at:])
            assert (r.take_bytes(), r.take_bytes()) == (nonce, wrapped)

    def test_a_slice_is_built_from_its_bytes_only(self, ms):
        assert [f.name for f in dataclasses.fields(abe.SliceCiphertext)] == \
            ["header", "payload_nonce", "payload"]
        assert not hasattr(abe, "WrappedShare")
        ct = abe.encrypt_slice(ms, "(a or b)", b"m", random.Random(50))
        for name, value in (("policy_text", "(a and b)"),
                            ("wrapped_shares", slice_fields(ct).shares),
                            ("layout", abe._compiled_header(ct.policy_text).nonces_at)):
            with pytest.raises(TypeError):
                abe.SliceCiphertext(ct.header, ct.payload_nonce, ct.payload, **{name: value})
            with pytest.raises(TypeError):
                replace(ct, **{name: value})
        assert ct.policy_text == "(a or b)"

    def test_every_strict_prefix_is_a_codec_error(self, ms):
        rng = random.Random(27)
        container = abe.encrypt_container(
            ms, abe.new_message_id(rng),
            [("första", "(a or (b and c))", b"alpha"), ("second", "d", b"")], rng)
        blob = abe.serialize_container(container)
        for cut in range(len(blob)):
            with pytest.raises(CodecError):
                abe.parse_container(blob[:cut])
        with pytest.raises(CodecError):
            abe.parse_container(blob + b"\x00")
        one = abe.serialize_slice(container.slices[0][1])
        for cut in range(len(one)):
            with pytest.raises(CodecError):
                parse_slice(one[:cut])

    @pytest.mark.parametrize("field", ["label", "policy", "attribute"])
    def test_invalid_utf8_is_a_codec_error(self, ms, field):
        rng = random.Random(28)
        container = abe.encrypt_container(
            ms, abe.new_message_id(rng), [("label", "(policy or attribute)", b"m")], rng)
        blob = bytearray(abe.serialize_container(container))
        # the policy text holds both attributes, so the last "attribute" is
        # the second wrapped share's attribute field
        at = {"label": blob.find(b"label"), "policy": blob.find(b"(policy"),
              "attribute": blob.rfind(b"attribute")}[field]
        blob[at] = 0xFF
        if field == "attribute":  # compared, as bytes, with the canonical header
            with pytest.raises(abe.IntegrityFailure, match="canonical header"):
                abe.parse_container(bytes(blob))
        else:
            with pytest.raises(CodecError, match="utf-8"):
                abe.parse_container(bytes(blob))

    def test_tampering_with_a_parsed_header_detected(self, ms):
        ct = parse_slice(abe.serialize_slice(
            abe.encrypt_slice(ms, "(a or b)", b"m", random.Random(29))))
        key = make_key(ms, {"a", "b"})
        assert abe.decrypt_slice(key, ct) == b"m"
        for text in ("(a and b)", "(a or (b or b))", "a or b"):
            with pytest.raises(abe.IntegrityFailure):
                abe.decrypt_slice(key, reslice(ct, policy_text=text))
        first, second = slice_fields(ct).shares
        for shares in ((flip_last_byte(first), second), (first, flip_last_byte(second)),
                       (second, first)):
            with pytest.raises(abe.IntegrityFailure):
                abe.decrypt_slice(key, reslice(ct, shares=shares))


def header_digest(fields: SliceFields) -> bytes:
    """The SHA-256 of the slice's serialization with the payload fields emptied."""
    return hashlib.sha256(encode_slice(fields._replace(payload_nonce=b"", payload=b""))).digest()


def reference_parse_container(data: bytes) -> abe.CiphertextContainer:
    """``parse_container`` with each field taken with ``codec.Reader`` and
    each check made as it is read. Its slices are :class:`SliceFields`."""
    r = Reader(data)
    message_id = r.take_bytes()
    if len(message_id) != abe.MESSAGE_ID_BYTES:
        raise CodecError("message id must be 16 bytes")
    slices = []
    for _ in range(r.take_u32()):
        label = r.take_str()
        slices.append((label, reference_parse_slice(Reader(r.take_bytes()))))
    r.expect_end()
    if not slices:
        raise abe.EmptyContainer("container has no slices")
    if len({label for label, _ in slices}) != len(slices):
        raise abe.DuplicateLabel("duplicate slice label in container")
    return abe.CiphertextContainer(message_id, tuple(slices))


def reference_parse_slice(r: Reader) -> SliceFields:
    """The slice that fills the rest of ``r``, whose header must be its
    policy's canonical header outside its nonces and sealed shares: the
    policy text is taken and checked, then the bytes of the canonical header
    that follow it are taken raw, decoded and compared field by field with
    those the policy's tree calls for."""
    policy_text = r.take_str()
    leaves = tree_leaves(reference_compiled_header(policy_text))
    want = [(number, leaf.attribute, abe.NONCE_BYTES, SEALED_SHARE_BYTES)
            for number, leaf in enumerate(leaves, start=1)]
    rest = Reader(r.take_raw(4 + sum(4 + 4 + len(attribute.encode()) + 4 + nonce + 4 + sealed
                                     for _, attribute, nonce, sealed in want)))
    try:
        shares = tuple(WrappedShare(rest.take_u32(), rest.take_str(), rest.take_bytes(),
                                    rest.take_bytes()) for _ in range(rest.take_u32()))
        rest.expect_end()
    except CodecError as exc:
        raise abe.IntegrityFailure("not the canonical header") from exc
    if [(ws.leaf_index, ws.attribute, len(ws.nonce), len(ws.wrapped)) for ws in shares] != want:
        raise abe.IntegrityFailure("not the canonical header")
    fields = SliceFields(policy_text, shares, r.take_bytes(), r.take_bytes())
    r.expect_end()
    return fields


# An AES-GCM sealed 32-byte share: the share and its 16-byte tag.
SEALED_SHARE_BYTES = 32 + 16


@functools.lru_cache
def reference_compiled_header(policy_text: str):
    """The tree of a canonical policy header; memoized, as ``abe`` memoizes it."""
    try:
        ast = parse_policy(policy_text)
    except PolicyError as exc:
        raise abe.IntegrityFailure("unparseable policy header") from exc
    if render_policy(ast) != policy_text:
        raise abe.IntegrityFailure("policy header is not in canonical form")
    return ast


def reference_decrypt_slice(uk: abe.UserKey, ct: SliceFields) -> bytes:
    """``decrypt_slice`` as it was while it read the wrapped-share list of a
    slice the reference parse took: satisfiability, then the chosen shares'
    opens and the payload's."""
    tree = reference_compiled_header(ct.policy_text)
    chosen = min_satisfying_leaves(tree, uk.attribute_keys)
    if chosen is None:
        raise abe.PolicyNotSatisfied("attributes do not satisfy the policy")
    available = {}
    for leaf_index in chosen:
        ws = ct.shares[leaf_index - 1]
        aad = leaf_index.to_bytes(4, "big") + ws.attribute.encode()
        try:
            available[leaf_index] = decode_field(AESGCM(uk.attribute_keys[ws.attribute])
                                                 .decrypt(ws.nonce, ws.wrapped, aad))
        except (InvalidTag, FieldDecodeError) as exc:
            raise abe.IntegrityFailure("wrapped share failed authentication") from exc
    payload_key = hkdf_sha256(encode_field(reconstruct_tree(tree, available)),
                              b"cake/payload-key")
    try:
        return AESGCM(payload_key).decrypt(ct.payload_nonce, ct.payload, header_digest(ct))
    except InvalidTag as exc:
        raise abe.IntegrityFailure("payload or header authentication failed") from exc


def outcomes(parse, decrypt_slice, blob: bytes, keys) -> list:
    """The parse's exception class; or per key each slice's plaintext, None
    when the key does not satisfy its policy, or the exception class, and
    the message id and each slice's label and decoded fields."""
    try:
        container = parse(blob)
    except Exception as exc:
        return [type(exc)]
    results = []
    for key in keys:
        for label, ct in container.slices:
            try:
                results.append((label, decrypt_slice(key, ct)))
            except abe.PolicyNotSatisfied:
                results.append((label, None))
            except Exception as exc:
                results.append(type(exc))
    decoded = [(label, ct if isinstance(ct, SliceFields) else slice_fields(ct))
               for label, ct in container.slices]
    return [results, container.message_id, decoded]


# What a slice holds: its bytes, no share objects.
SLICE_FIELDS = {"header", "payload_nonce", "payload"}


def parse_holding_bytes_only(data: bytes) -> abe.CiphertextContainer:
    """``parse_container``, checking that each slice it returns holds only
    :data:`SLICE_FIELDS`."""
    container = abe.parse_container(data)
    for _, ct in container.slices:
        assert vars(ct).keys() == SLICE_FIELDS
    return container


class TestParseWithoutShareObjects:
    """Parsing keeps each slice's header bytes; decryption opens the chosen
    shares from those bytes. Both must agree with the parse and decrypt
    that built every wrapped share, on every input: the outcome for each
    key, and each slice's decoded fields."""

    @pytest.fixture
    def corpus(self, ms):
        # 1-, 16- and 64-leaf slices; the second container holds two slices.
        policies = random.Random("parse corpus")
        rng = random.Random(35)
        containers = [
            [("one", "tenant_acme", b"1")],
            [("sixteen", serve_shaped_policy(policies, 16), b"sixteen leaves"),
             ("again", "tenant_acme", b"")],
            [("sixty-four", serve_shaped_policy(policies, 64), rng.randbytes(40))],
        ]
        blobs = [abe.serialize_container(abe.encrypt_container(
            ms, abe.new_message_id(rng), slices, rng)) for slices in containers]
        # Every slice grants tenant_acme with audit and denies everything without it.
        keys = [make_key(ms, {"tenant_acme", "audit"}),
                make_key(ms, {"audit", *SERVE_ROLES})]
        return blobs, keys

    def test_every_flip_and_cut_agrees_with_the_eager_reference(self, corpus):
        blobs, keys = corpus
        for blob in blobs:
            mutants = [("intact", blob)]
            mutants += [(f"cut at {cut}", blob[:cut]) for cut in range(len(blob))]
            for i in range(len(blob)):
                # Odd bytes become another character, even ones break UTF-8.
                flipped = bytearray(blob)
                flipped[i] ^= 0x01 if i % 2 else 0x80
                mutants.append((f"byte {i} flipped", bytes(flipped)))
            for what, mutant in mutants:
                got = outcomes(parse_holding_bytes_only, abe.decrypt_slice, mutant, keys)
                want = outcomes(reference_parse_container, reference_decrypt_slice,
                                mutant, keys)
                assert got[0] == want[0], what  # an AssertionError of the parse shows here
                assert got[1:] == want[1:], what

    def test_decrypt_opens_only_the_chosen_shares_and_builds_none(self, ms, aead_opens):
        policy = serve_shaped_policy(random.Random("opens"), 64)
        ct = abe.encrypt_slice(ms, policy, b"payload", random.Random(36))
        parsed = parse_slice(abe.serialize_slice(ct))
        tree = parse_policy(policy)
        attributes = [leaf.attribute for leaf in tree_leaves(tree)]
        for attrs in ({"tenant_acme", "audit"}, {"tenant_acme", *SERVE_ROLES}):
            key = make_key(ms, attrs)
            aead_opens.clear()
            assert abe.decrypt_slice(key, parsed) == b"payload"
            chosen = min_satisfying_leaves(tree, attrs)
            assert aead_opens == [index.to_bytes(4, "big") + attributes[index - 1].encode()
                                  for index in chosen] + [abe.header_hash(ct)]
        aead_opens.clear()
        with pytest.raises(abe.PolicyNotSatisfied):
            abe.decrypt_slice(make_key(ms, {"audit", *SERVE_ROLES}), parsed)
        assert aead_opens == []
        assert vars(parsed).keys() == SLICE_FIELDS
        assert slice_fields(parsed) == slice_fields(ct)
        assert parsed == ct and replace(parsed) == ct


def sixteen_byte_nonce(ms, ct: abe.SliceCiphertext, position: int) -> bytes:
    """The bytes of ``ct`` with the share at ``position`` wrapped again under
    a 16-byte nonce and the payload sealed again under the new header: a
    slice that opens, but whose field lengths are not the canonical ones."""
    fields = slice_fields(ct)
    tree = parse_policy(fields.policy_text)
    shares = list(fields.shares)
    values = {}
    for i, ws in enumerate(shares):
        aead = AESGCM(abe.attribute_wrap_key(ms, ws.attribute))
        aad = ws.leaf_index.to_bytes(4, "big") + ws.attribute.encode()
        raw = aead.decrypt(ws.nonce, ws.wrapped, aad)
        values[ws.leaf_index] = decode_field(raw)
        if i == position:
            nonce = ws.nonce + bytes(4)
            shares[i] = ws._replace(nonce=nonce, wrapped=aead.encrypt(nonce, raw, aad))
    payload_key = hkdf_sha256(encode_field(reconstruct_tree(tree, values)), b"cake/payload-key")
    plaintext = AESGCM(payload_key).decrypt(ct.payload_nonce, ct.payload, header_digest(fields))
    resealed = fields._replace(shares=tuple(shares))
    return encode_slice(resealed._replace(payload=AESGCM(payload_key).encrypt(
        ct.payload_nonce, plaintext, header_digest(resealed))))


class TestHeaderSkeleton:
    """A header is taken only when it is its policy's canonical header,
    outside its nonces and sealed shares; every other header fails the
    parse, with the outcome of the reference parse."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(asts)
    def test_honest_headers_take_the_fast_path(self, ast):
        ms = abe.setup(random.Random(40))
        rng = random.Random(41)
        ct = abe.encrypt_slice(ms, render_policy(ast), rng.randbytes(8), rng)
        assert parse_slice(abe.serialize_slice(ct)) == ct
        # inside a container, at an offset
        container = abe.CiphertextContainer(bytes(16), (("first", ct), ("second", ct)))
        parsed = abe.parse_container(abe.serialize_container(container))
        assert [got for _, got in parsed.slices] == [ct, ct]

    def test_other_field_lengths_fail_the_parse(self, ms):
        rng = random.Random(42)
        policies = ["tenant_acme", "(a or b)", serve_shaped_policy(random.Random(43), 16)]
        keys = [make_key(ms, {"tenant_acme", "audit", "a"}), make_key(ms, {"b"}),
                make_key(ms, {"tenant_acme", *SERVE_ROLES})]
        for policy in policies:
            ct = abe.encrypt_slice(ms, policy, b"sixteen", rng)
            count = len(slice_fields(ct).shares)
            for position in sorted({0, count // 2, count - 1}):
                shares = list(slice_fields(ct).shares)
                shares[position] = shares[position]._replace(
                    wrapped=shares[position].wrapped + b"\0")
                # a slice that opens, written with a 16-byte nonce
                valid = sixteen_byte_nonce(ms, ct, position)
                for odd in (valid, encode_slice(slice_fields(ct)._replace(shares=tuple(shares)))):
                    with pytest.raises(abe.IntegrityFailure):
                        parse_slice(odd)
                    blob = container_of(odd)
                    assert outcomes(abe.parse_container, abe.decrypt_slice, blob, keys) == \
                        outcomes(reference_parse_container, reference_decrypt_slice,
                                 blob, keys) == [abe.IntegrityFailure]

    @pytest.mark.parametrize("length", [4, 7, 129])
    def test_a_chosen_share_with_another_nonce_length_fails_the_parse(self, ms, length):
        ct = abe.encrypt_slice(ms, "(a or b)", b"m", random.Random(37))
        fields = slice_fields(ct)
        first, second = fields.shares
        odd = encode_slice(fields._replace(shares=(first._replace(nonce=bytes(length)), second)))
        with pytest.raises(abe.IntegrityFailure):
            parse_slice(odd)
        assert outcomes(abe.parse_container, abe.decrypt_slice, container_of(odd),
                        [make_key(ms, {"a"})]) == [abe.IntegrityFailure]

    # One level past the bound is a header an encoder without the bound
    # wrote and read; 1,200 levels is one it could not write.
    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1200])
    def test_a_header_nested_past_the_bound_fails_the_parse(self, ms, depth):
        ct = abe.encrypt_slice(ms, "(a or b)", b"m", random.Random(38))
        deep = encode_slice(slice_fields(ct)._replace(policy_text=nested_policy(depth)))
        with pytest.raises(abe.IntegrityFailure, match="nested deeper"):
            parse_slice(deep)
        assert outcomes(abe.parse_container, abe.decrypt_slice, container_of(deep),
                        [make_key(ms, {"a", "b"})]) == [abe.IntegrityFailure]

    def test_a_header_past_the_end_is_not_matched(self, ms):
        ct = abe.encrypt_slice(ms, "(a or (b and c))", b"m", random.Random(44))
        data = abe.serialize_slice(ct) + bytes(64)
        assert abe._parse_slice(data, 0, len(data) - 64) == ct
        header_end = len(ct.header)
        for end in (header_end - 1, header_end - abe.NONCE_BYTES):
            with pytest.raises(CodecError):
                abe._parse_slice(data, 0, end)

    def test_a_bad_policy_header_fails_the_parse(self, ms):
        ct = abe.encrypt_slice(ms, "(a or b)", b"m", random.Random(45))
        # does not parse; is not canonical; is canonical, with other leaves
        for text in ("(a or", "a or b", "(b or a)"):
            data = encode_slice(slice_fields(ct)._replace(policy_text=text))
            with pytest.raises(abe.IntegrityFailure):
                parse_slice(data)


def container_of(slice_bytes: bytes) -> bytes:
    """A one-slice container holding these slice bytes, labelled ``odd``."""
    w = Writer()
    w.put_bytes(bytes(16))
    w.put_u32(1)
    w.put_str("odd")
    w.put_bytes(slice_bytes)
    return w.getvalue()


def chosen_leaves(compiled, attrs) -> tuple[int, ...]:
    """The leaf numbers of :func:`abe._choose`'s answer, in its order."""
    return tuple(number for number, _ in abe._choose(compiled, attrs))


def weighted(tree, numbers) -> tuple[tuple[int, int], ...]:
    """The memo value :func:`abe._choose` keeps for the chosen ``numbers``:
    each with its :func:`leaf_weights` weight, in the given order."""
    weights = leaf_weights(tree, set(numbers)) or {}
    return tuple((number, weights[number]) for number in numbers)


class TestSatisfiabilityMemo:
    def test_memoized_choice_is_min_satisfying_leaves(self):
        rng = random.Random(46)
        for _ in range(40):
            tree = random_policy(rng, ATTRIBUTE_POOL, depth=3)
            compiled = abe._compiled_header(render_policy(tree))
            compiled.choices.clear()
            for _ in range(12):
                attrs = set(rng.sample(ATTRIBUTE_POOL + ["x7", "y8"], rng.randint(0, 8)))
                want = tuple(min_satisfying_leaves(tree, attrs) or ())
                for _ in range(2):  # computed, then read from the memo
                    assert abe._choose(compiled, dict.fromkeys(attrs)) == \
                        weighted(tree, want)

    def test_keys_with_different_policy_attributes_get_different_answers(self, ms):
        ct = abe.encrypt_slice(ms, "(a or (b and c))", b"m", random.Random(47))
        compiled = abe._compiled_header(ct.policy_text)
        compiled.choices.clear()
        assert chosen_leaves(compiled, {"z": b""}) == ()
        assert chosen_leaves(compiled, {"a": b""}) == (1,)
        assert chosen_leaves(compiled, {"b": b"", "c": b""}) == (2, 3)
        assert chosen_leaves(compiled, {"b": b""}) == ()
        # attributes outside the policy do not make a new pattern
        assert chosen_leaves(compiled, {"a": b"", "z": b""}) == (1,)
        assert len(compiled.choices) == 4
        # an Or passes its weight through; a 2-of-2 And weighs its children
        # 2/(2-1) = 2 and 1/(1-2) = -1
        assert abe._choose(compiled, {"a": b""}) == ((1, 1),)
        assert abe._choose(compiled, {"b": b"", "c": b""}) == ((2, 2), (3, PRIME - 1))
        for attrs, outcome in (({"z"}, None), ({"b", "c"}, b"m"), ({"a"}, b"m"),
                               ({"b"}, None)):
            key = make_key(ms, attrs)
            if outcome is None:
                with pytest.raises(abe.PolicyNotSatisfied):
                    abe.decrypt_slice(key, ct)
            else:
                assert abe.decrypt_slice(key, ct) == outcome

    # 7 attributes, 128 patterns of held attributes: twice the memo's bound
    NAMES = [f"r{i}" for i in range(7)]
    POLICY = "(" + " or ".join(f"(r0 and {name})" for name in NAMES[1:]) + ")"

    def answers(self):
        tree = parse_policy(self.POLICY)
        return {subset: weighted(tree, min_satisfying_leaves(tree, subset) or ())
                for subset in attribute_subsets(frozenset(self.NAMES))}

    def test_memo_per_entry_is_bounded(self):
        compiled = abe._compiled_header(render_policy(parse_policy(self.POLICY)))
        for subset, want in self.answers().items():
            assert abe._choose(compiled, dict.fromkeys(subset)) == want
            assert len(compiled.choices) <= abe._CHOICE_MEMO_SIZE

    def test_concurrent_readers_get_right_answers_from_a_bounded_memo(self):
        compiled = abe._compiled_header(render_policy(parse_policy(self.POLICY)))
        answers = list(self.answers().items())
        wrong, sizes = [], []

        def reader(offset):
            for subset, want in answers[offset:] + answers[:offset]:
                if abe._choose(compiled, dict.fromkeys(subset)) != want:
                    wrong.append(subset)
                sizes.append(len(compiled.choices))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(37 * i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(sizes) == 4 * len(answers) and max(sizes) <= abe._CHOICE_MEMO_SIZE


class TestMessageIds:
    def test_size_and_uniqueness(self):
        rng = random.Random(26)
        ids = {abe.new_message_id(rng) for _ in range(1000)}
        assert len(ids) == 1000
        assert all(len(i) == 16 for i in ids)
