import functools
import hashlib
import random
from dataclasses import replace

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptography.exceptions import InvalidTag

from cake import abe
from cake.codec import CodecError, Reader
from cake.policy import (
    PolicyError,
    attributes_of,
    compile_policy,
    evaluate,
    min_satisfying_leaves,
    parse_policy,
    render_policy,
    tree_leaves,
)
from cake.sss import FieldDecodeError, decode_field, encode_field, reconstruct_tree
from helpers import (
    ATTRIBUTE_POOL,
    SERVE_ROLES,
    attribute_subsets,
    hkdf_sha256,
    min_satisfying_size,
    random_policy,
    serve_shaped_policy,
)

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


# Containers with arbitrary field values: parsing checks the encoding only,
# never that a policy parses or a share opens.
texts = st.text(max_size=12)
wrapped_shares = st.builds(abe.WrappedShare, st.integers(0, 2**32 - 1), texts,
                           st.binary(max_size=16), st.binary(max_size=64))
slice_ciphertexts = st.builds(
    abe.SliceCiphertext, texts, st.lists(wrapped_shares, max_size=5).map(tuple),
    st.binary(max_size=16), st.binary(max_size=64))
containers = st.builds(
    abe.CiphertextContainer, st.binary(min_size=16, max_size=16),
    st.lists(st.tuples(texts, slice_ciphertexts), min_size=1, max_size=4,
             unique_by=lambda entry: entry[0]).map(tuple))


def make_key(ms, attrs, holder=HOLDER):
    return abe.keygen(ms, holder, frozenset(attrs), issued_at=0)


def flip_last_byte(ws: abe.WrappedShare) -> abe.WrappedShare:
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


class TestSetup:
    def test_root_key_length(self, ms):
        assert len(ms.root_key) == 32

    def test_seed_determinism(self):
        assert abe.setup(random.Random(5)) == abe.setup(random.Random(5))
        assert abe.setup(random.Random(5)) != abe.setup(random.Random(6))


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
        nonces = [ws.nonce for ws in ct.wrapped_shares] + [ct.payload_nonce]
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
        mutated = replace(ct, policy_text="(a and b)")
        with pytest.raises(abe.IntegrityFailure):
            abe.decrypt_slice(key, mutated)
        with pytest.raises(abe.IntegrityFailure):
            abe.decrypt_slice(key, replace(ct, policy_text="(a or (b or b))"))
        with pytest.raises(abe.IntegrityFailure):
            abe.decrypt_slice(key, replace(ct, policy_text="a or b"))  # non-canonical

    def test_wrapped_share_mutation_detected(self, ms):
        ct = abe.encrypt_slice(ms, "(a and b)", b"m", random.Random(13))
        key = make_key(ms, {"a", "b"})
        first, second = ct.wrapped_shares
        broken = first._replace(wrapped=bytes(first.wrapped[:-1])
                                + bytes([first.wrapped[-1] ^ 1]))
        with pytest.raises(abe.IntegrityFailure):
            abe.decrypt_slice(key, replace(ct, wrapped_shares=(broken, second)))

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
                out = abe.decrypt_slice(key, abe.parse_slice(bytes(broken)))
            except detectable:
                continue
            assert out == b"tamper target", f"silent corruption at byte {i}"

    def test_share_swap_between_slices_detected(self, ms):
        rng = random.Random(15)
        one = abe.encrypt_slice(ms, "a", b"one", rng)
        two = abe.encrypt_slice(ms, "a", b"two", rng)
        franken = replace(one, wrapped_shares=two.wrapped_shares)
        with pytest.raises(abe.IntegrityFailure):
            abe.decrypt_slice(make_key(ms, {"a"}), franken)


class TestMinimalUnwrap:
    def test_opens_exactly_a_minimal_set(self, ms, aead_opens):
        # share opens = all AES-GCM opens minus the one payload open
        rng = random.Random(30)
        policies = 0
        while policies < 25:
            ast = random_policy(rng, ATTRIBUTE_POOL, depth=3)
            tree = compile_policy(ast)
            if len(list(tree_leaves(tree))) > 10:
                continue  # keep the exhaustive oracle cheap
            policies += 1
            ct = abe.encrypt_slice(ms, render_policy(ast), b"payload", rng)
            for subset in attribute_subsets(attributes_of(ast)):
                if not subset:
                    continue
                key = make_key(ms, subset)
                need = min_satisfying_size(tree, subset)
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
        first, second = ct.wrapped_shares
        with pytest.raises(abe.IntegrityFailure):
            abe.decrypt_slice(key, replace(ct, wrapped_shares=(first, flip_last_byte(second))))
        # only share 1 and the payload were opened; the payload AEAD caught it
        assert len(aead_opens) == 2

    def test_unsatisfying_key_with_tampered_share_is_not_satisfied(self, ms):
        # such a reader could not rebuild the data key either way
        ct = abe.encrypt_slice(ms, "(a and b)", b"m", random.Random(32))
        first, second = ct.wrapped_shares
        with pytest.raises(abe.PolicyNotSatisfied):
            abe.decrypt_slice(make_key(ms, {"a"}),
                              replace(ct, wrapped_shares=(flip_last_byte(first), second)))

    def test_bad_header_fails_every_read(self, ms):
        ct = abe.encrypt_slice(ms, "(a or b)", b"m", random.Random(33))
        key = make_key(ms, {"a", "b"})
        for text in ("(a or", "a or b", "(a or b))"):
            misses = abe._compiled_header.cache_info().misses
            for _ in range(3):
                with pytest.raises(abe.IntegrityFailure):
                    abe.decrypt_slice(key, replace(ct, policy_text=text))
            assert abe._compiled_header.cache_info().misses == misses + 3

    def test_share_list_checked_on_memo_hit(self, ms):
        ct = abe.encrypt_slice(ms, "(a or b)", b"m", random.Random(34))
        key = make_key(ms, {"a", "b"})
        assert abe.decrypt_slice(key, ct) == b"m"
        hits = abe._compiled_header.cache_info().hits
        with pytest.raises(abe.IntegrityFailure):
            abe.decrypt_slice(key, replace(ct, wrapped_shares=ct.wrapped_shares[::-1]))
        with pytest.raises(abe.IntegrityFailure):
            abe.decrypt_slice(key, replace(ct, wrapped_shares=ct.wrapped_shares[:1]))
        assert abe._compiled_header.cache_info().hits == hits + 2

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
        assert abe.parse_slice(abe.serialize_slice(ct)) == ct

    def test_user_key_roundtrip(self, ms):
        key = make_key(ms, {"courier", "29837"})
        parsed = abe.parse_user_key(abe.serialize_user_key(key))
        assert parsed == key

    def test_trailing_garbage_rejected(self, ms):
        ct = abe.encrypt_slice(ms, "a", b"x", random.Random(24))
        with pytest.raises(CodecError):
            abe.parse_slice(abe.serialize_slice(ct) + b"\x00")

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
        encrypted in turn with one seeded generator: the bytes, and the
        header that encryption builds as it wraps, are those of the
        encoder the header was once built with."""
        corpus = random.Random("serve-shaped corpus")
        rng = random.Random(7)
        digest = hashlib.sha256()
        for _ in range(20):
            policy = serve_shaped_policy(corpus, corpus.randint(8, 32))
            ct = abe.encrypt_slice(ms, policy, corpus.randbytes(corpus.randint(0, 512)), rng)
            assert ct.header == replace(ct).header
            digest.update(abe.serialize_slice(ct))
        assert digest.hexdigest() == \
            "fb4e2d9721694b320313319c1225e30a5854dbf4a1d7d8af6342676fcf1a8ead"

    @settings(max_examples=200, deadline=None)
    @given(containers)
    def test_container_roundtrip_keeps_canonical_headers(self, container):
        parsed = abe.parse_container(abe.serialize_container(container))
        assert parsed == container
        for _, ct in parsed.slices:
            # replace() builds a new object, which encodes its header from its fields
            assert ct.header == replace(ct).header

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
                abe.parse_slice(one[:cut])

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
        with pytest.raises(CodecError, match="utf-8"):
            abe.parse_container(bytes(blob))

    def test_tampering_with_a_parsed_header_detected(self, ms):
        ct = abe.parse_slice(abe.serialize_slice(
            abe.encrypt_slice(ms, "(a or b)", b"m", random.Random(29))))
        key = make_key(ms, {"a", "b"})
        assert abe.decrypt_slice(key, ct) == b"m"
        for text in ("(a and b)", "(a or (b or b))", "a or b"):
            with pytest.raises(abe.IntegrityFailure):
                abe.decrypt_slice(key, replace(ct, policy_text=text))
        first, second = ct.wrapped_shares
        for shares in ((flip_last_byte(first), second), (first, flip_last_byte(second)),
                       (second, first)):
            with pytest.raises(abe.IntegrityFailure):
                abe.decrypt_slice(key, replace(ct, wrapped_shares=shares))


def reference_parse_container(data: bytes) -> abe.CiphertextContainer:
    """``parse_container`` as it was while parsing built every wrapped share:
    each field taken with ``codec.Reader``, each check made as it is read."""
    r = Reader(data)
    message_id = r.take_bytes()
    if len(message_id) != abe.MESSAGE_ID_BYTES:
        raise CodecError("message id must be 16 bytes")
    slices = []
    for _ in range(r.take_u32()):
        label = r.take_str()
        s = Reader(r.take_bytes())
        policy_text = s.take_str()
        shares = tuple(abe.WrappedShare(s.take_u32(), s.take_str(), s.take_bytes(),
                                        s.take_bytes()) for _ in range(s.take_u32()))
        payload_nonce, payload = s.take_bytes(), s.take_bytes()
        s.expect_end()
        slices.append((label, abe.SliceCiphertext(policy_text, shares, payload_nonce, payload)))
    r.expect_end()
    if not slices:
        raise abe.EmptyContainer("container has no slices")
    if len({label for label, _ in slices}) != len(slices):
        raise abe.DuplicateLabel("duplicate slice label in container")
    return abe.CiphertextContainer(message_id, tuple(slices))


@functools.lru_cache
def reference_compiled_header(policy_text: str):
    """The tree of a canonical policy header; memoized, as ``abe`` memoizes it."""
    try:
        ast = parse_policy(policy_text)
    except PolicyError as exc:
        raise abe.IntegrityFailure("unparseable policy header") from exc
    if render_policy(ast) != policy_text:
        raise abe.IntegrityFailure("policy header is not in canonical form")
    return compile_policy(ast)


def reference_decrypt_slice(uk: abe.UserKey, ct: abe.SliceCiphertext) -> bytes:
    """``decrypt_slice`` as it was while it read the wrapped-share list: the
    header checks, then the list against the tree, then satisfiability, then
    the chosen shares' opens and the payload's."""
    tree = reference_compiled_header(ct.policy_text)
    if [(ws.leaf_index, ws.attribute) for ws in ct.wrapped_shares] \
            != list(enumerate((leaf.attribute for leaf in tree_leaves(tree)), start=1)):
        raise abe.IntegrityFailure("wrapped shares do not match the policy tree")
    chosen = min_satisfying_leaves(tree, uk.attribute_keys)
    if chosen is None:
        raise abe.PolicyNotSatisfied("attributes do not satisfy the policy")
    available = {}
    for leaf_index in chosen:
        ws = ct.wrapped_shares[leaf_index - 1]
        aad = leaf_index.to_bytes(4, "big") + ws.attribute.encode()
        try:
            available[leaf_index] = decode_field(AESGCM(uk.attribute_keys[ws.attribute])
                                                 .decrypt(ws.nonce, ws.wrapped, aad))
        except (InvalidTag, FieldDecodeError) as exc:
            raise abe.IntegrityFailure("wrapped share failed authentication") from exc
    payload_key = hkdf_sha256(encode_field(reconstruct_tree(tree, available)),
                              b"cake/payload-key")
    try:
        # ``ct`` was built by its constructor, so its header is encoded from
        # its wrapped shares.
        return AESGCM(payload_key).decrypt(ct.payload_nonce, ct.payload, abe.header_hash(ct))
    except InvalidTag as exc:
        raise abe.IntegrityFailure("payload or header authentication failed") from exc


def outcomes(parse, decrypt_slice, blob: bytes, keys) -> list:
    """The parse's exception class, or per key each slice's plaintext, None
    when the key does not satisfy its policy, or the exception class."""
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
    return [results, container]


class TestParseWithoutShareObjects:
    """Parsing keeps each slice's header bytes and share layout; decryption
    opens the chosen shares from those bytes. Both must agree with the
    parse and decrypt that built every wrapped share, on every input."""

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
                got = outcomes(abe.parse_container, abe.decrypt_slice, mutant, keys)
                want = outcomes(reference_parse_container, reference_decrypt_slice,
                                mutant, keys)
                assert got[0] == want[0], what
                if len(got) == 2:
                    for _, ct in got[1].slices:
                        assert "wrapped_shares" not in ct.__dict__
                    assert got[1] == want[1]  # builds the shares from the header

    def test_decrypt_opens_only_the_chosen_shares_and_builds_none(self, ms, aead_opens):
        policy = serve_shaped_policy(random.Random("opens"), 64)
        ct = abe.encrypt_slice(ms, policy, b"payload", random.Random(36))
        parsed = abe.parse_slice(abe.serialize_slice(ct))
        tree = compile_policy(parse_policy(policy))
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
        assert "wrapped_shares" not in parsed.__dict__
        assert parsed.wrapped_shares == ct.wrapped_shares
        assert parsed == ct and replace(parsed) == ct


class TestMessageIds:
    def test_size_and_uniqueness(self):
        rng = random.Random(26)
        ids = {abe.new_message_id(rng) for _ in range(1000)}
        assert len(ids) == 1000
        assert all(len(i) == 16 for i in ids)
