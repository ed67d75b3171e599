import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cake.policy import (
    attributes_of,
    evaluate,
    min_satisfying_leaves,
    parse_policy,
    tree_leaves,
)
from cake.sss import (
    PRIME,
    DuplicateIndex,
    FieldDecodeError,
    InvalidThreshold,
    Share,
    decode_field,
    encode_field,
    reconstruct,
    reconstruct_tree,
    share,
    share_tree,
)
from helpers import ATTRIBUTE_POOL, attribute_subsets, random_policy, reference_share_tree

TRANSPORT_DOCUMENT = "(29837 and ((economic_operator) or (customs) or (courier)))"


class TestShare:
    def test_one_of_one_is_the_secret(self):
        rng = random.Random(1)
        secret = rng.randrange(PRIME)
        (only,) = share(secret, 1, 1, rng)
        assert only == Share(1, secret)

    def test_one_of_three_duplicates_the_secret(self):
        rng = random.Random(2)
        secret = rng.randrange(PRIME)
        assert [s.value for s in share(secret, 1, 3, rng)] == [secret] * 3

    def test_two_of_three_matches_direct_polynomial_evaluation(self):
        # oracle: replay the documented coefficient draw (c1..c(t-1) via
        # randrange, in order) and evaluate f(x) = secret + c1*x directly
        secret = 123456789
        shares = share(secret, 2, 3, random.Random(99))
        oracle_rng = random.Random(99)
        c1 = oracle_rng.randrange(PRIME)
        expected = [(secret + c1 * x) % PRIME for x in (1, 2, 3)]
        assert [s.value for s in shares] == expected
        assert [s.index for s in shares] == [1, 2, 3]

    def test_threshold_validation(self):
        rng = random.Random(0)
        with pytest.raises(InvalidThreshold):
            share(1, 0, 3, rng)
        with pytest.raises(InvalidThreshold):
            share(1, 4, 3, rng)

    def test_seeded_determinism(self):
        a = share(42, 3, 5, random.Random(7))
        b = share(42, 3, 5, random.Random(7))
        assert a == b


class TestReconstruct:
    def test_single_share_roundtrip(self):
        rng = random.Random(3)
        for secret in (0, 1, PRIME - 1, rng.randrange(PRIME)):
            assert reconstruct(share(secret, 1, 1, rng)) == secret

    def test_zero_secret_any_pair(self):
        shares = share(0, 2, 3, random.Random(4))
        for pair in combinations(shares, 2):
            assert reconstruct(list(pair)) == 0

    def test_three_of_five_exhaustive(self):
        rng = random.Random(5)
        secret = rng.randrange(1, PRIME)
        shares = share(secret, 3, 5, rng)
        for trio in combinations(shares, 3):
            assert reconstruct(list(trio)) == secret
        for pair in combinations(shares, 2):
            assert reconstruct(list(pair)) != secret

    def test_all_small_parameters_exhaustive(self):
        rng = random.Random(6)
        for n in range(1, 6):
            for t in range(1, n + 1):
                secret = rng.randrange(1, PRIME)
                shares = share(secret, t, n, rng)
                for size in range(t, n + 1):
                    for subset in combinations(shares, size):
                        assert reconstruct(list(subset)) == secret
                for subset in combinations(shares, t - 1):
                    assert reconstruct(list(subset)) != secret

    def test_duplicate_index_rejected(self):
        with pytest.raises(DuplicateIndex):
            reconstruct([Share(1, 5), Share(1, 6)])

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=PRIME - 1),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=5),
           st.randoms(use_true_random=False))
    def test_property_roundtrip(self, secret, t, extra, pyrandom):
        n = t + extra
        shares = share(secret, t, n, random.Random(pyrandom.getrandbits(64)))
        picked = pyrandom.sample(shares, t)
        assert reconstruct(picked) == secret


class TestShareTree:
    def test_leaf_only_tree(self):
        tree = parse_policy("a")
        assert share_tree(tree, 77, random.Random(0)) == {1: 77}

    def test_one_of_two_duplicates_secret(self):
        tree = parse_policy("a or b")
        values = share_tree(tree, 99, random.Random(0))
        assert values == {1: 99, 2: 99}

    def test_transport_document_subsets(self):
        # enumerated against the tree-threshold rule: leaf 1 is mandatory
        # (2-of-2 root), any one of leaves 2..4 completes it
        tree = parse_policy(TRANSPORT_DOCUMENT)
        rng = random.Random(8)
        secret = rng.randrange(PRIME)
        values = share_tree(tree, secret, rng)
        ok = reconstruct_tree(tree, {1: values[1], 4: values[4]})
        assert ok == secret
        assert reconstruct_tree(tree, {4: values[4], 3: values[3]}) is None

    def test_seeded_determinism(self):
        tree = parse_policy("(a and b) or (c and d)")
        a = share_tree(tree, 123, random.Random(11))
        b = share_tree(tree, 123, random.Random(11))
        assert a == b


    def test_draws_and_values_match_sharing_gate_by_gate(self):
        # Gates up to 5-of-5, so the order of several coefficients shows.
        rng = random.Random(14)
        for _ in range(60):
            tree = random_policy(rng, ATTRIBUTE_POOL, depth=3, max_fanout=5)
            secret = rng.randrange(PRIME)
            seed = rng.getrandbits(64)
            ours, theirs = random.Random(seed), random.Random(seed)
            values = share_tree(tree, secret, ours)
            assert values == reference_share_tree(tree, secret, theirs)
            assert list(values) == sorted(values)
            assert ours.getstate() == theirs.getstate()


class TestReconstructTree:
    def test_full_map_recovers_everywhere(self):
        rng = random.Random(12)
        for _ in range(40):
            tree = random_policy(rng, ATTRIBUTE_POOL, depth=3)
            secret = rng.randrange(PRIME)
            values = share_tree(tree, secret, rng)
            assert reconstruct_tree(tree, values) == secret

    def test_empty_map_is_unsatisfied(self):
        tree = parse_policy("a and b")
        assert reconstruct_tree(tree, {}) is None

    def test_access_structure_equivalence(self):
        # success on the leaves induced by an attribute subset must match
        # the policy's truth table on that subset
        rng = random.Random(13)
        for _ in range(50):
            tree = random_policy(rng, ATTRIBUTE_POOL, depth=4)
            secret = rng.randrange(1, PRIME)
            values = share_tree(tree, secret, rng)
            for subset in attribute_subsets(attributes_of(tree)):
                held = {number: values[number]
                        for number, leaf in enumerate(tree_leaves(tree), start=1)
                        if leaf.attribute in subset}
                got = reconstruct_tree(tree, held)
                if evaluate(tree, subset):
                    assert got == secret
                else:
                    assert got is None


class TestLeafNumbering:
    """Leaves after an Or gate that its first child satisfied keep their
    numbers: sharing, choosing and reconstructing count every leaf."""

    @pytest.mark.parametrize("policy, held, chosen", [
        ("((a or (b and c)) and d)", {"a", "d"}, [1, 4]),
        ("((a or b) and (c or d))", {"b", "c"}, [2, 3]),
    ])
    def test_chosen_leaves_reconstruct(self, policy, held, chosen):
        tree = parse_policy(policy)
        assert min_satisfying_leaves(tree, held) == chosen
        values = share_tree(tree, 1234, random.Random(3))
        assert reconstruct_tree(tree, {n: values[n] for n in chosen}) == 1234
        assert reconstruct_tree(tree, {n: values[n] for n in chosen[:-1]}) is None

    def test_a_held_set_past_the_minimum_uses_the_lowest_positions(self):
        tree = parse_policy("((a or b) and (c or d))")
        values = share_tree(tree, 1234, random.Random(4))
        # Leaves 2 and 4 are spoiled; the Or gates take positions 1 and 3.
        assert reconstruct_tree(tree, {1: values[1], 2: 0, 3: values[3], 4: 0}) == 1234
        assert reconstruct_tree(tree, {1: 0, 2: values[2], 3: values[3], 4: values[4]}) != 1234


class TestFieldCodec:
    def test_roundtrip(self):
        rng = random.Random(14)
        for value in (0, 1, PRIME - 1, rng.randrange(PRIME)):
            encoded = encode_field(value)
            assert len(encoded) == 32
            assert decode_field(encoded) == value

    def test_little_endian_layout(self):
        assert encode_field(1) == b"\x01" + b"\x00" * 31

    def test_rejects_unreduced(self):
        with pytest.raises(FieldDecodeError):
            decode_field(PRIME.to_bytes(32, "little"))
        with pytest.raises(FieldDecodeError):
            decode_field(b"\x00" * 31)

    def test_encode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            encode_field(PRIME)
        with pytest.raises(ValueError):
            encode_field(-1)
