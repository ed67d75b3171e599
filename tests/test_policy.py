import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cake.policy import (
    MAX_NESTING,
    And,
    InvalidAttributeError,
    Leaf,
    Or,
    PolicySyntaxError,
    attributes_of,
    evaluate,
    min_satisfying_leaves,
    normalize_attribute,
    parse_policy,
    render_policy,
    tree_leaves,
)
from cake.sss import PRIME, reconstruct_tree, share_tree
from helpers import (
    ATTRIBUTE_POOL,
    and_of,
    attribute_subsets,
    leaf_attributes,
    min_satisfying_size,
    nested_policy,
    or_of,
    random_policy,
    reference_parse,
    sympy_eval,
    tree_satisfied,
)

IMPORT_DECLARATION = "(29837 and ((economic_operator) or (customs)))"
TRANSPORT_DOCUMENT = "(29837 and ((economic_operator) or (customs) or (courier)))"


leaves = st.builds(Leaf, st.sampled_from(ATTRIBUTE_POOL))
asts = st.recursive(
    leaves,
    lambda children: st.builds(
        lambda is_and, kids: (and_of if is_and else or_of)(list(kids)),
        st.booleans(),
        st.lists(children, min_size=2, max_size=4),
    ),
    max_leaves=16,
)


class TestParse:
    def test_import_declaration_shape(self):
        ast = parse_policy(IMPORT_DECLARATION)
        assert ast == And((Leaf("29837"),
                           Or((Leaf("economic_operator"), Leaf("customs")))))

    def test_single_attribute(self):
        assert parse_policy("a") == Leaf("a")

    def test_and_binds_tighter_than_or(self):
        # hand-derived from the grammar: or_expr collects and_expr operands,
        # so "a and b" groups before "or c"
        assert parse_policy("a and b or c") == Or((And((Leaf("a"), Leaf("b"))),
                                                   Leaf("c")))

    def test_keywords_case_insensitive(self):
        assert parse_policy("a AND b Or c") == parse_policy("a and b or c")

    def test_attributes_lowercased(self):
        assert parse_policy("Customs") == Leaf("customs")

    def test_associative_chains_flatten(self):
        assert parse_policy("a or b or c") == Or((Leaf("a"), Leaf("b"), Leaf("c")))
        assert parse_policy("(a and (b and c))") == And((Leaf("a"), Leaf("b"),
                                                         Leaf("c")))

    def test_nested_mixed_gates(self):
        ast = parse_policy("(a or b) and (c or d)")
        assert ast == And((Or((Leaf("a"), Leaf("b"))), Or((Leaf("c"), Leaf("d")))))

    @pytest.mark.parametrize("text,offset", [
        ("", 0),
        ("   ", 3),
        ("(a", 2),
        ("a)", 1),
        ("a b", 2),
        ("and a", 0),
        ("a and", 5),
        ("()", 1),
    ])
    def test_syntax_errors_carry_byte_offset(self, text, offset):
        with pytest.raises(PolicySyntaxError) as exc:
            parse_policy(text)
        assert exc.value.offset == offset

    @pytest.mark.parametrize("text,offset", [
        ("foo-bar", 0),
        ("a and x!y", 6),
        ("a and " + "z" * 65, 6),
        ("café", 0),
    ])
    def test_malformed_attributes(self, text, offset):
        with pytest.raises(InvalidAttributeError) as exc:
            parse_policy(text)
        assert exc.value.offset == offset

    def test_non_ascii_token_rejected_at_its_offset(self):
        with pytest.raises(InvalidAttributeError) as exc:
            parse_policy("ok and café")
        assert exc.value.offset == 7


# Pieces policy text is made of, plus the bytes that edge cases turn on:
# vertical tab and form feed (not separators), non-ASCII letters, some of
# which lowercase to ASCII (KELVIN SIGN), and over-long or stray words.
token_pieces = st.sampled_from([
    "a1", "B2", "and", "AND", "Or", "or", "(", ")", " ", "\t", "\r\n", "\x0b",
    "\x0c", "\u212a", "caf\u00e9", "\u0130", "\u00a0", "x" * 64, "y" * 65,
    "-", "!", "_", "9", "\x00", "\U0001f600",
])
policy_texts = st.one_of(
    st.lists(token_pieces, max_size=24).map("".join),
    st.text(max_size=40),
    st.text(st.characters(exclude_categories=()), max_size=12),
)


# Policy-like text: nested chains written out as they come (unflattened, and
# with single operands in parentheses), then re-cased word by word, joined by
# varied separators (vertical tab and form feed join words, an empty one runs
# them together), with words dropped and stray or non-ASCII pieces added.
nested_texts = st.recursive(
    st.sampled_from(ATTRIBUTE_POOL),
    lambda kids: st.tuples(st.sampled_from([" and ", " or "]),
                           st.lists(kids, min_size=1, max_size=4)).map(
        lambda chain: "(" + chain[0].join(chain[1]) + ")"),
    max_leaves=12,
)
separators = st.sampled_from([" ", "  ", "\t", "\r\n", "\x0b", "\x0c", ""])
strays = st.sampled_from(["(", ")", "and", "OR", "\u212a", "caf\u00e9", "\u0130", "x!y"])


@st.composite
def edited_policies(draw):
    text = draw(st.one_of(nested_texts, asts.map(render_policy)))
    out = []
    for word in re.findall(r"[()]|[^ ()]+", text):
        edit = draw(st.integers(0, 19))
        if edit == 0:
            continue
        if edit == 1:
            out.append(draw(strays))
            out.append(draw(separators))
        out.append(draw(st.sampled_from([str.lower, str.upper, str.title]))(word))
        out.append(draw(separators) if edit == 2 else " ")
    return "".join(out)


def parsed(parse, text):
    """The AST, or the error's class, text and offset."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


class TestParseOracle:
    @settings(max_examples=900, derandomize=True)
    @given(st.one_of(edited_policies(), policy_texts))
    @example("")
    @example(" \t\r\n")
    @example("a AND b Or c")
    @example("a or (b or (c or d))")
    @example("((a and b) and (c and (d)))")
    @example("((a or b)) and c or (d)")
    @example("a\x0band b")
    @example("a\x0cb or (c)")
    @example("\u212a and K")
    @example("ok and caf\u00e9")
    @example("( ) x!y")
    @example("(a")
    @example("a)")
    @example("((a)")
    @example("a b (")
    @example("\ud800 or a")
    @example("\u0130 or a")
    def test_matches_reference_parser(self, text):
        assert parsed(parse_policy, text) == parsed(reference_parse, text)


class TestNesting:
    def test_a_policy_nested_to_the_bound_parses_renders_and_compiles(self):
        text = nested_policy(MAX_NESTING)
        ast = parse_policy(text)
        assert render_policy(ast) == text
        assert len(tree_leaves(ast)) == MAX_NESTING + 1
        chosen = min_satisfying_leaves(ast, {"a"})
        values = share_tree(ast, 5, random.Random(0))
        assert reconstruct_tree(ast, {n: values[n] for n in chosen}) == 5

    def test_one_level_more_is_refused_at_its_parenthesis(self):
        text = nested_policy(MAX_NESTING + 1)
        with pytest.raises(PolicySyntaxError) as exc:
            parse_policy(text)
        assert exc.value.offset == [i for i, c in enumerate(text) if c == "("][MAX_NESTING]

    def test_gates_nested_past_the_bound_are_refused(self):
        # Each level of parentheses holds an Or of Ands: two levels of gates,
        # each parenthesized in the canonical rendering.
        def or_of_ands(levels):
            text = "a"
            for _ in range(levels):
                text = f"({text} and c or d)"
            return text

        ast = parse_policy(or_of_ands(MAX_NESTING // 2))
        assert parse_policy(render_policy(ast)) == ast
        text = or_of_ands(MAX_NESTING // 2 + 1)
        with pytest.raises(PolicySyntaxError) as exc:
            parse_policy(text)
        assert exc.value.offset == len(text)


class TestRender:
    def test_leaf(self):
        assert render_policy(Leaf("a")) == "a"

    def test_nested(self):
        ast = And((Leaf("29837"), Or((Leaf("courier"), Leaf("customs")))))
        assert render_policy(ast) == "(29837 and (courier or customs))"

    def test_or_pair(self):
        assert render_policy(Or((Leaf("x"), Leaf("y")))) == "(x or y)"

    @settings(max_examples=200)
    @given(asts)
    def test_roundtrip(self, ast):
        assert parse_policy(render_policy(ast)) == ast


class TestEvaluate:
    def test_import_declaration_outcomes(self):
        ast = parse_policy(IMPORT_DECLARATION)
        assert evaluate(ast, {"29837", "customs"}) is True
        assert evaluate(ast, {"29837", "courier"}) is False

    @given(asts)
    def test_full_attribute_set_always_satisfies(self, ast):
        assert evaluate(ast, attributes_of(ast)) is True

    @settings(max_examples=150)
    @given(asts, st.sets(st.sampled_from(ATTRIBUTE_POOL)),
           st.sets(st.sampled_from(ATTRIBUTE_POOL)))
    def test_monotonicity(self, ast, base, extra):
        if evaluate(ast, base):
            assert evaluate(ast, base | extra)

    def test_truth_table_equivalence_with_sympy(self):
        rng = random.Random(7)
        for _ in range(120):
            ast = random_policy(rng, ATTRIBUTE_POOL, depth=4)
            for subset in attribute_subsets(attributes_of(ast)):
                assert evaluate(ast, subset) == sympy_eval(ast, subset), \
                    render_policy(ast)


class TestCompile:
    """The parsed tree is the access tree: an And is an n-of-n gate, an Or
    a 1-of-n gate, and leaves are numbered 1..L depth first."""

    def test_single_leaf(self):
        tree = parse_policy("a")
        assert tree_leaves(tree) == [Leaf("a")]
        assert share_tree(tree, 7, random.Random(0)) == {1: 7}
        assert min_satisfying_leaves(tree, {"a"}) == [1]

    def test_transport_document_tree(self):
        tree = parse_policy(TRANSPORT_DOCUMENT)
        assert tree == And((
            Leaf("29837"),
            Or((Leaf("economic_operator"), Leaf("customs"), Leaf("courier"))),
        ))
        assert (tree.threshold, tree.children[1].threshold) == (2, 1)
        assert [leaf.attribute for leaf in tree_leaves(tree)] == [
            "29837", "economic_operator", "customs", "courier"]
        assert list(share_tree(tree, 7, random.Random(0))) == [1, 2, 3, 4]

    def test_duplicate_attribute_distinct_leaves(self):
        tree = parse_policy("(a or a)")
        assert tree == Or((Leaf("a"), Leaf("a")))
        assert tree.threshold == 1
        assert share_tree(tree, 7, random.Random(0)) == {1: 7, 2: 7}
        assert min_satisfying_leaves(tree, {"a"}) == [1]

    @given(asts)
    def test_leaf_indices_are_depth_first(self, ast):
        assert [leaf.attribute for leaf in tree_leaves(ast)] == leaf_attributes(ast)

    def test_threshold_satisfaction_matches_evaluation(self):
        rng = random.Random(21)
        for _ in range(60):
            ast = random_policy(rng, ATTRIBUTE_POOL[:4], depth=3)
            for subset in attribute_subsets(attributes_of(ast)):
                numbers = {number for number, attribute in enumerate(leaf_attributes(ast), 1)
                           if attribute in subset}
                assert tree_satisfied(ast, numbers) == evaluate(ast, subset)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(asts, st.sets(st.sampled_from(ATTRIBUTE_POOL)),
           st.integers(min_value=0, max_value=PRIME - 1), st.integers(min_value=0))
    def test_share_choose_and_reconstruct_number_leaves_alike(self, ast, held, secret, seed):
        leaves = tree_leaves(ast)
        values = share_tree(ast, secret, random.Random(seed))
        assert list(values) == list(range(1, len(leaves) + 1))
        chosen = min_satisfying_leaves(ast, held)
        if chosen is None:
            assert not evaluate(ast, held)
            return
        assert all(leaves[number - 1].attribute in held for number in chosen)
        assert tree_satisfied(ast, set(chosen))
        assert reconstruct_tree(ast, {number: values[number] for number in chosen}) == secret


class TestMinSatisfyingLeaves:
    def test_examples(self):
        tree = parse_policy(TRANSPORT_DOCUMENT)
        # customs (leaf 3) and courier (leaf 4) tie: the lower position wins
        assert min_satisfying_leaves(tree, {"29837", "customs", "courier"}) == [1, 3]
        assert min_satisfying_leaves(tree, {"customs", "courier"}) is None
        cheap_last = parse_policy("(a and b) or c")
        assert min_satisfying_leaves(cheap_last, {"a", "b", "c"}) == [3]
        assert min_satisfying_leaves(cheap_last, {"a", "b"}) == [1, 2]

    def test_minimal_and_satisfying_iff_evaluation(self):
        rng = random.Random(22)
        for _ in range(60):
            ast = random_policy(rng, ATTRIBUTE_POOL[:4], depth=3)
            attributes = leaf_attributes(ast)
            for subset in attribute_subsets(attributes_of(ast)):
                chosen = min_satisfying_leaves(ast, subset)
                if not evaluate(ast, subset):
                    assert chosen is None
                    continue
                assert all(attributes[i - 1] in subset for i in chosen)
                assert tree_satisfied(ast, set(chosen))
                assert len(set(chosen)) == len(chosen) == min_satisfying_size(ast, subset)


class TestAttributesOf:
    def test_examples(self):
        assert attributes_of(Leaf("a")) == frozenset({"a"})
        assert attributes_of(parse_policy(IMPORT_DECLARATION)) == frozenset(
            {"29837", "economic_operator", "customs"})
        assert attributes_of(And((Leaf("a"), Leaf("a")))) == frozenset({"a"})


class TestAstInvariants:
    def test_constructors_reject_unflattened_chains(self):
        with pytest.raises(ValueError):
            And((Leaf("a"), And((Leaf("b"), Leaf("c")))))
        with pytest.raises(ValueError):
            Or((Or((Leaf("a"), Leaf("b"))), Leaf("c")))
        with pytest.raises(ValueError):
            And((Leaf("a"),))

    def test_leaf_name_validated(self):
        with pytest.raises(ValueError):
            Leaf("Not Valid")

    def test_normalize_attribute(self):
        assert normalize_attribute("Customs") == "customs"
        with pytest.raises(InvalidAttributeError):
            normalize_attribute("no spaces allowed")
