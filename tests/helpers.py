"""Shared test oracles, deliberately independent of the package internals."""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass
from itertools import combinations, count
from typing import NamedTuple

import sympy

from cake import abe
from cake.codec import Reader, Writer
from cake.policy import (
    ATTRIBUTE_RE,
    And,
    InvalidAttributeError,
    Leaf,
    Or,
    PolicyAst,
    PolicySyntaxError,
)

ATTRIBUTE_POOL = ["a1", "b2", "c3", "d4", "e5", "f6"]


def and_of(children: list[PolicyAst] | tuple[PolicyAst, ...]) -> PolicyAst:
    """Conjunction with associative flattening; a single operand passes through."""
    flat: list[PolicyAst] = []
    for child in children:
        flat.extend(child.children if isinstance(child, And) else [child])
    return flat[0] if len(flat) == 1 else And(tuple(flat))


def or_of(children: list[PolicyAst] | tuple[PolicyAst, ...]) -> PolicyAst:
    """Disjunction with associative flattening; a single operand passes through."""
    flat: list[PolicyAst] = []
    for child in children:
        flat.extend(child.children if isinstance(child, Or) else [child])
    return flat[0] if len(flat) == 1 else Or(tuple(flat))


def parse_slice(data: bytes) -> abe.SliceCiphertext:
    """The one slice encoded in all of ``data``."""
    return abe._parse_slice(data, 0, len(data))


# A slice's fields decoded one by one, and encoded again, with ``codec``'s
# ``Reader`` and ``Writer``: the reference for ``abe``'s header encoder and
# parse, and the way a test builds the bytes an attacker would send.
class WrappedShare(NamedTuple):
    leaf_index: int
    attribute: str
    nonce: bytes
    wrapped: bytes  # AES-GCM sealed 32-byte share


class SliceFields(NamedTuple):
    policy_text: str
    shares: tuple[WrappedShare, ...]
    payload_nonce: bytes
    payload: bytes


def take_slice_fields(r: Reader) -> SliceFields:
    """The fields of the one slice that fills the rest of ``r``."""
    policy_text = r.take_str()
    shares = tuple(WrappedShare(r.take_u32(), r.take_str(), r.take_bytes(), r.take_bytes())
                   for _ in range(r.take_u32()))
    fields = SliceFields(policy_text, shares, r.take_bytes(), r.take_bytes())
    r.expect_end()
    return fields


def slice_fields(ct: abe.SliceCiphertext) -> SliceFields:
    """The decoded fields of a slice."""
    return take_slice_fields(Reader(abe.serialize_slice(ct)))


def encode_header(policy_text: str, shares) -> bytes:
    """The header of a slice with these fields: its serialization up to the
    payload fields."""
    w = Writer()
    w.put_str(policy_text)
    w.put_u32(len(shares))
    for leaf_index, attribute, nonce, wrapped in shares:
        w.put_u32(leaf_index)
        w.put_str(attribute)
        w.put_bytes(nonce)
        w.put_bytes(wrapped)
    return w.getvalue()


def encode_slice(fields: SliceFields) -> bytes:
    w = Writer()
    w.put_raw(encode_header(fields.policy_text, fields.shares))
    w.put_bytes(fields.payload_nonce)
    w.put_bytes(fields.payload)
    return w.getvalue()


def build_slice(fields: SliceFields) -> abe.SliceCiphertext:
    """The slice with these fields, built as a stored one is: from its bytes."""
    return parse_slice(encode_slice(fields))


def reslice(ct: abe.SliceCiphertext, **changes) -> abe.SliceCiphertext:
    """``ct`` with the named :class:`SliceFields` changed, encoded and parsed."""
    return build_slice(slice_fields(ct)._replace(**changes))


def random_policy(rng: random.Random, attrs: list[str], depth: int = 4,
                  max_fanout: int = 3) -> PolicyAst:
    """Random AST over the given attribute names, depth-bounded."""
    if depth == 0 or rng.random() < 0.3:
        return Leaf(rng.choice(attrs))
    children = [random_policy(rng, attrs, depth - 1, max_fanout)
                for _ in range(rng.randint(2, max_fanout))]
    return and_of(children) if rng.random() < 0.5 else or_of(children)


def sympy_eval(ast: PolicyAst, attrs: frozenset[str] | set[str]) -> bool:
    """Truth-table oracle: evaluate via sympy's logic engine."""
    def to_expr(node: PolicyAst):
        if isinstance(node, Leaf):
            return sympy.Symbol(node.attribute)
        op = sympy.And if isinstance(node, And) else sympy.Or
        return op(*(to_expr(c) for c in node.children))

    expr = to_expr(ast)
    assignment = {sym: sym.name in attrs for sym in expr.free_symbols}
    return bool(expr.subs(assignment))


def gate_threshold(gate: PolicyAst) -> int:
    """An And gate needs all of its children, an Or gate one."""
    return len(gate.children) if isinstance(gate, And) else 1


def leaf_attributes(tree: PolicyAst) -> list[str]:
    """The attribute of each leaf, leaf number i at position i - 1: the
    leaves in depth-first order, collected recursively."""
    if isinstance(tree, Leaf):
        return [tree.attribute]
    return [attribute for child in tree.children for attribute in leaf_attributes(child)]


def tree_satisfied(tree: PolicyAst, leaf_numbers: set[int]) -> bool:
    """Recursive threshold check, the dual of share reconstruction, over
    leaves numbered 1..L in depth-first order."""
    numbers = count(1)

    def satisfied(node: PolicyAst) -> bool:
        if isinstance(node, Leaf):
            return next(numbers) in leaf_numbers
        hits = sum([satisfied(c) for c in node.children])  # numbers every leaf
        return hits >= gate_threshold(node)

    return satisfied(tree)


def min_satisfying_size(tree: PolicyAst, attrs: frozenset[str] | set[str]):
    """Size of the smallest set of held leaves satisfying the tree, by
    exhaustive search; ``None`` when the held leaves do not satisfy it."""
    held = [number for number, attribute in enumerate(leaf_attributes(tree), start=1)
            if attribute in attrs]
    for size in range(len(held) + 1):
        if any(tree_satisfied(tree, set(combo)) for combo in combinations(held, size)):
            return size
    return None


def attribute_subsets(attrs: frozenset[str]):
    """All subsets of an attribute set, smallest first."""
    ordered = sorted(attrs)
    for size in range(len(ordered) + 1):
        for combo in combinations(ordered, size):
            yield frozenset(combo)


def hkdf_sha256(ikm: bytes, info: bytes, length: int = 32) -> bytes:
    """RFC 5869 HKDF-SHA256 with an unset (zero) salt, written from scratch."""
    prk = hmac.new(b"\x00" * 32, ikm, hashlib.sha256).digest()
    okm = b""
    block = b""
    counter = 1
    while len(okm) < length:
        block = hmac.new(prk, block + info + bytes([counter]), hashlib.sha256).digest()
        okm += block
        counter += 1
    return okm[:length]


_B58 = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"


def alt_base58_encode(data: bytes) -> str:
    """Byte-by-byte long-division base58, no big integers."""
    digits = [0]
    for byte in data:
        carry = byte
        for i in range(len(digits)):
            carry += digits[i] << 8
            digits[i] = carry % 58
            carry //= 58
        while carry:
            digits.append(carry % 58)
            carry //= 58
    while len(digits) > 1 and digits[-1] == 0:
        digits.pop()
    pad = 0
    for byte in data:
        if byte:
            break
        pad += 1
    body = "" if digits == [0] else "".join(_B58[d] for d in reversed(digits))
    return _B58[0] * pad + body


# The byte-at-a-time tokenizer the policy parser used before it scanned with
# one regular expression, kept verbatim as the reference for that scan.
_KEYWORDS = ("and", "or")
_WHITESPACE = b" \t\r\n"
_PARENS = b"()"


@dataclass(frozen=True)
class _Token:
    kind: str  # "(" | ")" | "and" | "or" | "attr" | "end"
    text: str
    offset: int


def reference_tokenize(text: str) -> list[_Token]:
    # Scan the UTF-8 encoding so reported offsets are byte offsets.
    data = text.encode("utf-8")
    tokens: list[_Token] = []
    pos = 0
    while pos < len(data):
        byte = data[pos:pos + 1]
        if byte in _WHITESPACE:
            pos += 1
            continue
        if byte in _PARENS:
            tokens.append(_Token(byte.decode(), byte.decode(), pos))
            pos += 1
            continue
        start = pos
        while pos < len(data) and data[pos:pos + 1] not in _WHITESPACE + _PARENS:
            pos += 1
        raw = data[start:pos]
        try:
            word = raw.decode("utf-8").lower()
        except UnicodeDecodeError:
            raise InvalidAttributeError(f"malformed attribute token {raw!r}", start)
        if word in _KEYWORDS:
            tokens.append(_Token(word, word, start))
        elif ATTRIBUTE_RE.fullmatch(word):
            tokens.append(_Token("attr", word, start))
        else:
            raise InvalidAttributeError(f"malformed attribute token {word!r}", start)
    tokens.append(_Token("end", "", len(data)))
    return tokens


# The recursive-descent parser that ``parse_policy`` used before it parsed in
# one pass, kept as the reference for that pass. It reads the tokens of
# ``reference_tokenize`` and builds nodes through the validating public
# constructors and ``and_of`` / ``or_of``.
class _ReferenceParser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    @property
    def _cur(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        token = self._cur
        self._pos += 1
        return token

    def parse(self) -> PolicyAst:
        if self._cur.kind == "end":
            raise PolicySyntaxError("empty policy expression", self._cur.offset)
        ast = self._or_expr()
        if self._cur.kind != "end":
            raise PolicySyntaxError(
                f"unexpected token {self._cur.text!r} after expression", self._cur.offset)
        return ast

    def _or_expr(self) -> PolicyAst:
        operands = [self._and_expr()]
        while self._cur.kind == "or":
            self._advance()
            operands.append(self._and_expr())
        return or_of(operands)

    def _and_expr(self) -> PolicyAst:
        operands = [self._atom()]
        while self._cur.kind == "and":
            self._advance()
            operands.append(self._atom())
        return and_of(operands)

    def _atom(self) -> PolicyAst:
        token = self._cur
        if token.kind == "attr":
            self._advance()
            return Leaf(token.text)
        if token.kind == "(":
            self._advance()
            inner = self._or_expr()
            if self._cur.kind != ")":
                raise PolicySyntaxError("unbalanced parenthesis, expected ')'",
                                        self._cur.offset)
            self._advance()
            return inner
        if token.kind == "end":
            raise PolicySyntaxError("unexpected end of expression", token.offset)
        raise PolicySyntaxError(f"unexpected token {token.text!r}", token.offset)


def reference_parse(text: str) -> PolicyAst:
    """Parse ``text`` as ``parse_policy`` did before its one-pass parser."""
    return _ReferenceParser(reference_tokenize(text)).parse()


def nested_policy(depth: int) -> str:
    """A canonical policy whose gates, alternately Or and And, nest ``depth``
    deep, as do its parentheses."""
    text = "a"
    for level in range(depth):
        text = f"(a and {text})" if level % 2 else f"(b or {text})"
    return text


SERVE_ROLES = [f"role_{i:02d}" for i in range(32)]


def serve_shaped_policy(rng: random.Random, leaves: int) -> str:
    """``(tenant_acme and (audit or ...))`` with ``leaves`` leaves in all: the
    alternatives are roles, about a quarter of them joined in ``and`` pairs,
    as the data manager's benchmark stores them."""
    parts = ["audit"]
    remaining = leaves - 2
    while remaining:
        if remaining >= 2 and rng.random() < 0.25:
            a, b = rng.sample(SERVE_ROLES, 2)
            parts.append(f"({a} and {b})")
            remaining -= 2
        else:
            parts.append(rng.choice(SERVE_ROLES))
            remaining -= 1
    rng.shuffle(parts)
    return f"(tenant_acme and ({' or '.join(parts)}))"


def reference_share_tree(tree: PolicyAst, secret: int, rng: random.Random) -> dict[int, int]:
    """``share_tree`` as it was before it walked the tree without building
    shares: each gate calls ``share`` for its children, depth first, and
    leaves are numbered 1..L in that order."""
    from cake.sss import PRIME, share

    leaf_values: dict[int, int] = {}
    numbers = count(1)

    def descend(node: PolicyAst, value: int) -> None:
        if isinstance(node, Leaf):
            leaf_values[next(numbers)] = value
            return
        child_shares = share(value, gate_threshold(node), len(node.children), rng)
        for child, child_share in zip(node.children, child_shares):
            descend(child, child_share.value)

    descend(tree, secret % PRIME)
    return leaf_values


def reference_reconstruct_tree(tree: PolicyAst, available: dict[int, int]):
    """``reconstruct_tree`` as it was before it summed weighted leaves: each
    gate calls ``reconstruct`` over its recovered children with the lowest
    positions, a ``Share`` per child, and every leaf is numbered."""
    from cake.sss import Share, reconstruct

    numbers = count(1)

    def ascend(node: PolicyAst):
        if isinstance(node, Leaf):
            return available.get(next(numbers))
        values = [ascend(child) for child in node.children]  # numbers every leaf
        recovered = [Share(position, value)
                     for position, value in enumerate(values, start=1) if value is not None]
        if len(recovered) < gate_threshold(node):
            return None
        return reconstruct(recovered[:gate_threshold(node)])

    return ascend(tree)
