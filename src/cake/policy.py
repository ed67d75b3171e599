"""Access-control policies as propositional formulae over attributes.

Grammar (keywords case-insensitive, ``and`` binds tighter than ``or``)::

    expr     := or_expr
    or_expr  := and_expr ("or" and_expr)*
    and_expr := atom ("and" atom)*
    atom     := ATTRIBUTE | "(" expr ")"

Attributes are lowercase tokens matching ``[a-z0-9_]+`` (input is
case-normalized while parsing). Associative chains are flattened, so
``a or b or c`` and ``(a or (b or c))`` both yield a single Or node with
three children; an And/Or node therefore never has a child of its own kind.

Policies compile to threshold access trees for secret sharing: an And node
becomes an n-of-n gate, an Or node a 1-of-n gate, and leaves are numbered
1..L in depth-first order. Duplicate attribute names keep distinct leaves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Container, Iterator, NamedTuple, Optional, Union

from .errors import CakeError

ATTRIBUTE_RE = re.compile(r"[a-z0-9_]{1,64}")

_KEYWORDS = ("and", "or")


class PolicyError(CakeError):
    """Base class for policy parsing errors."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(message)
        self.offset = offset

    def __str__(self) -> str:
        return f"{self.args[0]} (byte offset {self.offset})"


class PolicySyntaxError(PolicyError):
    """Structurally invalid policy text: bad nesting, stray or missing tokens."""


class InvalidAttributeError(PolicyError):
    """A token in attribute position does not match ``[a-z0-9_]{1,64}``."""


@dataclass(frozen=True)
class Leaf:
    name: str

    def __post_init__(self) -> None:
        if not ATTRIBUTE_RE.fullmatch(self.name):
            raise ValueError(f"invalid attribute name: {self.name!r}")


@dataclass(frozen=True)
class And:
    children: tuple["PolicyAst", ...]

    def __post_init__(self) -> None:
        _check_children(self.children, And)


@dataclass(frozen=True)
class Or:
    children: tuple["PolicyAst", ...]

    def __post_init__(self) -> None:
        _check_children(self.children, Or)


PolicyAst = Union[Leaf, And, Or]


def _check_children(children: tuple[PolicyAst, ...], kind: type) -> None:
    if len(children) < 2:
        raise ValueError(f"{kind.__name__} needs at least 2 children")
    if any(isinstance(c, kind) for c in children):
        raise ValueError(f"{kind.__name__} child chains must be flattened")


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


def normalize_attribute(token: str) -> str:
    """Lowercase and validate one attribute name."""
    name = token.lower()
    if not ATTRIBUTE_RE.fullmatch(name):
        raise InvalidAttributeError(f"malformed attribute token {token!r}", 0)
    return name


# --- tokenizer -------------------------------------------------------------

class _Token(NamedTuple):
    kind: str  # "(" | ")" | "and" | "or" | "attr" | "end"
    text: str
    offset: int


# A parenthesis, or a word: a maximal run of bytes that are neither
# whitespace (space, tab, CR, LF) nor parentheses. Other bytes, vertical tab
# and form feed included, belong to words.
_TOKEN_RE = re.compile(rb"([()])|[^ \t\r\n()]+")


def _tokenize(text: str) -> list[_Token]:
    # Scan the UTF-8 encoding so reported offsets are byte offsets. Words
    # split only at ASCII bytes, so each one decodes on its own.
    data = text.encode("utf-8")
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(data):
        start = match.start()
        paren = match.group(1)
        if paren is not None:
            tokens.append(_Token(paren.decode(), paren.decode(), start))
            continue
        word = match.group().decode("utf-8").lower()
        if word in _KEYWORDS:
            tokens.append(_Token(word, word, start))
        elif ATTRIBUTE_RE.fullmatch(word):
            tokens.append(_Token("attr", word, start))
        else:
            raise InvalidAttributeError(f"malformed attribute token {word!r}", start)
    tokens.append(_Token("end", "", len(data)))
    return tokens


# --- recursive-descent parser ----------------------------------------------

class _Parser:
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


def parse_policy(text: str) -> PolicyAst:
    """Parse policy text into a flattened AST.

    Raises :class:`PolicySyntaxError` for structural problems (unbalanced
    parentheses, stray tokens, empty input) and
    :class:`InvalidAttributeError` for malformed attribute tokens; both carry
    the byte offset of the offending position.
    """
    return _Parser(_tokenize(text)).parse()


def render_policy(ast: PolicyAst) -> str:
    """Canonical fully parenthesized lowercase form; inverse of parse_policy."""
    if isinstance(ast, Leaf):
        return ast.name
    keyword = " and " if isinstance(ast, And) else " or "
    return "(" + keyword.join(render_policy(c) for c in ast.children) + ")"


def evaluate(ast: PolicyAst, attrs: frozenset[str] | set[str]) -> bool:
    """Propositional semantics: a leaf is true iff its attribute is held."""
    if isinstance(ast, Leaf):
        return ast.name in attrs
    if isinstance(ast, And):
        return all(evaluate(c, attrs) for c in ast.children)
    return any(evaluate(c, attrs) for c in ast.children)


def attributes_of(ast: PolicyAst) -> frozenset[str]:
    """Set of distinct attributes mentioned by the policy."""
    if isinstance(ast, Leaf):
        return frozenset((ast.name,))
    return frozenset().union(*(attributes_of(c) for c in ast.children))


# --- threshold access trees ------------------------------------------------

@dataclass(frozen=True, slots=True)
class TreeLeaf:
    attribute: str
    leaf_index: int


@dataclass(frozen=True, slots=True)
class TreeGate:
    threshold: int
    children: tuple["AccessTree", ...]

    def __post_init__(self) -> None:
        if not 1 <= self.threshold <= len(self.children):
            raise ValueError(f"threshold {self.threshold} out of range for "
                             f"{len(self.children)} children")


AccessTree = Union[TreeLeaf, TreeGate]


def compile_policy(ast: PolicyAst) -> AccessTree:
    """Compile to a threshold tree: And -> n-of-n, Or -> 1-of-n.

    Leaves are numbered 1..L in depth-first order; duplicate attribute names
    in the policy produce distinct leaves.
    """
    counter = iter(range(1, _leaf_count(ast) + 1))

    def build(node: PolicyAst) -> AccessTree:
        if isinstance(node, Leaf):
            return TreeLeaf(node.name, next(counter))
        threshold = len(node.children) if isinstance(node, And) else 1
        return TreeGate(threshold, tuple(build(c) for c in node.children))

    return build(ast)


def _leaf_count(ast: PolicyAst) -> int:
    if isinstance(ast, Leaf):
        return 1
    return sum(_leaf_count(c) for c in ast.children)


def tree_leaves(tree: AccessTree) -> Iterator[TreeLeaf]:
    """Leaves in depth-first (= index) order."""
    if isinstance(tree, TreeLeaf):
        yield tree
    else:
        for child in tree.children:
            yield from tree_leaves(child)


def min_satisfying_leaves(tree: AccessTree,
                          attrs: Container[str]) -> Optional[list[int]]:
    """Indices of a smallest leaf set that satisfies the tree using only
    the given attributes, or ``None`` when they do not satisfy it.

    Each gate takes its ``threshold`` children with the fewest leaves, ties
    going to the lowest position. Subtrees share no leaves, so this sum of
    per-gate minima is a global minimum.
    """
    if isinstance(tree, TreeLeaf):
        return [tree.leaf_index] if tree.attribute in attrs else None
    picks = [p for p in (min_satisfying_leaves(c, attrs) for c in tree.children)
             if p is not None]
    if len(picks) < tree.threshold:
        return None
    picks.sort(key=len)  # stable: equal sizes keep their tree order
    return [index for pick in picks[:tree.threshold] for index in pick]
