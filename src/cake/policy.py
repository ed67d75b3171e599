"""Access-control policies as propositional formulae over attributes.

Grammar (keywords case-insensitive, ``and`` binds tighter than ``or``)::

    expr     := or_expr
    or_expr  := and_expr ("or" and_expr)*
    and_expr := atom ("and" atom)*
    atom     := ATTRIBUTE | "(" expr ")"

Attributes are lowercase tokens matching ``[a-z0-9_]+`` (input is
case-normalized while parsing). Parentheses nest at most
:data:`MAX_NESTING` deep, and so do the gates of the parsed tree, since its
canonical rendering parenthesizes each gate. Associative chains are
flattened, so ``a or b or c`` and ``(a or (b or c))`` both yield a single Or
node with three children; an And/Or node therefore never has a child of its
own kind.

Parsing is one pass over the words of the lowercased text, which one
regular expression splits out: each word is checked once, and each node is
built once, already flattened, without the checks of the public
constructors (``Leaf``, ``And`` and ``Or`` still validate what callers
build). That expression is the only scanner. Byte offsets are computed only
on the error path, when the text is rejected: the same expression scans the
text again, and an offset is the UTF-8 length of the text before the word.

Policies compile to threshold access trees for secret sharing: an And node
becomes an n-of-n gate, an Or node a 1-of-n gate, and leaves are numbered
1..L in depth-first order. Duplicate attribute names keep distinct leaves.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Container, Optional, Union

from .errors import CakeError

ATTRIBUTE_RE = re.compile(r"[a-z0-9_]{1,64}")

_KEYWORDS = ("and", "or")

# How deep parentheses, and the gates of a parsed tree, may nest. The
# canonical rendering parenthesizes each gate, so a policy that parses
# renders to text that parses. Rendering, compiling and choosing leaves
# recurse over the tree, up to three frames per level, so a tree within the
# bound stays far below the interpreter's recursion limit.
MAX_NESTING = 64


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


def normalize_attribute(token: str) -> str:
    """Lowercase and validate one attribute name."""
    name = token.lower()
    if not ATTRIBUTE_RE.fullmatch(name):
        raise InvalidAttributeError(f"malformed attribute token {token!r}", 0)
    return name


# --- scanning ---------------------------------------------------------------

# A parenthesis, or a word: a maximal run of characters that are neither
# whitespace (space, tab, CR, LF) nor parentheses. Other characters, vertical
# tab and form feed included, belong to words. Lowercasing neither makes nor
# removes a separator, so the words of the lowercased text are the
# lowercased words of the text, in the same places.
_WORD_RE = re.compile(r"[()]|[^ \t\r\n()]+")

_attribute_match = ATTRIBUTE_RE.fullmatch


def _error(text: str, index: int, kind: type[PolicyError], message: str) -> PolicyError:
    """The error for ``text``, whose ``index``-th word (the end counting as
    one past the last word) stopped the parse with ``message``.

    The text is scanned again, as a whole: text with no UTF-8 encoding
    raises ``UnicodeEncodeError``, and a malformed word anywhere in it is
    reported before any structural error. The offset is the UTF-8 length of
    the text before the offending word, or of the whole text at the end.
    """
    text.encode("utf-8")  # raises for text with no UTF-8 encoding
    words = list(_WORD_RE.finditer(text))
    for position, match in enumerate(words):
        word = match.group().lower()
        if word not in ("(", ")", *_KEYWORDS) and not _attribute_match(word):
            index, kind, message = (position, InvalidAttributeError,
                                    f"malformed attribute token {word!r}")
            break
    start = words[index].start() if index < len(words) else len(text)
    return kind(message, len(text[:start].encode("utf-8")))


# --- one-pass parser -------------------------------------------------------

def _node(kind: type, field: str, value: object) -> PolicyAst:
    """A node the parser built, valid by construction: made without the
    checks of the public constructor."""
    node = object.__new__(kind)
    object.__setattr__(node, field, value)
    return node


def _or_operand(ors: list[PolicyAst], ands: list[PolicyAst]) -> None:
    """Append the conjunction of ``ands`` to ``ors``, flattening an Or."""
    if len(ands) > 1:
        ors.append(_node(And, "children", tuple(ands)))
    elif type(ands[0]) is Or:
        ors.extend(ands[0].children)
    else:
        ors.append(ands[0])


def _disjunction(ors: list[PolicyAst], ands: list[PolicyAst]) -> PolicyAst:
    """The node of a finished ``or_expr`` whose last operand is ``ands``."""
    _or_operand(ors, ands)
    return ors[0] if len(ors) == 1 else _node(Or, "children", tuple(ors))


def parse_policy(text: str) -> PolicyAst:
    """Parse policy text into a flattened AST.

    One pass: the lowercased text is split into words by one regular
    expression, and a loop over the words keeps, for each open parenthesis,
    the operands of its ``or`` and of its current ``and``. Each word is
    checked once, an attribute against ``ATTRIBUTE_RE``, and chains are
    flattened as their nodes are built.

    Raises :class:`PolicySyntaxError` for structural problems (unbalanced
    parentheses, parentheses or gates nested past :data:`MAX_NESTING`,
    stray tokens, empty input) and
    :class:`InvalidAttributeError` for malformed attribute tokens; both carry
    the byte offset of the offending position, computed only then.
    """
    words = _WORD_RE.findall(text.lower())
    # (ors, ands) of each enclosing parenthesis, innermost last.
    stack: list[tuple[list[PolicyAst], list[PolicyAst]]] = []
    ors: list[PolicyAst] = []
    ands: list[PolicyAst] = []
    want_atom = True
    for index, word in enumerate(words):
        if want_atom:
            if word == "(":
                if len(stack) == MAX_NESTING:
                    raise _error(text, index, PolicySyntaxError,
                                 f"parentheses nested deeper than {MAX_NESTING}")
                stack.append((ors, ands))
                ors, ands = [], []
            elif word == ")" or word in _KEYWORDS:
                raise _error(text, index, PolicySyntaxError, f"unexpected token {word!r}")
            elif _attribute_match(word):
                ands.append(_node(Leaf, "name", word))
                want_atom = False
            else:
                raise _error(text, index, InvalidAttributeError,
                             f"malformed attribute token {word!r}")
        elif word == "and":
            want_atom = True
        elif word == "or":
            _or_operand(ors, ands)
            ands = []
            want_atom = True
        elif word == ")" and stack:
            node = _disjunction(ors, ands)
            ors, ands = stack.pop()
            if type(node) is And:
                ands.extend(node.children)
            else:
                ands.append(node)
        elif stack:
            raise _error(text, index, PolicySyntaxError,
                         "unbalanced parenthesis, expected ')'")
        else:
            raise _error(text, index, PolicySyntaxError,
                         f"unexpected token {word!r} after expression")
    end = len(words)
    if want_atom:
        raise _error(text, end, PolicySyntaxError,
                     "unexpected end of expression" if words else "empty policy expression")
    if stack:
        raise _error(text, end, PolicySyntaxError, "unbalanced parenthesis, expected ')'")
    ast = _disjunction(ors, ands)
    if _depth(ast) > MAX_NESTING:
        raise _error(text, end, PolicySyntaxError,
                     f"gates nested deeper than {MAX_NESTING}")
    return ast


def _depth(ast: PolicyAst) -> int:
    """How deep the gates of a tree nest; 0 for a leaf."""
    return 0 if type(ast) is Leaf else 1 + max(map(_depth, ast.children))


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
    in the policy produce distinct leaves. Each node is visited once.
    """
    counter = itertools.count(1)

    def build(node: PolicyAst) -> AccessTree:
        if type(node) is Leaf:
            return TreeLeaf(node.name, next(counter))
        threshold = len(node.children) if type(node) is And else 1
        return TreeGate(threshold, tuple([build(c) for c in node.children]))

    return build(ast)


def tree_leaves(tree: AccessTree) -> list[TreeLeaf]:
    """Leaves in depth-first (= index) order."""
    leaves: list[TreeLeaf] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if type(node) is TreeLeaf:
            leaves.append(node)
        else:
            stack.extend(reversed(node.children))
    return leaves


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
