"""Threshold secret sharing over GF(2^255 - 19) and its access-tree extension.

A t-of-n sharing evaluates a random degree-(t-1) polynomial f with
f(0) = secret at the points 1..n; any t shares recover the secret by
Lagrange interpolation at 0. The tree extension applies this recursively
down the access tree of a parsed policy (an And is an n-of-n gate, an Or a
1-of-n gate) so that exactly the leaf subsets satisfying the tree can
rebuild the root secret: each gate splits its incoming value with its own
threshold, child j receiving the share at point j. Leaves are numbered
1..L in depth-first order as each walk reaches them. Sharing walks the tree
once, depth first, and computes each child's value in place, without a
:class:`Share` per node.

Interpolation is linear, so the root secret is a weighted sum of the leaf
values a satisfying set recovers: each leaf's weight is the product of the
gates' Lagrange coefficients (at 0) along its path. Reconstruction is those
per-leaf weights (:func:`leaf_weights`, which depend only on the tree and
the set of leaf numbers, not on the values) and one sum; a reader that
meets one set of leaves again can keep the weights and skip the walk.

The modulus is a well-known prime comfortably above 2^255, so 256-bit data
keys embed injectively as field elements. Entropy is always an injected
``random.Random`` instance (``random.SystemRandom`` in production, a seeded
generator in tests); the polynomial coefficients c1..c(t-1) are drawn in
order via ``randrange``, which tests rely on for oracle replication.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Collection, Optional, Sequence

from .errors import CakeError
from .policy import Leaf, PolicyAst

PRIME = 2**255 - 19

FIELD_BYTES = 32


class InvalidThreshold(CakeError):
    """Threshold outside 1 <= t <= n."""


class DuplicateIndex(CakeError):
    """Two shares with the same evaluation point."""


class FieldDecodeError(CakeError):
    """Serialized field element is not fully reduced."""


@dataclass(frozen=True)
class Share:
    index: int  # evaluation point x >= 1
    value: int


def encode_field(value: int) -> bytes:
    """32-byte little-endian serialization of a reduced field element."""
    if not 0 <= value < PRIME:
        raise ValueError("field element out of range")
    return value.to_bytes(FIELD_BYTES, "little")


def decode_field(data: bytes) -> int:
    if len(data) != FIELD_BYTES:
        raise FieldDecodeError(f"expected {FIELD_BYTES} bytes, got {len(data)}")
    value = int.from_bytes(data, "little")
    if value >= PRIME:
        raise FieldDecodeError("field element not reduced")
    return value


def random_element(rng: random.Random) -> int:
    return rng.randrange(PRIME)


def share(secret: int, threshold: int, count: int, rng: random.Random) -> list[Share]:
    """Split ``secret`` into ``count`` shares, any ``threshold`` of which recover it."""
    if not 1 <= threshold <= count:
        raise InvalidThreshold(f"threshold {threshold} out of range for {count} shares")
    if count >= PRIME:
        raise InvalidThreshold("share count exceeds field size")
    coeffs = [secret % PRIME] + [rng.randrange(PRIME) for _ in range(threshold - 1)]
    return [Share(x, _poly_eval(coeffs, x)) for x in range(1, count + 1)]


def _poly_eval(coeffs: list[int], x: int) -> int:
    # Horner evaluation, highest coefficient first.
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % PRIME
    return acc


def lagrange_basis(points: Sequence[int]) -> list[int]:
    """The Lagrange basis at x=0 over distinct evaluation points: the
    coefficients c_i with f(0) = sum(c_i * f(points[i])) for every
    polynomial f of degree below ``len(points)``."""
    basis = []
    for i, x_i in enumerate(points):
        num, den = 1, 1
        for j, x_j in enumerate(points):
            if i != j:
                num = num * x_j % PRIME
                den = den * (x_j - x_i) % PRIME
        basis.append(num * pow(den, -1, PRIME) % PRIME)
    return basis


def reconstruct(shares: list[Share]) -> int:
    """Lagrange interpolation at x=0 over the given shares.

    Equals the original secret whenever at least ``threshold`` shares of one
    sharing are supplied; with fewer, the result is an unrelated element.
    """
    seen: set[int] = set()
    for s in shares:
        if s.index in seen:
            raise DuplicateIndex(f"share index {s.index} supplied twice")
        seen.add(s.index)
    basis = lagrange_basis([s.index for s in shares])
    return sum(s.value * c for s, c in zip(shares, basis)) % PRIME


def share_tree(tree: PolicyAst, secret: int, rng: random.Random) -> dict[int, int]:
    """Split ``secret`` down the access tree.

    Returns the map leaf number -> field element, in leaf-number order.
    Each gate shares its incoming value with its own threshold among its
    children, child j taking the share at point j (1-based position), as
    :func:`share` would; the tree is walked once, depth first, and each
    gate draws its coefficients when it is reached. A 1-of-n gate draws
    none: each child takes the value itself.
    """
    leaf_values: dict[int, int] = {}
    stack: list[tuple[PolicyAst, int]] = [(tree, secret % PRIME)]
    while stack:
        node, value = stack.pop()
        if type(node) is Leaf:
            leaf_values[len(leaf_values) + 1] = value
            continue
        coeffs = [value] + [rng.randrange(PRIME) for _ in range(node.threshold - 1)]
        children = node.children
        for x in range(len(children), 0, -1):  # pushed last to first
            stack.append((children[x - 1], _poly_eval(coeffs, x)))
    return leaf_values


def leaf_weights(tree: PolicyAst, leaves: Collection[int]) -> Optional[dict[int, int]]:
    """The weight of each leaf that rebuilds the root secret from the
    values of the given leaf numbers, or ``None`` when they do not satisfy
    the tree: for every sharing of the tree, the secret is
    ``sum(weight * values[number])`` over the map, mod :data:`PRIME`.

    A leaf is recoverable iff its number is given; a gate is recoverable iff
    at least ``threshold`` children are, and it interpolates over the
    recovered children with the lowest positions, so the weights are
    deterministic. A leaf's weight is the product of those gates' Lagrange
    coefficients (:func:`lagrange_basis`) at its position along its path: 1
    under an Or gate, and for child j of an n-child And gate the product of
    m / (m - j) over the other positions m. The map holds only the leaves
    used, in leaf-number order.

    The walk numbers the leaves as it reaches them, so it cannot leave a
    gate at its ``threshold``-th recovered child: the leaves of the
    children after it would go unnumbered. It stops once it has reached the
    highest given leaf number, when every given leaf is found and no later
    leaf can add one; a minimal satisfying set is walked up to its last
    leaf.
    """
    last = max(leaves, default=0)
    seen = 0  # leaves numbered so far

    def ascend(node: PolicyAst) -> Optional[dict[int, int]]:
        nonlocal seen
        if type(node) is Leaf:
            seen += 1
            return {seen: 1} if seen in leaves else None
        recovered: list[tuple[int, dict[int, int]]] = []
        for position, child in enumerate(node.children, start=1):
            if seen >= last:
                break
            weights = ascend(child)
            if weights is not None:
                recovered.append((position, weights))
        if len(recovered) < node.threshold:
            return None
        used = recovered[:node.threshold]
        basis = lagrange_basis([position for position, _ in used])
        return {number: weight * c % PRIME
                for (_, weights), c in zip(used, basis) for number, weight in weights.items()}

    return ascend(tree)


def reconstruct_tree(tree: PolicyAst, available: dict[int, int]) -> Optional[int]:
    """Rebuild the root secret from the available values, keyed by leaf
    number, as the sum of the values weighted by :func:`leaf_weights`.
    Returns ``None`` when the available set does not satisfy the tree."""
    weights = leaf_weights(tree, available)
    if weights is None:
        return None
    return sum(weight * available[number] for number, weight in weights.items()) % PRIME
