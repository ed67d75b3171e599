"""Threshold secret sharing over GF(2^255 - 19) and its access-tree extension.

A t-of-n sharing evaluates a random degree-(t-1) polynomial f with
f(0) = secret at the points 1..n; any t shares recover the secret by
Lagrange interpolation at 0. The tree extension applies this recursively
down a threshold access tree so that exactly the leaf subsets satisfying the
tree can rebuild the root secret: each gate splits its incoming value with
its own threshold, child j receiving the share at point j. The tree is
walked once, depth first, and each child's value is computed in place,
without a :class:`Share` per node.

The modulus is a well-known prime comfortably above 2^255, so 256-bit data
keys embed injectively as field elements. Entropy is always an injected
``random.Random`` instance (``random.SystemRandom`` in production, a seeded
generator in tests); the polynomial coefficients c1..c(t-1) are drawn in
order via ``randrange``, which tests rely on for oracle replication.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .errors import CakeError
from .policy import AccessTree, TreeGate, TreeLeaf

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
    total = 0
    for i, s_i in enumerate(shares):
        num, den = 1, 1
        for j, s_j in enumerate(shares):
            if i == j:
                continue
            num = num * s_j.index % PRIME
            den = den * (s_j.index - s_i.index) % PRIME
        total = (total + s_i.value * num * pow(den, -1, PRIME)) % PRIME
    return total


def share_tree(tree: AccessTree, secret: int, rng: random.Random) -> dict[int, int]:
    """Split ``secret`` down the access tree.

    Returns the map leaf_index -> field element, in leaf-index order. Each
    gate shares its incoming value with its own threshold among its
    children, child j taking the share at point j (1-based position), as
    :func:`share` would; the tree is walked once, depth first, and each
    gate draws its coefficients when it is reached. A 1-of-n gate draws
    none: each child takes the value itself.
    """
    leaf_values: dict[int, int] = {}
    stack: list[tuple[AccessTree, int]] = [(tree, secret % PRIME)]
    while stack:
        node, value = stack.pop()
        if type(node) is TreeLeaf:
            leaf_values[node.leaf_index] = value
            continue
        coeffs = [value] + [rng.randrange(PRIME) for _ in range(node.threshold - 1)]
        children = node.children
        for x in range(len(children), 0, -1):  # pushed last to first
            stack.append((children[x - 1], _poly_eval(coeffs, x)))
    return leaf_values


def reconstruct_tree(tree: AccessTree, available: dict[int, int]) -> Optional[int]:
    """Rebuild the root secret from the available leaf values.

    A leaf is recoverable iff its value is present; a gate is recoverable iff
    at least ``threshold`` children are, interpolating over the recovered
    children with the lowest positions so decryption is deterministic.
    Returns ``None`` when the available set does not satisfy the tree.
    """
    def ascend(node: AccessTree) -> Optional[int]:
        if isinstance(node, TreeLeaf):
            return available.get(node.leaf_index)
        recovered: list[Share] = []
        for position, child in enumerate(node.children, start=1):
            value = ascend(child)
            if value is not None:
                recovered.append(Share(position, value))
            if len(recovered) == node.threshold:
                return reconstruct(recovered)
        return None

    return ascend(tree)
