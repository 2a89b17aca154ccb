"""Permutations of the points 1..n.

Convention used everywhere in this package: points are written on the
right and products apply left to right, so ``(a * b)(i) == b(a(i))``.

Inside the package a permutation is the tuple of images of 1..n (the
``images`` of a ``Perm``); the ``*_tuple``/``*_tuples`` functions below are
the only arithmetic on that form. ``Perm`` wraps one such tuple for the
public API.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

from .errors import DegreeMismatch, DuplicatePoint, EmptyDegree, PointOutOfRange

__all__ = [
    "Perm",
    "identity",
    "perm_from_cycles",
    "parse_cycles",
    "format_perm",
    "conjugate",
    "commutator",
    "identity_tuple",
    "compose_tuples",
    "inverse_tuple",
    "conjugate_tuple",
    "power_tuple",
    "order_of_tuple",
]


def identity_tuple(degree: int) -> tuple[int, ...]:
    return tuple(range(1, degree + 1))


def compose_tuples(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product a * b: apply a, then b."""
    return tuple([b[x - 1] for x in a])


def inverse_tuple(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x - 1] = i + 1
    return tuple(inv)


def conjugate_tuple(h: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """g^-1 * h * g, without building the intermediate inverse."""
    out = [0] * len(h)
    for i, gi in enumerate(g):
        out[gi - 1] = g[h[i] - 1]
    return tuple(out)


def power_tuple(a: tuple[int, ...], n: int) -> tuple[int, ...]:
    if n < 0:
        a, n = inverse_tuple(a), -n
    result = identity_tuple(len(a))
    while n:
        if n & 1:
            result = compose_tuples(result, a)
        a = compose_tuples(a, a)
        n >>= 1
    return result


def order_of_tuple(a: tuple[int, ...]) -> int:
    """The lcm of the cycle lengths."""
    seen = [False] * len(a)
    lengths = []
    for start in range(len(a)):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = a[i] - 1
            length += 1
        if length > 1:
            lengths.append(length)
    return lcm(*lengths)


class Perm:
    """A bijection of {1, .., n} stored as the tuple of images of 1, .., n."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int], _checked: bool = False):
        images = tuple(images)
        if not _checked:
            if len(images) < 1:
                raise EmptyDegree("a permutation needs degree >= 1")
            if sorted(images) != list(range(1, len(images) + 1)):
                raise ValueError(f"not a permutation of 1..{len(images)}: {images!r}")
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, point: int) -> int:
        """Image of a point under this permutation."""
        return self.images[point - 1]

    def __mul__(self, other: Perm) -> Perm:
        if len(self.images) != len(other.images):
            raise DegreeMismatch(
                f"cannot compose degree {len(self.images)} with degree {len(other.images)}"
            )
        return Perm(compose_tuples(self.images, other.images), _checked=True)

    def inverse(self) -> Perm:
        return Perm(inverse_tuple(self.images), _checked=True)

    def __pow__(self, n: int) -> Perm:
        return Perm(power_tuple(self.images, n), _checked=True)

    def is_identity(self) -> bool:
        return all(x == i + 1 for i, x in enumerate(self.images))

    def order(self) -> int:
        return order_of_tuple(self.images)

    def cycles(self) -> list[tuple[int, ...]]:
        """Non-trivial cycles, each starting at its smallest point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(1, len(self.images) + 1):
            if seen[start - 1] or self.images[start - 1] == start:
                continue
            cycle = [start]
            seen[start - 1] = True
            nxt = self.images[start - 1]
            while nxt != start:
                cycle.append(nxt)
                seen[nxt - 1] = True
                nxt = self.images[nxt - 1]
            out.append(tuple(cycle))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: Perm) -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __str__(self) -> str:
        return format_perm(self)

    def __repr__(self) -> str:
        return f"Perm({list(self.images)!r})"


def identity(degree: int) -> Perm:
    if degree < 1:
        raise EmptyDegree("degree must be >= 1")
    return Perm(identity_tuple(degree), _checked=True)


def perm_from_cycles(degree: int, cycles: Iterable[Sequence[int]]) -> Perm:
    """Permutation mapping each cycle entry to its successor; other points fixed."""
    if degree < 1:
        raise EmptyDegree("degree must be >= 1")
    images = list(range(1, degree + 1))
    seen: set[int] = set()
    for cycle in cycles:
        for pt in cycle:
            if not 1 <= pt <= degree:
                raise PointOutOfRange(f"point {pt} outside 1..{degree}")
            if pt in seen:
                raise DuplicatePoint(f"point {pt} appears twice")
            seen.add(pt)
        if len(cycle) < 2:
            continue
        for i, pt in enumerate(cycle):
            images[pt - 1] = cycle[(i + 1) % len(cycle)]
    return Perm(tuple(images), _checked=True)


def parse_cycles(text: str) -> list[list[int]]:
    """Parse ``(1 2 3)(4 5)`` into cycle lists; ``()`` is the identity."""
    cycles: list[list[int]] = []
    rest = text.strip()
    while rest:
        if not rest.startswith("("):
            raise ValueError(f"expected '(' in cycle expression: {text!r}")
        end = rest.find(")")
        if end < 0:
            raise ValueError(f"unbalanced '(' in cycle expression: {text!r}")
        body = rest[1:end].replace(",", " ").split()
        try:
            cycle = [int(tok) for tok in body]
        except ValueError:
            raise ValueError(f"non-integer point in cycle expression: {text!r}") from None
        if cycle:
            cycles.append(cycle)
        rest = rest[end + 1 :].strip()
    return cycles


def format_perm(p: Perm) -> str:
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(pt) for pt in c) + ")" for c in cycles)


def conjugate(h: Perm, g: Perm) -> Perm:
    """The conjugate of h by g under the right action: g^-1 * h * g."""
    if h.degree != g.degree:
        raise DegreeMismatch("conjugation requires equal degrees")
    return Perm(conjugate_tuple(h.images, g.images), _checked=True)


def commutator(x: Perm, y: Perm) -> Perm:
    """x^-1 * y^-1 * x * y."""
    return x.inverse() * y.inverse() * x * y
