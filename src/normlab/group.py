"""Permutation groups backed by a stabilizer chain.

A Group is immutable once constructed; its chain is built on first demand
under a lock, so first use from concurrent workers is safe, unless
``Group.from_chain`` hands it a chain already known. Derived data (the
sorted element list and its set, structural subgroups) is memoized.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator, Sequence

from .chain import StabilizerChain, build_chain
from .closure import act_on_point, dimino_extend, orbit
from .errors import DegreeMismatch, EmptyDegree, InvariantViolated, OrderTooLarge, PointOutOfRange
from .limits import get_limits
from .perm import Perm, conjugate_tuple, identity_tuple

__all__ = ["Group", "trivial_group"]


class Group:
    """A finite permutation group on the points 1..degree.

    Generators are kept as image tuples (``generator_tuples``); the public
    ``generators`` wraps them as ``Perm`` objects.
    """

    __slots__ = ("degree", "generator_tuples", "_chain", "_lock", "_cache")

    def __init__(self, degree: int, generators: Sequence[Perm]):
        if degree < 1:
            raise EmptyDegree("group degree must be >= 1")
        gens = tuple(g.images for g in generators)
        for g in gens:
            if len(g) != degree:
                raise DegreeMismatch(
                    f"generator of degree {len(g)} in group of degree {degree}"
                )
        self.degree = degree
        self.generator_tuples = gens
        self._chain: StabilizerChain | None = None
        self._lock = threading.Lock()
        self._cache: dict = {}

    @classmethod
    def from_generator_tuples(cls, degree: int, gens: Iterable[tuple[int, ...]]) -> Group:
        """The group generated by the given image tuples of this degree."""
        group = cls(degree, ())
        group.generator_tuples = tuple(gens)
        return group

    @classmethod
    def from_chain(cls, chain: StabilizerChain, gens: Iterable[tuple[int, ...]]) -> Group:
        """The group generated by ``gens``, whose stabilizer chain is ``chain``."""
        group = cls.from_generator_tuples(chain.degree, gens)
        group._chain = chain
        return group

    # -- chain plumbing ----------------------------------------------------

    @property
    def chain(self) -> StabilizerChain:
        chain = self._chain
        if chain is None:
            with self._lock:
                chain = self._chain
                if chain is None:
                    chain = build_chain(self.degree, self.generator_tuples)
                    self._chain = chain
        return chain

    def cached(self, key, thunk: Callable):
        try:
            return self._cache[key]
        except KeyError:
            value = thunk()
            self._cache[key] = value
            return value

    # -- core queries --------------------------------------------------------

    @property
    def generators(self) -> tuple[Perm, ...]:
        return tuple(Perm(t, _checked=True) for t in self.generator_tuples)

    def order(self) -> int:
        cached = self._cache.get("order")
        if cached is None:
            elems = self._cache.get("elements")
            cached = len(elems) if elems is not None else self.chain.order()
            self._cache["order"] = cached
        return cached

    def contains(self, p: Perm) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatch(
                f"element of degree {p.degree} vs group of degree {self.degree}"
            )
        return self.contains_tuple(p.images)

    def contains_tuple(self, t: tuple[int, ...]) -> bool:
        elems = self._cache.get("elements")
        if elems is not None:
            return t in elems
        return self.chain.contains(t)

    def __contains__(self, p: Perm) -> bool:
        return self.contains(p)

    def elements(self) -> Iterator[Perm]:
        """Every element exactly once, in sorted image-tuple order."""
        for t in self.sorted_element_tuples():
            yield Perm(t, _checked=True)

    def element_tuples(self) -> frozenset[tuple[int, ...]]:
        """The set of all elements as raw image tuples (cached)."""
        cached = self._cache.get("elements")
        if cached is None:
            cached = self._cache["elements"] = frozenset(self.sorted_element_tuples())
        return cached

    def sorted_element_tuples(self) -> list[tuple[int, ...]]:
        """The elements as image tuples in ascending order (cached): the one
        element order that every order-dependent search walks, read off the
        chain's walk."""
        cached = self._cache.get("sorted_elements")
        if cached is None:
            bound = get_limits().enum_bound
            if self.order() > bound:
                raise OrderTooLarge(f"group order {self.order()} exceeds bound {bound}")
            cached = self._cache["sorted_elements"] = list(self.chain.iter_elements())
        return cached

    def sorted_element_stream(self) -> Iterator[tuple[int, ...]]:
        """The elements as image tuples in the order of
        ``sorted_element_tuples``, one at a time from the chain's walk:
        neither the element set nor the sorted list is built, so no
        enumeration bound applies."""
        cached = self._cache.get("sorted_elements")
        if cached is not None:
            return iter(cached)
        return self.chain.walk()

    def sorted_elements(self) -> list[Perm]:
        return [Perm(t, _checked=True) for t in self.sorted_element_tuples()]

    def orbit(self, point: int) -> set[int]:
        """Orbit of a point under the generator closure."""
        if not 1 <= point <= self.degree:
            raise PointOutOfRange(f"point {point} outside 1..{self.degree}")
        return set(orbit(point, self.generator_tuples, act_on_point))

    def is_transitive(self) -> bool:
        return len(self.orbit(1)) == self.degree

    def point_stabilizer(self, point: int) -> Group:
        """The subgroup fixing the given point: the stabilizer of point 1 in
        the group relabelled by the transposition (1 point), relabelled back."""
        if not 1 <= point <= self.degree:
            raise PointOutOfRange(f"point {point} outside 1..{self.degree}")
        swap = list(range(1, self.degree + 1))
        swap[0], swap[point - 1] = point, 1
        swap = tuple(swap)
        relabelled = build_chain(self.degree, [conjugate_tuple(g, swap) for g in self.generator_tuples])
        gens = [conjugate_tuple(g, swap) for g in relabelled.stabilizer_generators()]
        return Group.from_generator_tuples(self.degree, gens)

    def conjugacy_class_reps(self) -> list[Perm]:
        """The smallest tuple of each conjugacy class, in ascending order.

        Walks the sorted element stream and stops once the classes met cover
        the group; the classes are held as element sets, so the order must
        stay under the enumeration bound."""
        order = self.order()
        bound = get_limits().enum_bound
        if order > bound:
            raise OrderTooLarge(f"group order {order} exceeds bound {bound}")
        gens = self.generator_tuples
        seen: set[tuple[int, ...]] = set()
        reps: list[Perm] = []
        for t in self.sorted_element_stream():
            if t not in seen:
                reps.append(Perm(t, _checked=True))
                seen.update(orbit(t, gens, conjugate_tuple))
                if len(seen) == order:
                    break
        return reps

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_element_tuples(cls, degree: int, elems: Iterable[tuple[int, ...]]) -> Group:
        """Build a group from its full element set, with small canonical generators."""
        group = cls(degree, ())
        elem_set = group._cache["elements"] = frozenset(elems)
        group._cache["order"] = len(elem_set)
        ordered = group._cache["sorted_elements"] = sorted(elem_set)
        gens, closed = _canonical_generators(degree, ordered)
        if closed != elem_set:
            raise InvariantViolated("element set is not closed under multiplication")
        group.generator_tuples = group._cache["canonical_gens"] = tuple(gens)
        return group

    def canonical_generators(self) -> tuple[Perm, ...]:
        """A deterministic small generating sequence (greedy over sorted elements)."""
        gens = self.cached(
            "canonical_gens",
            lambda: tuple(_canonical_generators(self.degree, self.sorted_element_tuples())[0]),
        )
        return tuple(Perm(t, _checked=True) for t in gens)

    def __repr__(self) -> str:
        shown = ", ".join(str(g) for g in self.generators[:4])
        if len(self.generators) > 4:
            shown += ", ..."
        return f"Group(degree={self.degree}, gens=[{shown}])"


def _canonical_generators(
    degree: int, sorted_elems: list[tuple[int, ...]]
) -> tuple[list[tuple[int, ...]], set[tuple[int, ...]]]:
    closed: set[tuple[int, ...]] = {identity_tuple(degree)}
    gens: list[tuple[int, ...]] = []
    for t in sorted_elems:
        if t in closed:
            continue
        gens.append(t)
        closed = dimino_extend(closed, gens, [t])
        if len(closed) == len(sorted_elems):
            break
    return gens, closed


def trivial_group(degree: int) -> Group:
    return Group(degree, ())
