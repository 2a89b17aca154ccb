"""Stabilizer chains: deterministic Schreier-Sims with explicit transversals.

Base points are chosen as the first moved points in natural order unless a
hint is supplied. Transversal entries are never overwritten once created,
which keeps earlier sift verdicts valid while the chain grows and makes the
whole construction deterministic. Permutations are image tuples throughout.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Iterator, Sequence

from .errors import InvariantViolated, PointOutOfRange
from .perm import compose_tuples, identity_tuple, inverse_tuple

__all__ = ["StabilizerChain", "build_chain"]

Images = tuple[int, ...]


class _Level:
    __slots__ = ("base", "gens", "transversal", "verified_points", "verified_gens")

    def __init__(self, base: int, ident: Images):
        self.base = base
        self.gens: list[Images] = []
        # point -> (u, u^-1) with base^u == point
        self.transversal: dict[int, tuple[Images, Images]] = {base: (ident, ident)}
        # watermark of Schreier pairs already sifted successfully
        self.verified_points = 0
        self.verified_gens = 0

    def copy(self) -> "_Level":
        other = _Level.__new__(_Level)
        other.base = self.base
        other.gens = list(self.gens)
        other.transversal = dict(self.transversal)
        other.verified_points = self.verified_points
        other.verified_gens = self.verified_gens
        return other


def _extend_transversal(lvl: _Level) -> None:
    frontier = list(lvl.transversal)
    while frontier:
        nxt = []
        for pt in frontier:
            t = lvl.transversal[pt][0]
            for g in lvl.gens:
                img = g[pt - 1]
                if img not in lvl.transversal:
                    u = compose_tuples(t, g)
                    lvl.transversal[img] = (u, inverse_tuple(u))
                    nxt.append(img)
        frontier = nxt


def _sift_from(levels: list[_Level], p: Images, i: int) -> tuple[Images, int]:
    while i < len(levels):
        lvl = levels[i]
        img = p[lvl.base - 1]
        if img != lvl.base:  # the base point's own entry is the identity
            entry = lvl.transversal.get(img)
            if entry is None:
                return p, i
            p = compose_tuples(p, entry[1])
        i += 1
    return p, len(levels)


def _add_strong_generator(levels: list[_Level], ident: Images, r: Images, j: int) -> None:
    # r fixes the bases of levels 0..j-1, so it is a valid generator there too
    if j == len(levels):
        base = next(pt for pt, img in enumerate(r, 1) if img != pt)
        levels.append(_Level(base, ident))
    for m in range(j + 1):
        lvl = levels[m]
        if r not in lvl.gens:
            lvl.gens.append(r)


def _verify_level(levels: list[_Level], ident: Images, i: int) -> int | None:
    """Sift the unchecked Schreier generators of level i.

    Returns the deepest modified level on the first failure, or None once
    every Schreier generator of this level sifts to the identity.
    """
    lvl = levels[i]
    _extend_transversal(lvl)
    points = list(lvl.transversal)
    gens = lvl.gens
    n_points, n_gens = len(points), len(gens)
    vp, vg = lvl.verified_points, lvl.verified_gens
    for pi in range(n_points):
        pt = points[pi]
        t = lvl.transversal[pt][0]
        for gi in range(n_gens):
            if pi < vp and gi < vg:
                continue
            g = gens[gi]
            img = g[pt - 1]
            sg = compose_tuples(compose_tuples(t, g), lvl.transversal[img][1])
            if sg == ident:
                continue
            r, j = _sift_from(levels, sg, i + 1)
            if r != ident:
                _add_strong_generator(levels, ident, r, j)
                return j
    lvl.verified_points = n_points
    lvl.verified_gens = n_gens
    return None


def _complete(levels: list[_Level], ident: Images) -> None:
    i = len(levels) - 1
    while i >= 0:
        stuck = _verify_level(levels, ident, i)
        i = i - 1 if stuck is None else stuck


class StabilizerChain:
    """Base, strong generators, and transversals for a permutation group."""

    __slots__ = ("degree", "levels", "ident")

    def __init__(self, degree: int, levels: list[_Level], ident: Images):
        self.degree = degree
        self.levels = levels
        self.ident = ident

    def order(self) -> int:
        return prod(len(lvl.transversal) for lvl in self.levels)

    def contains(self, p: Images) -> bool:
        return _sift_from(self.levels, p, 0)[0] == self.ident

    def stabilizer_generators(self) -> list[Images]:
        """Generators of the stabilizer of the first base point."""
        if len(self.levels) < 2:
            return []
        return list(self.levels[1].gens)

    def iter_elements(self) -> Iterator[Images]:
        """Each element exactly once, as a product of transversal entries."""
        if not self.levels:
            yield self.ident
            return

        def rec(idx: int, acc: Images) -> Iterator[Images]:
            if idx < 0:
                yield acc
                return
            lvl = self.levels[idx]
            for pt in sorted(lvl.transversal):
                yield from rec(idx - 1, compose_tuples(acc, lvl.transversal[pt][0]))

        yield from rec(len(self.levels) - 1, self.ident)

    def walks_sorted(self) -> bool:
        """True when ``iter_sorted_elements`` can walk this chain: the base
        ascends and each level's stabilizer fixes every point below that
        level's base point (as a base 1, 2, .., k always does)."""
        bases = [lvl.base for lvl in self.levels]
        return bases == sorted(bases) and all(
            g[p - 1] == p for lvl in self.levels for g in lvl.gens for p in range(1, lvl.base)
        )

    def iter_sorted_elements(self) -> Iterator[Images]:
        """Each element exactly once, in ascending image-tuple order.

        Needs ``walks_sorted()``. An element is u_k * .. * u_1 with u_i from
        level i's transversal, and its images of the points below level i's
        base are fixed by u_1 .. u_(i-1) alone (the later factors fix those
        points). So the children of a prefix, sorted as tuples, differ first
        at that base's image, and a depth-first walk over sorted children is
        the sorted order (Sims's lexicographic coset representatives). The
        walk keeps an explicit stack of iterators, one per level; levels
        with a trivial transversal are skipped.
        """
        if not self.walks_sorted():
            raise InvariantViolated("sorted element walk needs an ascending base")
        reps = [
            [u for u, _ in lvl.transversal.values()]
            for lvl in self.levels
            if len(lvl.transversal) > 1
        ]
        if not reps:
            yield self.ident
            return
        depth_of_leaves = len(reps)
        stack = [iter(sorted(reps[0]))]
        while stack:
            prefix = next(stack[-1], None)
            if prefix is None:
                stack.pop()
            elif len(stack) == depth_of_leaves:
                yield prefix
            else:
                stack.append(iter(sorted([compose_tuples(u, prefix) for u in reps[len(stack)]])))

    def extended(self, new_gens: Iterable[Images]) -> "StabilizerChain":
        """A new chain for the group generated by this one plus new_gens."""
        levels = [lvl.copy() for lvl in self.levels]
        ident = self.ident
        changed = False
        for g in new_gens:
            if g == ident:
                continue
            r, j = _sift_from(levels, g, 0)
            if r != ident:
                _add_strong_generator(levels, ident, r, j)
                changed = True
        if not changed:
            return self
        _complete(levels, ident)
        return StabilizerChain(self.degree, levels, ident)


def build_chain(degree: int, generators: Sequence[Images], base_hint: tuple[int, ...] = ()) -> StabilizerChain:
    ident = identity_tuple(degree)
    for b in base_hint:
        if not 1 <= b <= degree:
            raise PointOutOfRange(f"base point {b} outside 1..{degree}")
    if len(set(base_hint)) != len(base_hint):
        raise PointOutOfRange("base hint points must be distinct")
    levels = [_Level(b, ident) for b in base_hint]
    for g in generators:
        if g == ident:
            continue
        r, j = _sift_from(levels, g, 0)
        if r != ident:
            _add_strong_generator(levels, ident, r, j)
    _complete(levels, ident)
    chain = StabilizerChain(degree, levels, ident)
    if not all(chain.contains(g) for g in generators):
        raise InvariantViolated("stabilizer chain misses one of its generators")
    return chain
