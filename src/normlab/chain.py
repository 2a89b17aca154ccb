"""Stabilizer chains: deterministic Schreier-Sims with explicit transversals.

Each new base point is the smallest point not yet in the base, and a level
is appended for every such point until one is moved by the residue that
needs it; the levels in between have trivial transversals. Every chain
therefore has the base 1, 2, .., k with every level fixing all smaller
points, so its depth-first walk is ascending; that walk, pruned per node by
its callers and started at any branching level below a given prefix, is the
only search over a chain.
Transversal entries are never overwritten once created, which keeps earlier
sift verdicts valid while the chain grows and makes the whole construction
deterministic. Permutations are image tuples throughout.
"""

from __future__ import annotations

from itertools import repeat
from math import prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvariantViolated
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
        # the bases are 1..len(levels); r fixes them all
        for pt in range(len(levels) + 1, len(r) + 1):
            levels.append(_Level(pt, ident))
            if r[pt - 1] != pt:
                break
        j = len(levels) - 1
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


def _grow(levels: list[_Level], ident: Images, gens: Iterable[Images]) -> bool:
    """Sift each generator and keep what is left of one that does not sift
    to the identity; then complete the levels if one was kept. True when the
    levels changed."""
    changed = False
    for g in gens:
        if g == ident:
            continue
        r, j = _sift_from(levels, g, 0)
        if r != ident:
            _add_strong_generator(levels, ident, r, j)
            changed = True
    if changed:
        _complete(levels, ident)
    return changed


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
        """Every element, for a caller that reads them all: the one full
        enumeration (``walk`` serves readers that may stop early)."""
        return self.walk()

    def branching_levels(self) -> list[_Level]:
        """The levels with a non-trivial transversal, the only ones a walk branches on."""
        return [lvl for lvl in self.levels if len(lvl.transversal) > 1]

    def walk(
        self, prune: Callable | None = None, root: object = None, start: int = 0, node: Images | None = None
    ) -> Iterator[Images]:
        """Every product u_k * .. * u_1 of transversal entries, depth first
        with each prefix's children in ascending order: each element exactly
        once on any chain, from an explicit stack of iterators, one per
        branching level. It is the only depth-first search over a chain:
        ``prune(i, state, children)``, when given, is called once per node
        with its children at branching level i and its state (``root`` at
        the top), and returns the (child, state) pairs to keep; sorted by
        child, they make a pruned walk the full walk minus the cut subtrees.
        ``start`` and ``node`` begin the walk at branching level ``start``
        below the prefix ``node`` (the identity by default), whose state is
        ``root``: the subtree of the elements that agree with ``node`` on
        the base points of the levels above.

        The base ascends and every level fixes each smaller point, so the
        walk is in ascending image-tuple order: an element's images of the
        points below level i's base are fixed by u_1 .. u_(i-1) alone, so the
        sorted children of a prefix differ first at that base's image (Sims's
        lexicographic coset representatives).
        """
        if node is None:
            node = self.ident
        reps = [[u for u, _ in lvl.transversal.values()] for lvl in self.branching_levels()[start:]]
        if not reps:
            yield node
            return
        last = len(reps) - 1
        stack = [iter(((node, root),))]
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                continue
            i = len(stack) - 1
            children = [compose_tuples(u, node[0]) for u in reps[i]]
            if prune is None:
                children.sort()
                kept = children if i == last else zip(children, repeat(None))
            else:
                kept = sorted(prune(start + i, node[1], children), key=itemgetter(0))
                children = [child for child, _ in kept]
            if i == last:
                yield from children
            else:
                stack.append(iter(kept))

    def extended(self, new_gens: Iterable[Images]) -> "StabilizerChain":
        """A new chain for the group generated by this one plus new_gens."""
        levels = [lvl.copy() for lvl in self.levels]
        if not _grow(levels, self.ident, new_gens):
            return self
        return StabilizerChain(self.degree, levels, self.ident)


def build_chain(degree: int, generators: Sequence[Images]) -> StabilizerChain:
    ident = identity_tuple(degree)
    levels: list[_Level] = []
    _grow(levels, ident, generators)
    chain = StabilizerChain(degree, levels, ident)
    if not all(chain.contains(g) for g in generators):
        raise InvariantViolated("stabilizer chain misses one of its generators")
    return chain
