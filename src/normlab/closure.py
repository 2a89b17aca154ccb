"""Element-set closure helpers on raw image tuples.

These are the hot loops behind subgroup enumeration; they work on plain
tuples to avoid object overhead. ``orbit`` is the one breadth-first walk,
behind orbits, classes, cyclic powers, lattice joins and coset actions.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, TypeVar

from .perm import compose_tuples, identity_tuple

__all__ = ["orbit", "act_on_point", "mulclose", "dimino_extend"]

T = TypeVar("T")


def orbit(
    seed: T, gens: Iterable[tuple[int, ...]], act: Callable[[T, tuple[int, ...]], T]
) -> Iterator[T]:
    """The orbit of seed under the group the generators generate, where
    act(x, g) is x's image under g, yielded lazily in breadth-first order:
    the seed before any act call, then each point as soon as it is met."""
    gens = list(gens)
    found = [seed]
    seen = {seed}
    yield seed
    for x in found:
        for g in gens:
            y = act(x, g)
            if y not in seen:
                seen.add(y)
                found.append(y)
                yield y


def act_on_point(point: int, g: tuple[int, ...]) -> int:
    """The image of a point, as an action for orbit."""
    return g[point - 1]


def mulclose(degree: int, gens: Iterable[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Closure of the generators under multiplication: the orbit of the
    identity under right multiplication."""
    return set(orbit(identity_tuple(degree), gens, compose_tuples))


def dimino_extend(
    base_set: Iterable[tuple[int, ...]],
    gens: list[tuple[int, ...]],
    new_gens: list[tuple[int, ...]],
) -> set[tuple[int, ...]]:
    """Element set of the group generated by a known subgroup and extra elements.

    base_set must be a subgroup's full element set and gens must contain a
    generating set for base_set plus new_gens; growth is by whole right
    cosets of the base, each composed element by element. The subgroup
    lattice does not use it: a join there walks the base's right cosets by
    number and stops once it has reached more than n/(2|base|) of them,
    since a proper subgroup of an order-n group has at most that many.
    """
    base_list = list(base_set)
    els: set[tuple[int, ...]] = set(base_list)
    degree = len(base_list[0]) if base_list else 0
    frontier = [identity_tuple(degree)]
    walk_gens = gens + [g for g in new_gens if g not in gens]
    while frontier:
        r = frontier.pop()
        for s in walk_gens:
            t = compose_tuples(r, s)
            if t not in els:
                els.update(compose_tuples(x, t) for x in base_list)
                frontier.append(t)
    return els
