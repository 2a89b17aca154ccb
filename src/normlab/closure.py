"""Element-set closure helpers on raw image tuples.

These are the hot loops behind subgroup enumeration; they work on plain
tuples to avoid object overhead.
"""

from __future__ import annotations

from typing import Iterable

from .perm import compose_tuples, identity_tuple

__all__ = ["mulclose", "dimino_extend"]


def mulclose(degree: int, gens: Iterable[tuple[int, ...]], cap: int | None = None):
    """Closure of the generators under multiplication, by plain BFS.

    Returns the element set, or None if a cap was given and exceeded.
    """
    ident = identity_tuple(degree)
    gens = [g for g in gens if g != ident]
    els: set[tuple[int, ...]] = {ident}
    els.update(gens)
    frontier = list(els)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose_tuples(x, g)
                if y not in els:
                    els.add(y)
                    if cap is not None and len(els) > cap:
                        return None
                    nxt.append(y)
        frontier = nxt
    return els


def dimino_extend(
    base_set: Iterable[tuple[int, ...]],
    gens: list[tuple[int, ...]],
    new_gens: list[tuple[int, ...]],
    cap: int | None = None,
    full_set: frozenset | None = None,
):
    """Element set of the group generated by a known subgroup and extra elements.

    base_set must be a subgroup's full element set and gens must contain a
    generating set for base_set plus new_gens; growth is by whole right
    cosets of the base. If cap is given and exceeded, full_set is returned
    (caller guarantees the closure is then the full ambient group).
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
                if cap is not None and len(els) > cap:
                    return full_set
                frontier.append(t)
    return els
