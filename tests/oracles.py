"""Independent brute-force oracles for cross-checking the library.

Everything here works by exhaustive closure over explicit element lists and
never touches stabilizer chains, so agreement with the library is a real
two-path check.
"""

from __future__ import annotations

from itertools import combinations

from normlab.arith import is_prime_power
from normlab.closure import dimino_extend, orbit
from normlab.perm import Perm, compose_tuples, conjugate_tuple, identity_tuple


def mul(a: Perm, b: Perm) -> Perm:
    return Perm(tuple(b.images[x - 1] for x in a.images), _checked=True)


def inv(a: Perm) -> Perm:
    images = [0] * len(a.images)
    for i, x in enumerate(a.images):
        images[x - 1] = i + 1
    return Perm(tuple(images), _checked=True)


def conj(h: Perm, g: Perm) -> Perm:
    return mul(mul(inv(g), h), g)


def mulclose(gens: list[Perm], degree: int) -> set[Perm]:
    """Exhaustive closure of the generators under repeated multiplication."""
    ident = Perm(tuple(range(1, degree + 1)), _checked=True)
    els = {ident}
    els.update(g for g in gens)
    frontier = list(els)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in els:
                    els.add(y)
                    nxt.append(y)
        frontier = nxt
    return els


def brute_order(gens: list[Perm], degree: int) -> int:
    return len(mulclose(gens, degree))


def brute_subgroups_subset_scan(elements: set[Perm]) -> list[frozenset[Perm]]:
    """All subgroups by scanning every element subset; only for tiny groups."""
    elems = sorted(elements)
    n = len(elems)
    assert n <= 16, "subset scan is exponential; keep it tiny"
    ident = next(e for e in elems if e.is_identity())
    out = []
    rest = [e for e in elems if e != ident]
    for r in range(0, n):
        for combo in combinations(rest, r):
            candidate = frozenset((ident,) + combo)
            closed = all(mul(a, b) in candidate for a in candidate for b in candidate)
            if closed:
                out.append(candidate)
    return out


def brute_subgroups_extension(elements: set[Perm]) -> set[frozenset[Perm]]:
    """All subgroups by closing single-element extensions, independent of joins."""
    degree = next(iter(elements)).degree
    ident = Perm(tuple(range(1, degree + 1)), _checked=True)
    found: set[frozenset[Perm]] = {frozenset([ident])}
    frontier = [frozenset([ident])]
    while frontier:
        nxt = []
        for H in frontier:
            for g in elements:
                if g in H:
                    continue
                K = frozenset(mulclose(sorted(H | {g}), degree))
                if K not in found:
                    found.add(K)
                    nxt.append(K)
        frontier = nxt
    return found


def lattice_by_cyclic_joins(G) -> set[frozenset[tuple[int, ...]]]:
    """Element sets of all subgroups of G: each class representative joined
    with every cyclic subgroup of prime-power order, each new class entered
    whole as the conjugation orbit of its representative. The reference for
    the library lattice, which joins only one cyclic per normalizer orbit."""
    ident = identity_tuple(G.degree)
    gens = [g for g in G.generator_tuples if g != ident]
    full = orbit(ident, gens, compose_tuples)  # every element, without a chain
    cyclics: dict[frozenset, tuple[int, ...]] = {}
    for t in sorted(full):
        powers = [ident]
        x = t
        while x != ident:
            powers.append(x)
            x = compose_tuples(x, t)
        cyclics.setdefault(frozenset(powers), t)
    pp_gens = [t for key, t in cyclics.items() if is_prime_power(len(key))]

    def conjugate_key(key, g):
        return frozenset(conjugate_tuple(x, g) for x in key)

    found: set[frozenset] = set()
    reps: list[tuple[frozenset, list[tuple[int, ...]]]] = []

    def enter_class(key, key_gens):
        found.update(orbit(key, gens, conjugate_key))
        reps.append((key, key_gens))

    for key, t in cyclics.items():
        if key not in found:
            enter_class(key, [t] if len(key) > 1 else [])
    for X, X_gens in reps:
        for cgen in pp_gens:
            if cgen not in X:
                J = frozenset(dimino_extend(X, X_gens, [cgen]))
                if J not in found:
                    enter_class(J, X_gens + [cgen])
    return found


def brute_normalizer(ambient: set[Perm], H: set[Perm]) -> set[Perm]:
    return {g for g in ambient if {conj(h, g) for h in H} == set(H)}


def tuple_inv(a: tuple[int, ...]) -> tuple[int, ...]:
    images = [0] * len(a)
    for i, x in enumerate(a):
        images[x - 1] = i + 1
    return tuple(images)


def brute_normalizer_tuples(
    ambient: set[tuple[int, ...]], H: set[tuple[int, ...]]
) -> set[tuple[int, ...]]:
    """brute_normalizer on raw image tuples: g normalizes H when h^g lies in H
    for every h in H, stopping at the first h that does not."""
    found = set()
    for g in ambient:
        g_inv = tuple_inv(g)
        # h^g = g^-1 * h * g, both products in one pass
        if all(tuple([g[h[x - 1] - 1] for x in g_inv]) in H for h in H):
            found.add(g)
    return found


def brute_centralizer(ambient: set[Perm], H: set[Perm]) -> set[Perm]:
    return {g for g in ambient if all(mul(g, h) == mul(h, g) for h in H)}


def brute_center(ambient: set[Perm]) -> set[Perm]:
    return brute_centralizer(ambient, ambient)


def brute_class_reps(ambient: set[Perm]) -> list[tuple[int, ...]]:
    """The smallest image tuple of each conjugacy class, ascending."""
    reps = []
    seen: set[Perm] = set()
    for x in sorted(ambient):
        if x not in seen:
            reps.append(x.images)
            seen.update(conj(x, g) for g in ambient)
    return reps


def brute_minimal_normals(ambient: set[Perm], degree: int) -> list[frozenset[Perm]]:
    """Inclusion-minimal non-trivial normal subgroups: the minimal ones among
    the subgroups generated by single conjugacy classes, sorted by order and
    then by sorted element list."""
    closures: set[frozenset[Perm]] = set()
    seen: set[Perm] = set()
    for x in sorted(ambient):
        if x in seen or x.is_identity():
            continue
        cls = {conj(x, g) for g in ambient}
        seen.update(cls)
        closures.add(frozenset(mulclose(sorted(cls), degree)))
    minimal = [N for N in closures if not any(M < N for M in closures)]
    return sorted(minimal, key=lambda N: (len(N), sorted(N)))


def brute_core(ambient: set[Perm], H: set[Perm]) -> set[Perm]:
    """Largest normal subgroup inside H: elements whose whole class stays in H."""
    return {h for h in H if all(conj(h, g) in H for g in ambient)}


def brute_normal_closure(ambient: set[Perm], gens: list[Perm], degree: int) -> set[Perm]:
    conjugates = [conj(h, g) for h in gens for g in ambient]
    return mulclose(conjugates, degree) if conjugates else mulclose([], degree)


def filter_normalizer(ambient: set[Perm], H_gens: list[Perm], H: set[Perm]) -> set[Perm]:
    """Elements g with h^g in H for every generator h of H (H finite)."""
    return {g for g in ambient if all(conj(h, g) in H for h in H_gens)}
