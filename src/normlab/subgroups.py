"""Relative subgroup operations inside an ambient group.

Generation, intersection, normal closure, core, centralizer, normalizer,
full subgroup enumeration, minimal normal subgroups, and simplicity.
All functions are pure over immutable inputs.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import NamedTuple, Sequence

from .arith import is_prime, is_prime_power
from .chain import StabilizerChain, build_chain
from .closure import act_on_point, dimino_extend, orbit
from .errors import AmbientMismatch, NotASubgroup, OrderTooLarge
from .group import Group, trivial_group
from .limits import get_limits
from .perm import Perm, compose_tuples, conjugate_tuple, format_perm, identity_tuple, inverse_tuple

__all__ = [
    "Subgroup",
    "subgroup",
    "whole",
    "trivial_subgroup",
    "conjugate_subgroup",
    "join",
    "intersection",
    "normal_closure",
    "core",
    "centralizer",
    "center",
    "normalizer",
    "is_normal",
    "SubgroupClass",
    "enumerate_subgroups",
    "subgroup_classes",
    "minimal_normal_subgroups",
    "is_simple",
    "subgroup_le",
    "subgroups_equal",
    "fingerprint",
]


class Subgroup:
    """A group tagged with the ambient group it lives in."""

    __slots__ = ("ambient", "carrier")

    def __init__(self, ambient: Group, carrier: Group):
        self.ambient = ambient
        self.carrier = carrier

    def order(self) -> int:
        return self.carrier.order()

    @property
    def generators(self) -> tuple[Perm, ...]:
        return self.carrier.generators

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order()} of order-{self.ambient.order()} ambient)"


def _same_group(a: Group, b: Group) -> bool:
    return a is b or (a.degree == b.degree and a.generator_tuples == b.generator_tuples)


def _check_ambient(ambient: Group, *subs: Subgroup) -> None:
    for s in subs:
        if not _same_group(ambient, s.ambient):
            raise AmbientMismatch("subgroup belongs to a different ambient group")


def subgroup(ambient: Group, gens: Sequence[Perm], check: bool = True) -> Subgroup:
    """Subgroup of the ambient group generated by the given permutations."""
    if check:
        for g in gens:
            if not ambient.contains(g):
                raise NotASubgroup(f"generator {format_perm(g)} not in the ambient group")
    return Subgroup(ambient, Group(ambient.degree, gens))


def whole(G: Group) -> Subgroup:
    return Subgroup(G, G)


def trivial_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, trivial_group(G.degree))


def conjugate_subgroup(H: Subgroup, g: Perm) -> Subgroup:
    gens = [conjugate_tuple(h, g.images) for h in H.carrier.generator_tuples]
    return Subgroup(H.ambient, Group.from_generator_tuples(H.ambient.degree, gens))


def subgroup_le(A: Subgroup, B: Subgroup) -> bool:
    """True when A is contained in B (same ambient assumed)."""
    return all(B.carrier.contains_tuple(g) for g in A.carrier.generator_tuples)


def subgroups_equal(A: Subgroup, B: Subgroup) -> bool:
    return A.order() == B.order() and subgroup_le(A, B)


def fingerprint(S: Subgroup) -> str:
    """Deterministic short description: order plus a canonical generator list."""
    limits = get_limits()
    if S.order() <= limits.enum_bound:
        gens = S.carrier.canonical_generators()
    else:
        gens = S.generators
    if not gens:
        return "1:()"
    return f"{S.order()}:" + ",".join(format_perm(g) for g in gens)


def _subgroup_sort_key(S: Subgroup):
    return (S.order(), S.carrier.sorted_element_tuples())


# -- generation and intersection ---------------------------------------------


def join(ambient: Group, A: Subgroup, B: Subgroup) -> Subgroup:
    """Subgroup generated by the union of the two generator sets."""
    _check_ambient(ambient, A, B)
    gens = list(A.carrier.generator_tuples)
    for g in B.carrier.generator_tuples:
        if g not in gens:
            gens.append(g)
    return Subgroup(ambient, Group.from_generator_tuples(ambient.degree, gens))


def intersection(ambient: Group, A: Subgroup, B: Subgroup) -> Subgroup:
    """Exact intersection, by enumerating the smaller factor."""
    _check_ambient(ambient, A, B)
    bound = get_limits().enum_bound
    small, big = (A, B) if A.order() <= B.order() else (B, A)
    if small.order() > bound:
        raise OrderTooLarge(
            f"both intersection factors exceed the enumeration bound {bound}"
        )
    common = {t for t in small.carrier.element_tuples() if big.carrier.contains_tuple(t)}
    return Subgroup(ambient, Group.from_element_tuples(ambient.degree, common))


def normal_closure(ambient: Group, A: Subgroup) -> Subgroup:
    """Smallest normal subgroup of the ambient group containing A.

    Generators of A and conjugates of kept generators by ambient generators
    are queued; only those outside the chain so far are kept, so the
    generator list stays short however many elements are queued.
    """
    _check_ambient(ambient, A)
    chain = build_chain(ambient.degree, ())
    gens: list[tuple[int, ...]] = []
    queue = list(A.carrier.generator_tuples)
    qi = 0
    while qi < len(queue):
        h = queue[qi]
        qi += 1
        if chain.contains(h):
            continue
        gens.append(h)
        chain = chain.extended([h])
        queue.extend(conjugate_tuple(h, g) for g in ambient.generator_tuples)
    if not gens:
        return trivial_subgroup(ambient)
    carrier = Group.from_generator_tuples(ambient.degree, gens)
    carrier._chain = chain
    return Subgroup(ambient, carrier)


def core(ambient: Group, H: Subgroup) -> Subgroup:
    """Largest normal subgroup of the ambient group contained in H."""
    _check_ambient(ambient, H)
    K = set(H.carrier.element_tuples())
    gen_invs = [inverse_tuple(g) for g in ambient.generator_tuples]
    changed = True
    while changed and len(K) > 1:
        changed = False
        for ginv in gen_invs:
            K2 = {x for x in K if conjugate_tuple(x, ginv) in K}
            if len(K2) != len(K):
                K = K2
                changed = True
    return Subgroup(ambient, Group.from_element_tuples(ambient.degree, K))


def centralizer(ambient: Group, A: Subgroup) -> Subgroup:
    """Elements of the ambient group commuting with every element of A, by a
    backtrack over the stabilizer chain; the result is built as an element
    set, so the ambient order stays under the enumeration bound."""
    _check_ambient(ambient, A)
    bound = get_limits().enum_bound
    if ambient.order() > bound:
        raise OrderTooLarge(f"centralizer search needs order <= {bound}")
    ident = identity_tuple(ambient.degree)
    targets = [g for g in A.carrier.generator_tuples if g != ident]
    if not targets:
        return whole(ambient)
    cent = _centralizer_backtrack(ambient.chain, targets)
    return Subgroup(ambient, Group.from_element_tuples(ambient.degree, cent))


def _centralizer_backtrack(
    chain: StabilizerChain, targets: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """The chain's elements that commute with every target.

    Once levels 0..i are chosen, the prefix m fixes the images of the base
    points b_0..b_i. A centralizing element c has c(h(x)) = h(c(x)), so for
    every target h and assigned base point x with h(x) also assigned,
    m(h(x)) must equal h(m(x)); each level checks the pairs that its base
    point completes. The full commuting test runs at the leaves.
    """
    levels = chain.levels
    if not levels:
        return [chain.ident]
    bases = [lvl.base for lvl in levels]
    checks = []
    for i, b in enumerate(bases):
        assigned = set(bases[: i + 1])
        checks.append([
            (h, x, h[x - 1])
            for h in targets
            for x in assigned
            if h[x - 1] in assigned and b in (x, h[x - 1])
        ])
    transversals = [[u for u, _ in lvl.transversal.values()] for lvl in levels]
    n_levels = len(levels)
    found: list[tuple[int, ...]] = []

    def dfs(i: int, m: tuple[int, ...]) -> None:
        if i == n_levels:
            if all(compose_tuples(m, h) == compose_tuples(h, m) for h in targets):
                found.append(m)
            return
        for u in transversals[i]:
            m2 = compose_tuples(u, m)
            if all(m2[hx - 1] == h[m2[x - 1] - 1] for h, x, hx in checks[i]):
                dfs(i + 1, m2)

    dfs(0, chain.ident)
    return found


def center(G: Group) -> Subgroup:
    return G.cached("center", lambda: centralizer(G, whole(G)))


def is_normal(ambient: Group, H: Subgroup) -> bool:
    """True when conjugation by every ambient generator preserves H."""
    _check_ambient(ambient, H)
    return all(
        H.carrier.contains_tuple(conjugate_tuple(h, g))
        for h in H.carrier.generator_tuples
        for g in ambient.generator_tuples
    )


# -- normalizer ---------------------------------------------------------------


def normalizer(ambient: Group, H: Subgroup) -> Subgroup:
    """The set of ambient elements g with H^g == H, by a pruned backtrack
    over the stabilizer chain, memoized on the ambient group by H's element set."""
    _check_ambient(ambient, H)
    bound = get_limits().enum_bound
    if ambient.order() > bound:
        raise OrderTooLarge(
            f"normalizer search: group order {ambient.order()} exceeds bound {bound}"
        )
    if H.order() == 1:
        return whole(ambient)
    if is_normal(ambient, H):
        return whole(ambient)
    return ambient.cached(
        ("normalizer", H.carrier.element_tuples()),
        lambda: Subgroup(
            ambient, Group.from_element_tuples(ambient.degree, _normalizer_backtrack(ambient, H))
        ),
    )


def _normalizer_backtrack(ambient: Group, H: Subgroup) -> set[tuple[int, ...]]:
    chain = ambient.chain
    levels = chain.levels
    degree = ambient.degree
    ident = identity_tuple(degree)
    if not levels:
        return {ident}

    # H-orbit structure on points: a normalizing element must map orbits to
    # orbits of equal size, injectively
    h_gens = [g for g in H.carrier.generator_tuples if g != ident]
    orbit_id = [-1] * (degree + 1)
    orbit_sizes: list[int] = []
    for pt in range(1, degree + 1):
        if orbit_id[pt] < 0:
            orb = orbit(pt, h_gens, act_on_point)
            for y in orb:
                orbit_id[y] = len(orbit_sizes)
            orbit_sizes.append(len(orb))

    H_set = H.carrier.element_tuples()
    found: list[tuple[int, ...]] = []
    n_levels = len(levels)
    transversals = [
        [lvl.transversal[pt][0] for pt in sorted(lvl.transversal)] for lvl in levels
    ]

    def dfs(idx: int, m: tuple[int, ...], omap: dict[int, int], used: set[int]) -> None:
        if idx == n_levels:
            if all(conjugate_tuple(h, m) in H_set for h in h_gens):
                found.append(m)
            return
        base = levels[idx].base
        o_src = orbit_id[base]
        for t in transversals[idx]:
            m2 = compose_tuples(t, m)
            o_dst = orbit_id[m2[base - 1]]
            if orbit_sizes[o_src] != orbit_sizes[o_dst]:
                continue
            committed = omap.get(o_src)
            if committed is not None:
                if committed != o_dst:
                    continue
                dfs(idx + 1, m2, omap, used)
            else:
                if o_dst in used:
                    continue
                omap2 = dict(omap)
                omap2[o_src] = o_dst
                dfs(idx + 1, m2, omap2, used | {o_dst})

    dfs(0, ident, {}, set())
    return set(found)


# -- subgroup enumeration ------------------------------------------------------


class SubgroupClass(NamedTuple):
    """One conjugacy class of subgroups: its representative and the element
    sets of all its members, the representative's first."""

    representative: Subgroup
    members: tuple[frozenset, ...]


def enumerate_subgroups(G: Group) -> list[Subgroup]:
    """All subgroups, each exactly once, sorted by (order, element set).

    The lattice is built one conjugacy class of subgroups at a time. Every
    cyclic subgroup seeds a class, and each class representative X is joined
    with the cyclic subgroups of prime-power order (the same fixed point as
    closing under all pairwise joins, since every subgroup is generated by
    its elements of prime-power order). Only one cyclic per N_G(X)-orbit is
    joined: for n in N_G(X) the join of X with C^n is the join with C
    conjugated by n. Each new class is entered whole as the conjugation
    orbit of its representative; ``subgroup_classes`` returns the classes.
    """
    return _lattice(G)[0]


def subgroup_classes(G: Group) -> list[SubgroupClass]:
    """The conjugacy classes of subgroups behind ``enumerate_subgroups``,
    in the order the lattice met them (the trivial subgroup first)."""
    return _lattice(G)[1]


def _lattice(G: Group) -> tuple[list[Subgroup], list[SubgroupClass]]:
    def compute():
        limits = get_limits()
        n = G.order()
        if n > limits.subgroup_bound:
            raise OrderTooLarge(
                f"subgroup enumeration needs order <= {limits.subgroup_bound}"
            )
        degree = G.degree
        ident = identity_tuple(degree)
        full = G.element_tuples()
        half_cap = n // 2
        gen_tuples = [g for g in G.generator_tuples if g != ident]

        cyclics: dict[frozenset, tuple[int, ...]] = {}  # key -> first generator met
        for t in G.sorted_element_tuples():
            if t == ident:
                continue
            powers = [ident]
            x = t
            while x != ident:
                powers.append(x)
                x = compose_tuples(x, t)
            cyclics.setdefault(frozenset(powers), t)
        pp_cyclics = [(key, t) for key, t in cyclics.items() if is_prime_power(len(key))]

        def conjugate_key(key: frozenset, g: tuple[int, ...]) -> frozenset:
            return frozenset(conjugate_tuple(x, g) for x in key)

        found: set[frozenset] = set()  # every subgroup met, whole classes only
        records: list[SubgroupClass] = []

        def enter_class(key: frozenset) -> None:
            members = tuple(orbit(key, gen_tuples, conjugate_key))
            found.update(members)
            rep = Subgroup(G, Group.from_element_tuples(degree, key))
            records.append(SubgroupClass(rep, members))

        enter_class(frozenset([ident]))
        for key in cyclics:
            if key not in found:
                enter_class(key)
        # found holds whole classes (cyclic subgroups conjugate to cyclic
        # ones), so a join not in it starts a new class; records grows while
        # it is walked, as joins enter classes
        for rec in records:
            X_sub = rec.representative
            X = X_sub.carrier.element_tuples()
            X_gens = list(X_sub.carrier.generator_tuples)
            N_gens = normalizer(G, X_sub).carrier.generator_tuples
            tried: set[frozenset] = set()  # cyclics in an N_G(X)-orbit already joined
            for ckey, cgen in pp_cyclics:
                if cgen in X or ckey in tried:
                    continue
                tried.update(orbit(ckey, N_gens, conjugate_key))
                J = dimino_extend(X, X_gens, [cgen], cap=half_cap, full_set=full)
                Jkey = J if isinstance(J, frozenset) else frozenset(J)
                if Jkey not in found:
                    enter_class(Jkey)
        built = []
        for rec in records:
            built.append(rec.representative)
            built.extend(
                Subgroup(G, Group.from_element_tuples(degree, key)) for key in rec.members[1:]
            )
        return sorted(built, key=_subgroup_sort_key), records

    return G.cached("subgroup_lattice", compute)


# -- normal structure -----------------------------------------------------------


def minimal_normal_subgroups(G: Group) -> list[Subgroup]:
    """Inclusion-minimal non-trivial normal subgroups, sorted by order and
    then by element list.

    Candidates are normal closures of single elements of prime order, one
    per conjugacy class (the closure only depends on the class): a minimal
    normal subgroup is the closure of any of its elements of prime order.
    """

    def compute():
        closures: list[Subgroup] = []
        for rep in G.conjugacy_class_reps():
            if not is_prime(rep.order()):
                continue
            N = normal_closure(G, subgroup(G, [rep], check=False))
            if not any(subgroups_equal(N, M) for M in closures):
                closures.append(N)
        minimal = [
            N
            for N in closures
            if not any(
                M.order() < N.order() and subgroup_le(M, N) for M in closures
            )
        ]
        return sorted(minimal, key=cmp_to_key(_compare_element_streams))

    return G.cached("minimal_normals", compute)


def _compare_element_streams(A: Subgroup, B: Subgroup) -> int:
    """Order first, then the sorted element lists, read lazily from the
    streams only when the orders tie."""
    if A.order() != B.order():
        return -1 if A.order() < B.order() else 1
    for a, b in zip(A.carrier.sorted_element_stream(), B.carrier.sorted_element_stream()):
        if a != b:
            return -1 if a < b else 1
    return 0


def is_simple(G: Group) -> bool:
    """True when |G| > 1 and G is its only minimal normal subgroup."""
    return G.order() > 1 and [M.order() for M in minimal_normal_subgroups(G)] == [G.order()]
