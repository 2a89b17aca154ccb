"""Relative subgroup operations inside an ambient group.

Generation, intersection, normal closure, core, centralizer, normalizer,
full subgroup enumeration, minimal normal subgroups, and simplicity.
Centralizers and normalizers are subgroup searches over the stabilizer
chain: seeded with a known subgroup, they walk (``StabilizerChain.walk``)
only the subtrees below base images that the subgroup found so far does not
yet reach. Their results, and those of ``normal_closure`` and ``join``,
keep the chain they were found on (``Group.from_chain``). All functions are
pure over immutable inputs.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import islice
from math import gcd
from typing import Callable, NamedTuple, Sequence

from .arith import is_prime_power, primes_dividing
from .chain import StabilizerChain, build_chain
from .closure import act_on_point, orbit
from .errors import AmbientMismatch, NotASubgroup, OrderTooLarge
from .group import Group, trivial_group
from .limits import get_limits
from .perm import (
    Perm,
    compose_tuples,
    conjugate_tuple,
    format_perm,
    identity_tuple,
    inverse_tuple,
    order_of_tuple,
)

__all__ = [
    "Subgroup",
    "subgroup",
    "whole",
    "trivial_subgroup",
    "join",
    "intersection",
    "normal_closure",
    "core",
    "centralizer",
    "center",
    "normalizer",
    "is_normal",
    "non_normalizing_generator",
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


def subgroup(ambient: Group, gens: Sequence[Perm]) -> Subgroup:
    """Subgroup of the ambient group generated by the given permutations."""
    for g in gens:
        if not ambient.contains(g):
            raise NotASubgroup(f"generator {format_perm(g)} not in the ambient group")
    return Subgroup(ambient, Group(ambient.degree, gens))


def whole(G: Group) -> Subgroup:
    return Subgroup(G, G)


def trivial_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, trivial_group(G.degree))


def subgroup_le(A: Subgroup, B: Subgroup) -> bool:
    """True when A is contained in B (same ambient assumed)."""
    return all(B.carrier.contains_tuple(g) for g in A.carrier.generator_tuples)


def subgroups_equal(A: Subgroup, B: Subgroup) -> bool:
    return A.order() == B.order() and subgroup_le(A, B)


def fingerprint(S: Subgroup) -> str:
    """Deterministic short description: order plus a canonical generator
    list, so equal subgroups print identically; OrderTooLarge above the
    enumeration bound."""
    gens = S.carrier.canonical_generators()
    if not gens:
        return "1:()"
    return f"{S.order()}:" + ",".join(format_perm(g) for g in gens)


# -- generation and intersection ---------------------------------------------


def join(ambient: Group, A: Subgroup, B: Subgroup) -> Subgroup:
    """Subgroup generated by both generator sets: A's chain extended by B's."""
    _check_ambient(ambient, A, B)
    gens = list(A.carrier.generator_tuples)
    for g in B.carrier.generator_tuples:
        if g not in gens:
            gens.append(g)
    chain = A.carrier.chain.extended(B.carrier.generator_tuples)
    return Subgroup(ambient, Group.from_chain(chain, gens))


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
    generator list stays short however many elements are queued. A closure
    of the ambient group's order is the ambient group itself, so its caches
    are shared.
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
    if chain.order() == ambient.order():
        return whole(ambient)
    return Subgroup(ambient, Group.from_chain(chain, gens))


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
    subgroup search over the stabilizer chain seeded with the generators of
    A that commute with all of A. The result is the search's chain with its
    strong generators; the ambient order stays under the enumeration bound."""
    _check_ambient(ambient, A)
    ident = identity_tuple(ambient.degree)
    targets = [g for g in A.carrier.generator_tuples if g != ident]
    if not targets:
        return whole(ambient)
    bound = get_limits().enum_bound
    if ambient.order() > bound:
        raise OrderTooLarge(f"centralizer search needs order <= {bound}")
    chain = ambient.chain

    def commutes(m: tuple[int, ...]) -> bool:
        return all(compose_tuples(m, h) == compose_tuples(h, m) for h in targets)

    # a centralizing element c has c(h(x)) = h(c(x)): once the prefix fixes
    # the images of base points x and h(x), they must agree; each branching
    # level checks the pairs completed since the one before it (the base
    # point of a level with a trivial transversal is fixed by the prefix)
    checks = []
    assigned: set[int] = set()
    before: set[int] = set()
    for lvl in chain.levels:
        assigned.add(lvl.base)
        if len(lvl.transversal) == 1:
            continue
        checks.append([
            (h, x, h[x - 1])
            for h in targets
            for x in assigned
            if h[x - 1] in assigned and not (x in before and h[x - 1] in before)
        ])
        before = set(assigned)
    seed = build_chain(ambient.degree, [h for h in targets if commutes(h)])
    cent = _subgroup_search(chain, seed, targets, commutes, checks)
    return Subgroup(ambient, Group.from_chain(cent, cent.strong_generators()))


def center(G: Group) -> Subgroup:
    return G.cached("center", lambda: centralizer(G, whole(G)))


def non_normalizing_generator(actors: Group, H: Group) -> tuple[int, ...] | None:
    """The first generator of actors that conjugates some generator of H out
    of H, or None when actors normalizes H."""
    for g in actors.generator_tuples:
        for h in H.generator_tuples:
            if not H.contains_tuple(conjugate_tuple(h, g)):
                return g
    return None


def is_normal(ambient: Group, H: Subgroup) -> bool:
    """True when conjugation by every ambient generator preserves H."""
    _check_ambient(ambient, H)
    return non_normalizing_generator(ambient, H.carrier) is None


# -- normalizer ---------------------------------------------------------------


def normalizer(ambient: Group, H: Subgroup) -> Subgroup:
    """The ambient elements g with H^g == H, memoized on the ambient group by
    H's element set: the subgroup search seeded with H's chain, whose result
    keeps the chain it found, so its sorted element stream is a lazy walk."""
    _check_ambient(ambient, H)
    if H.order() == 1 or is_normal(ambient, H):
        return whole(ambient)
    bound = get_limits().enum_bound
    if ambient.order() > bound:  # checked for a memoized H too
        raise OrderTooLarge(
            f"normalizer search: group order {ambient.order()} exceeds bound {bound}"
        )
    H_set = H.carrier.element_tuples()

    def search() -> Subgroup:
        chain = ambient.chain
        h_gens = [g for g in H.carrier.generator_tuples if g != chain.ident]

        def normalizes(m: tuple[int, ...]) -> bool:
            return all(conjugate_tuple(h, m) in H_set for h in h_gens)

        found = _subgroup_search(chain, H.carrier.chain, h_gens, normalizes)
        return Subgroup(ambient, Group.from_chain(found, found.strong_generators()))

    return ambient.cached(("normalizer", H_set), search)


def _subgroup_search(
    chain: StabilizerChain,
    seed: StabilizerChain,
    gens: list[tuple[int, ...]],
    test: Callable[[tuple[int, ...]], bool],
    checks: Sequence[Sequence[tuple]] = (),
) -> StabilizerChain:
    """A chain of the subgroup K of the chain's group whose elements pass
    ``test``, given a chain of a subgroup of K to start from, and a list
    ``gens`` that every element of K normalizes as a set (Sims's subgroup
    search; Seress, Permutation Group Algorithms, ch. 9).

    The branching levels are taken from the deepest up. When level i with
    base b is reached, the known part already holds K's stabilizer of the
    points 1..b, so it holds K's stabilizer of 1..b-1 once each base image g
    of b is settled. g is covered when it lies in the orbit of b under the
    known part's stabilizer of 1..b-1 (its level b-1, as both chains have
    the base 1, 2, ..); otherwise the walk of the subtree below g, the
    elements of that stabilizer in the chain's group mapping b to g, looks
    for its first element passing the test. A hit joins the known part; a
    miss refutes g's whole orbit under the known stabilizer, since K's
    orbits are unions of the known part's.

    Each node of a walk is pruned as in a search for elements normalizing
    <gens>: such an element maps <gens>-orbits onto orbits of equal size,
    consistently and injectively; the orbit map built so far, and the orbits
    it uses, are each node's state. ``checks[i]``, when given, lists triples
    (h, x, h(x)) that branching level i's children must satisfy as
    m(h(x)) = h(m(x)).
    """
    levels = chain.branching_levels()
    orbit_id = [-1] * (chain.degree + 1)
    orbit_sizes: list[int] = []
    for pt in range(1, chain.degree + 1):
        if orbit_id[pt] < 0:
            orb = list(orbit(pt, gens, act_on_point))
            for y in orb:
                orbit_id[y] = len(orbit_sizes)
            orbit_sizes.append(len(orb))

    def prune(i: int, state: tuple, children: list[tuple[int, ...]]) -> list[tuple]:
        omap, used = state
        base = levels[i].base
        o_src = orbit_id[base]
        committed = omap.get(o_src)
        level_checks = checks[i] if checks else ()
        kept = []
        for m in children:
            if level_checks and not all(m[hx - 1] == h[m[x - 1] - 1] for h, x, hx in level_checks):
                continue
            o_dst = orbit_id[m[base - 1]]
            if committed is not None:
                if committed == o_dst:
                    kept.append((m, state))
            elif orbit_sizes[o_src] == orbit_sizes[o_dst] and o_dst not in used:
                kept.append((m, ({**omap, o_src: o_dst}, used | {o_dst})))
        return kept

    # the state of the identity prefix above each branching level
    states: list[tuple] = [({}, frozenset())]
    for i in range(len(levels) - 1):
        states.append(prune(i, states[i], [chain.ident])[0][1])
    known = seed
    for i in reversed(range(len(levels))):
        lvl = levels[i]
        b = lvl.base
        refuted: set[int] = set()
        for g in lvl.transversal:
            stab = known.levels[b - 1] if b <= len(known.levels) else None
            if g == b or g in refuted or (stab is not None and g in stab.transversal):
                continue
            u = lvl.transversal[g][0]
            kept = prune(i, states[i], [u])
            subtree = chain.walk(prune, kept[0][1], i + 1, u) if kept else ()
            hit = next((m for m in subtree if test(m)), None)
            if hit is None:
                refuted.update(orbit(g, stab.gens if stab is not None else (), act_on_point))
            else:
                known = known.extended([hit])
    return known


# -- subgroup enumeration ------------------------------------------------------


class SubgroupClass(NamedTuple):
    """One conjugacy class of subgroups: its representative and all its
    members, the representative first. The members are the subgroups that
    ``enumerate_subgroups`` returns, and a class has one member exactly when
    that subgroup is normal."""

    representative: Subgroup
    members: tuple[Subgroup, ...]


def enumerate_subgroups(G: Group) -> list[Subgroup]:
    """All subgroups, each exactly once, sorted by (order, element set).

    The lattice is built one conjugacy class of subgroups at a time. Every
    cyclic subgroup seeds a class, and each class representative X is joined
    with the cyclic subgroups of prime-power order (the same fixed point as
    closing under all pairwise joins, since every subgroup is generated by
    its elements of prime-power order). Only one cyclic per N_G(X)-orbit is
    joined: for n in N_G(X) the join of X with C^n is the join with C
    conjugated by n, and the orbit steps by <t>^n = <t^n>. A join is the
    orbit of the trivial right X-coset under X's generators and C's; each
    coset is composed once per representative, the first time a join
    reaches it. A proper subgroup of an order-n group has order at most n/2,
    so once a join reaches more than n/(2|X|) cosets it is the whole group.
    Each new class is entered whole as the conjugation orbit of its
    representative; ``subgroup_classes`` returns the classes.
    """
    return _lattice(G)[0]


def subgroup_classes(G: Group) -> list[SubgroupClass]:
    """The conjugacy classes of subgroups behind ``enumerate_subgroups``,
    in the order the lattice met them (the trivial subgroup first). Each
    subgroup of the lattice is, as the same object, a member of one class."""
    return _lattice(G)[1]


def _check_subgroup_bound(G: Group) -> None:
    """OrderTooLarge when G is above the bound for enumerating its subgroups."""
    bound = get_limits().subgroup_bound
    if G.order() > bound:
        raise OrderTooLarge(f"subgroup enumeration needs order <= {bound}")


def _lattice(G: Group) -> tuple[list[Subgroup], list[SubgroupClass]]:
    def compute():
        _check_subgroup_bound(G)
        n = G.order()
        degree = G.degree
        ident = identity_tuple(degree)
        full = G.element_tuples()
        gen_tuples = [g for g in G.generator_tuples if g != ident]

        cyclics: dict[frozenset, tuple[int, ...]] = {}  # key -> first generator met
        cyclic_of: dict[tuple[int, ...], frozenset] = {}  # element -> key of <element>
        for t in G.sorted_element_tuples():
            if t == ident or t in cyclic_of:
                continue
            powers = list(orbit(ident, (t,), compose_tuples))  # t^0, t^1, ..
            key = frozenset(powers)
            cyclics[key] = t
            m = len(powers)
            cyclic_of.update((powers[k], key) for k in range(1, m) if gcd(k, m) == 1)
        pp_cyclics = [(key, t) for key, t in cyclics.items() if is_prime_power(len(key))]

        def conjugate_key(key: frozenset, g: tuple[int, ...]) -> frozenset:
            return frozenset(conjugate_tuple(x, g) for x in key)

        def conjugate_cyclic(key: frozenset, g: tuple[int, ...]) -> frozenset:
            return cyclic_of[conjugate_tuple(cyclics[key], g)]  # <t>^g == <t^g>

        found: set[frozenset] = set()  # every subgroup met, whole classes only
        records: list[SubgroupClass] = []

        def enter_class(key: frozenset) -> None:
            keys = list(orbit(key, gen_tuples, conjugate_key))
            found.update(keys)
            members = tuple(Subgroup(G, Group.from_element_tuples(degree, k)) for k in keys)
            records.append(SubgroupClass(members[0], members))

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
            # a proper join J has |J| <= n/2, so at most this many X-cosets
            max_index = (n // 2) // len(X)
            # the right X-cosets met by this representative's joins, numbered
            # in the order met: each element's coset number and each coset's
            # elements, any of which represents it. coset_times(i, g) is the
            # number of coset i times g, composed the first time it is met
            coset_of = dict.fromkeys(X, 0)
            cosets = [list(X)]

            def coset_times(i: int, g: tuple[int, ...]) -> int:
                t = compose_tuples(cosets[i][0], g)
                j = coset_of.get(t)
                if j is None:
                    j = len(cosets)
                    coset = [compose_tuples(x, t) for x in X]
                    coset_of.update(dict.fromkeys(coset, j))
                    cosets.append(coset)
                return j

            tried: set[frozenset] = set()  # cyclics in an N_G(X)-orbit already joined
            for ckey, cgen in pp_cyclics:
                if cgen in X or ckey in tried:
                    continue
                tried.update(orbit(ckey, N_gens, conjugate_cyclic))
                # the orbit of the trivial coset under right multiplication
                # by X and cgen is the set of X-cosets in the join; the walk
                # stops at the first coset past max_index, and J is then G
                reached = list(islice(orbit(0, X_gens + [cgen], coset_times), max_index + 1))
                if len(reached) > max_index:
                    Jkey = full
                else:
                    Jkey = frozenset(x for j in reached for x in cosets[j])
                if Jkey not in found:
                    enter_class(Jkey)
        built = [S for rec in records for S in rec.members]
        return sorted(built, key=cmp_to_key(_compare_element_streams)), records

    return G.cached("subgroup_lattice", compute)


# -- normal structure -----------------------------------------------------------


def minimal_normal_subgroups(G: Group) -> list[Subgroup]:
    """Inclusion-minimal non-trivial normal subgroups, sorted by order and
    then by element list.

    Candidates are normal closures of elements of prime order p in the centre
    Z(P) of a Sylow p-subgroup P, for each prime p dividing |G|. A minimal
    normal subgroup N with p dividing |N| meets P in a non-trivial normal
    subgroup of P, and a non-trivial normal subgroup of a p-group meets its
    centre, so N contains some such z; the closure of any z of order p inside
    N is N. The closure depends only on <z>, so one z per cyclic subgroup is
    closed. A z is not skipped for lying in an earlier closure: its own
    closure may be a smaller normal subgroup.
    """
    from .structure import sylow_subgroup  # structure imports this module

    def compute():
        closures: list[Subgroup] = []
        for p in primes_dividing(G.order()):
            Z = center(sylow_subgroup(G, p).carrier).carrier
            met: set[tuple[int, ...]] = set()  # generators of the <z> already closed
            for z in Z.sorted_element_stream():
                if z in met or order_of_tuple(z) != p:
                    continue
                met.update(orbit(z, (z,), compose_tuples))
                N = normal_closure(G, Subgroup(G, Group.from_generator_tuples(G.degree, (z,))))
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
