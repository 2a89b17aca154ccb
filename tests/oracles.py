"""Independent brute-force oracles for cross-checking the library.

Everything here works by exhaustive closure over explicit element lists and
never touches stabilizer chains, so agreement with the library is a real
two-path check. Three exceptions: ``class_rep_minimal_normals`` keeps the
library's normal closures but draws its candidates from conjugacy classes,
for groups too large for the brute oracles; ``frobenius_by_normal_kernels``
walks the library's subgroup lattice, because the answer it checks is defined
by lattice order, but tests each pair on explicit element sets;
``normalizer_sylow`` grows a Sylow subgroup from whole library normalizers,
the way the library did before its growth read only the first useful element;
``intro_checks_per_subgroup`` runs the intro suite's subgroup loops with a
library normalizer, centralizer and nilpotency test for every subgroup, the
way the suite did before it read them once per conjugacy class;
``per_pair_scan_reports`` runs the library's maximal-normalizer test and
verifiers on every pair, the way the scan did before it ran them once per
conjugacy class.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import combinations

from normlab.arith import is_prime, is_prime_power, p_part, p_valuation, primes_dividing
from normlab.closure import dimino_extend, orbit
from normlab.group import Group
from normlab.perm import (
    Perm,
    compose_tuples,
    conjugate_tuple,
    identity_tuple,
    order_of_tuple,
    power_tuple,
)
from normlab.structure import fitting_length, is_nilpotent, is_p_nilpotent, is_solvable, nilpotency_class
from normlab.subgroups import (
    Subgroup,
    _compare_element_streams,
    centralizer,
    enumerate_subgroups,
    fingerprint,
    is_normal,
    normal_closure,
    normalizer,
    subgroup_le,
    subgroups_equal,
)
from normlab.scan import VERIFIERS
from normlab.theorems import MODES, maximal_normalizer_context
from normlab.verdict import Check, VerdictReport


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


def class_rep_minimal_normals(G: Group) -> list[Subgroup]:
    """Minimal normal subgroups from one prime-order element per conjugacy
    class of G: the normal closure depends only on the class, and a minimal
    normal subgroup is the closure of any of its elements of prime order.
    Deduplicated, filtered for minimality and sorted as the library sorts."""
    closures: list[Subgroup] = []
    for rep in G.conjugacy_class_reps():
        if not is_prime(rep.order()):
            continue
        N = normal_closure(G, Subgroup(G, Group.from_generator_tuples(G.degree, (rep.images,))))
        if not any(subgroups_equal(N, M) for M in closures):
            closures.append(N)
    minimal = [
        N
        for N in closures
        if not any(M.order() < N.order() and subgroup_le(M, N) for M in closures)
    ]
    return sorted(minimal, key=cmp_to_key(_compare_element_streams))


def normalizer_sylow(G: Group, p: int) -> tuple[tuple[int, ...], ...]:
    """Generators of a Sylow p-subgroup grown from whole normalizers: the seed
    is the p-part of G's first element (ascending) whose order p divides;
    each round builds N_G(P) with the library's ``normalizer``, takes the
    first element of its sorted list whose p-part z lies outside P, reduces
    z until z^p lies in P and adjoins it."""
    target = p_part(G.order(), p)
    if target == 1:
        return ()
    x = next(x for x in G.sorted_element_stream() if order_of_tuple(x) % p == 0)
    m = order_of_tuple(x)
    P = Group.from_generator_tuples(G.degree, (power_tuple(x, m // p_part(m, p)),))
    for _ in range(p_valuation(target, p)):
        if P.order() == target:
            break
        N = normalizer(G, Subgroup(G, P)).carrier
        for y in N.sorted_element_stream():
            m = order_of_tuple(y)
            z = power_tuple(y, m // p_part(m, p))
            if m % p == 0 and not P.contains_tuple(z):
                break
        while not P.contains_tuple(power_tuple(z, p)):
            z = power_tuple(z, p)
        P = Group.from_generator_tuples(G.degree, P.generator_tuples + (z,))
    assert P.order() == target
    return P.generator_tuples


def brute_core(ambient: set[Perm], H: set[Perm]) -> set[Perm]:
    """Largest normal subgroup inside H: elements whose whole class stays in H."""
    return {h for h in H if all(conj(h, g) in H for g in ambient)}


def brute_normal_closure(ambient: set[Perm], gens: list[Perm], degree: int) -> set[Perm]:
    conjugates = [conj(h, g) for h in gens for g in ambient]
    return mulclose(conjugates, degree) if conjugates else mulclose([], degree)


def filter_normalizer(ambient: set[Perm], H_gens: list[Perm], H: set[Perm]) -> set[Perm]:
    """Elements g with h^g in H for every generator h of H (H finite)."""
    return {g for g in ambient if all(conj(h, g) in H for h in H_gens)}


def frobenius_by_normal_kernels(G: Group) -> tuple[Subgroup, Subgroup] | None:
    """The first Frobenius kernel/complement pair (K, H) with KH = G, trying
    every proper non-trivial normal subgroup K in lattice order, and for each
    every subgroup H of order |G|/|K| in lattice order; None if none passes.

    No kernel is singled out: a pair passes when H meets K trivially, the
    generators of H conjugate those of K into K, and no non-identity element
    of H commutes with a non-identity element of K, all tested on element
    sets."""
    n = G.order()
    ident = identity_tuple(G.degree)
    subs = enumerate_subgroups(G)
    kernels = [
        K
        for K in subs
        if 1 < K.order() < n
        and all(
            conjugate_tuple(k, g) in K.carrier.element_tuples()
            for k in K.carrier.generator_tuples
            for g in G.generator_tuples
        )
    ]
    for K in kernels:
        ks = K.carrier.element_tuples()
        for H in subs:
            if H.order() * K.order() != n:
                continue
            hs = H.carrier.element_tuples()
            if ks & hs != {ident}:
                continue
            if not all(
                conjugate_tuple(k, h) in ks
                for k in K.carrier.generator_tuples
                for h in H.carrier.generator_tuples
            ):
                continue
            if any(conjugate_tuple(k, h) == k for h in hs - {ident} for k in ks - {ident}):
                continue
            return K, H
    return None


def intro_checks_per_subgroup(G: Group, subs: list[Subgroup]) -> dict[str, list[Check]]:
    """The checks of the intro suite's three subgroup-lattice criteria, by
    theorem: the N(Q)/C(Q) p-nilpotence criterion, with a normalizer and a
    centralizer per p-subgroup, and the nilpotent factorizations behind the
    Kegel-Wielandt and Gross checks, with a nilpotency test and an element-set
    intersection per pair."""
    checks = []
    for p in primes_dividing(G.order()):
        lhs = is_p_nilpotent(G, p)
        rhs = True
        witness = ""
        for Q in subs:
            q_order = Q.order()
            if q_order == 1 or q_order != p_part(q_order, p):
                continue
            ratio = normalizer(G, Q).order() // centralizer(G, Q).order()
            if ratio != p_part(ratio, p):
                rhs = False
                witness = f"|N/C| = {ratio} for {fingerprint(Q)}"
                break
        checks.append(Check(f"p={p}", lhs == rhs, witness or f"{p}-nilpotent={lhs}, criterion={rhs}"))

    n = G.order()
    nilpotent = [S for S in subs if is_nilpotent(S.carrier)]
    factorizations = [
        (A, B)
        for i, A in enumerate(nilpotent)
        for B in nilpotent[i:]
        if A.order() * B.order()
        == n * len(A.carrier.element_tuples() & B.carrier.element_tuples())
    ]
    count = f"{len(factorizations)} factorization(s)"
    kw = Check("factorizations-solvable", True, count)
    gross = Check("fitting-length-bounded", True, count)
    if factorizations and not is_solvable(G):
        A, B = factorizations[0]
        kw = Check("factorizations-solvable", False, f"{fingerprint(A)} * {fingerprint(B)} = G, G non-solvable")
    elif factorizations:
        fl = fitting_length(G)
        for A, B in factorizations:
            bound = nilpotency_class(A.carrier) + nilpotency_class(B.carrier)
            if fl > bound:
                witness = f"Fitting length {fl} > {bound} for {fingerprint(A)} * {fingerprint(B)}"
                gross = Check("fitting-length-bounded", False, witness)
                break
    return {"intro-frobenius": checks, "intro-kegel-wielandt": [kw], "intro-gross": [gross]}


def per_pair_scan_reports(G: Group, gname: str, subs: list[Subgroup]) -> list[VerdictReport]:
    """The scan's verifier reports for the given subgroups, pair by pair: each
    proper non-normal H gets a context of its own, built from scratch, and
    every verifier runs on (G, H) with it in every mode that H passes, with
    the scan's subject."""
    out = []
    for H in subs:
        if H.order() == G.order() or is_normal(G, H):
            continue
        ctx = maximal_normalizer_context(G, H)
        subject = {"group": gname, "group_order": G.order()}
        subject.update(subgroup=fingerprint(H), subgroup_order=H.order())
        for mode in MODES:
            if ctx.result(mode).passed:
                for verify in VERIFIERS.values():
                    report = verify(G, H, mode, ctx)
                    report.subject.update(subject)
                    out.append(report)
    return out
