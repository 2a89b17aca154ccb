from __future__ import annotations

import hashlib
import random
from collections import Counter
from pathlib import Path

import pytest

from normlab import subgroups as subgroups_module
from normlab.arith import primes_dividing
from normlab.catalog import build, default_sweep, parse_spec, select_subgroup
from normlab.errors import AmbientMismatch, OrderTooLarge
from normlab.group import Group
from normlab.limits import Limits, get_limits, using_limits
from normlab.perm import conjugate_tuple, order_of_tuple, perm_from_cycles
from normlab.subgroups import (
    Subgroup,
    center,
    centralizer,
    core,
    enumerate_subgroups,
    fingerprint,
    intersection,
    is_normal,
    is_simple,
    join,
    minimal_normal_subgroups,
    normal_closure,
    normalizer,
    subgroup,
    subgroup_classes,
    subgroups_equal,
    trivial_subgroup,
    whole,
)

from oracles import (
    brute_center,
    brute_centralizer,
    brute_core,
    brute_minimal_normals,
    brute_normal_closure,
    brute_normalizer,
    brute_normalizer_tuples,
    brute_subgroups_extension,
    brute_subgroups_subset_scan,
    class_rep_minimal_normals,
    filter_normalizer,
    lattice_by_cyclic_joins,
    mulclose,
)

EXTRASPECIAL_FROBENIUS = Path(__file__).parent / "data" / "frobenius_7_1_2_3.grp"


def _elements(S):
    return set(S.carrier.sorted_elements())


# -- join / intersection -------------------------------------------------------


def test_join_two_transpositions(s4):
    A = subgroup(s4, [perm_from_cycles(4, [[1, 2]])])
    B = subgroup(s4, [perm_from_cycles(4, [[3, 4]])])
    J = join(s4, A, B)
    assert J.order() == len(mulclose([*A.generators, *B.generators], 4)) == 4


def test_join_with_trivial(s4):
    H = subgroup(s4, [perm_from_cycles(4, [[1, 2, 3]])])
    assert subgroups_equal(join(s4, H, trivial_subgroup(s4)), H)


def test_join_generates_whole_group(s4):
    A = subgroup(s4, [perm_from_cycles(4, [[1, 2]])])
    B = subgroup(s4, [perm_from_cycles(4, [[1, 2, 3, 4]])])
    assert join(s4, A, B).order() == 24


def test_join_ambient_mismatch(s4, s3):
    A = subgroup(s4, [perm_from_cycles(4, [[1, 2]])])
    B = subgroup(s3, [perm_from_cycles(3, [[1, 2]])])
    with pytest.raises(AmbientMismatch):
        join(s4, A, B)


def test_intersection_a4_with_d4(s4, a4, d4):
    A = Subgroup(s4, a4)
    D = Subgroup(s4, d4)
    got = _elements(intersection(s4, A, D))
    expected = mulclose(list(a4.generators), 4) & mulclose(list(d4.generators), 4)
    assert got == expected
    assert len(got) == 4


def test_intersection_self(s4, d4):
    D = Subgroup(s4, d4)
    assert subgroups_equal(intersection(s4, D, D), D)


def test_intersection_coprime(s3):
    A = subgroup(s3, [perm_from_cycles(3, [[1, 2, 3]])])
    B = subgroup(s3, [perm_from_cycles(3, [[1, 2]])])
    assert intersection(s3, A, B).order() == 1


# -- normal closure / core -------------------------------------------------------


def test_normal_closure_of_transposition(s4):
    N = normal_closure(s4, subgroup(s4, [perm_from_cycles(4, [[1, 2]])]))
    assert N.order() == 24


def test_normal_closure_of_double_transposition(s4):
    gens = [perm_from_cycles(4, [[1, 2], [3, 4]])]
    N = normal_closure(s4, subgroup(s4, gens))
    oracle = brute_normal_closure(mulclose(list(s4.generators), 4), gens, 4)
    assert _elements(N) == oracle
    assert N.order() == 4


def test_normal_closure_of_trivial(s4):
    assert normal_closure(s4, trivial_subgroup(s4)).order() == 1


def test_normal_closure_of_the_whole_order_is_the_ambient_group():
    # PSL2:31 is simple, so an involution's closure is the whole group; it is
    # returned as the ambient object itself, whose caches it then shares
    G = build(parse_spec("PSL2:31"))[0]
    P = select_subgroup(G, "syl:2")
    z = next(x for x in P.carrier.sorted_element_stream() if order_of_tuple(x) == 2)
    N = normal_closure(G, Subgroup(G, Group.from_generator_tuples(G.degree, (z,))))
    assert N.carrier is G


def test_core_point_stabilizer_is_trivial(s4):
    H = Subgroup(s4, s4.point_stabilizer(4))
    assert core(s4, H).order() == 1


def test_core_of_sylow2_is_v4(s4, d4):
    got = core(s4, Subgroup(s4, d4))
    oracle = brute_core(mulclose(list(s4.generators), 4), mulclose(list(d4.generators), 4))
    assert _elements(got) == oracle
    assert got.order() == 4


def test_core_of_whole_group(s4):
    assert core(s4, whole(s4)).order() == 24


# -- centralizer / center ----------------------------------------------------------


def test_center_s4_trivial(s4):
    assert center(s4).order() == 1
    assert brute_center(mulclose(list(s4.generators), 4)) == {perm_from_cycles(4, [])}


def test_center_d4(d4):
    got = _elements(center(d4))
    assert got == brute_center(mulclose(list(d4.generators), 4))
    assert len(got) == 2


def test_centralizer_of_trivial_is_whole(s4):
    assert centralizer(s4, trivial_subgroup(s4)).order() == 24


def test_centralizer_matches_oracle(s4):
    H = subgroup(s4, [perm_from_cycles(4, [[1, 2], [3, 4]])])
    got = _elements(centralizer(s4, H))
    oracle = brute_centralizer(
        mulclose(list(s4.generators), 4), mulclose(list(H.generators), 4)
    )
    assert got == oracle


@pytest.mark.parametrize("name", ["S:4", "PSL2:7", "AGL1:7", "PROD(S:3,C:2)"])
def test_centralizer_backtrack_matches_oracle_on_every_subgroup(name):
    G, _ = build(parse_spec(name))
    ambient = mulclose(list(G.generators), G.degree)
    for S in enumerate_subgroups(G):
        S_set = mulclose(list(S.generators), G.degree)
        assert _elements(centralizer(G, S)) == brute_centralizer(ambient, S_set), (name, S)


def test_center_matches_oracle_across_the_sweep():
    for spec in default_sweep(max_order=200):
        G, _ = build(spec)
        ambient = mulclose(list(G.generators), G.degree)
        assert _elements(center(G)) == brute_center(ambient), str(spec)


def test_center_above_the_bound():
    G, _ = build(parse_spec("S:5"))
    with using_limits(Limits(enum_bound=100)):
        with pytest.raises(OrderTooLarge):
            center(G)


# -- normalizer ----------------------------------------------------------------------


def test_normalizer_of_c3_in_s4(s4):
    H = subgroup(s4, [perm_from_cycles(4, [[1, 2, 3]])])
    N = normalizer(s4, H)
    oracle = brute_normalizer(mulclose(list(s4.generators), 4), mulclose(list(H.generators), 4))
    assert _elements(N) == oracle
    assert N.order() == 6
    # a point-stabilizer copy of S3: fixes the point 4
    assert all(g.apply(4) == 4 for g in N.carrier.elements())


def test_normalizer_of_whole_group(s4):
    assert normalizer(s4, whole(s4)).order() == 24


def test_normalizer_backtrack_equals_exhaustive_everywhere():
    # the contract: the backtrack agrees with a chain-free exhaustive filter
    # on every subgroup of every test group up to order 500
    names = (
        "S:4", "D:6", "A:4", "AGL1:5", "C:8", "S:5", "A:5", "D:12",
        "AGL1:11", "PSL2:5", "PROD(S:4,C:2)", "PROD(S:3,S:3)",
    )
    for name in names:
        G, _ = build(parse_spec(name))
        assert G.order() <= 500
        ambient = mulclose(list(G.generators), G.degree)
        for H in enumerate_subgroups(G):
            H_gens = list(H.generators)
            ex = filter_normalizer(ambient, H_gens, mulclose(H_gens, G.degree))
            assert _elements(normalizer(G, H)) == ex, (name, H)


def test_pruned_walks_ascend_and_keep_every_accepted_element(monkeypatch):
    # normalizer and centralizer return exactly the elements that the brute
    # oracles accept on a chain-free enumeration, and the stream each Sylow
    # growth round reads, N(P)'s sorted element stream, ascends strictly and
    # holds exactly N(P)
    import normlab.structure
    from normlab.structure import sylow_subgroup

    streams = []

    def recording(G, P):
        N = normalizer(G, P)
        streams.append((P, list(N.carrier.sorted_element_stream())))
        return N

    monkeypatch.setattr(normlab.structure, "normalizer", recording)
    extra = ("S:7", "PSL2:31", "PSL2:17", "PSL2:23", "PSL2:29", "AGL1:61")
    specs = [*default_sweep(2500), *map(parse_spec, extra)]
    checked = streamed = 0
    for spec in specs:
        G, _ = build(spec)
        ambient = mulclose(list(G.generators), G.degree)
        ambient_tuples = {g.images for g in ambient}
        del streams[:]
        subs = [subgroup(G, [g]) for g in G.generators]
        subs += [sylow_subgroup(G, p) for p in primes_dividing(G.order())]
        for P, stream in streams:
            assert all(a < b for a, b in zip(stream, stream[1:])), str(spec)
            want = brute_normalizer_tuples(ambient_tuples, P.carrier.element_tuples())
            assert set(stream) == want, str(spec)
            streamed += 1
        for H in subs:
            if H.order() == 1:
                continue
            want = brute_normalizer_tuples(ambient_tuples, H.carrier.element_tuples())
            assert normalizer(G, H).carrier.element_tuples() == want, (str(spec), "normalizer")
            want = {g.images for g in brute_centralizer(ambient, set(H.generators))}
            assert centralizer(G, H).carrier.element_tuples() == want, (str(spec), "centralizer")
            checked += 2
    assert checked >= 2 * len(specs)
    assert streamed >= len(extra)


def test_searched_and_grown_subgroups_keep_their_chain():
    # for non-normal H, normalizer and centralizer return the subgroup
    # search's chain, and normal_closure and join the chain they grew, with
    # no element set or sorted list built; read afterwards, their element
    # sets and fingerprints match chain-free oracles (brute closures, and
    # fingerprints of Group.from_element_tuples)
    from normlab.structure import sylow_subgroup

    def same_as_oracle(S, want, label):
        assert S.carrier._chain is not None, label
        assert S.carrier._cache.keys().isdisjoint({"elements", "sorted_elements"}), label
        oracle = Subgroup(G, Group.from_element_tuples(G.degree, want))
        assert S.carrier.element_tuples() == oracle.carrier.element_tuples(), label
        assert fingerprint(S) == fingerprint(oracle), label

    checked = 0
    for spec in default_sweep(2500):
        G, _ = build(spec)
        ambient = mulclose(list(G.generators), G.degree)
        ambient_tuples = {g.images for g in ambient}
        subs = [subgroup(G, [g]) for g in G.generators]
        subs += [sylow_subgroup(G, p) for p in primes_dividing(G.order())]
        # one H per element set: a normalizer memoized by a set read here before
        # would hold that set
        subs = list({H.carrier.element_tuples(): H for H in subs if not is_normal(G, H)}.values())
        for H, K in zip(subs, subs[1:] + subs[:1]):
            label = (str(spec), fingerprint(H))
            want = brute_normalizer_tuples(ambient_tuples, H.carrier.element_tuples())
            same_as_oracle(normalizer(G, H), want, (*label, "normalizer"))
            want = {g.images for g in brute_centralizer(ambient, set(H.generators))}
            same_as_oracle(centralizer(G, H), want, (*label, "centralizer"))
            closure = normal_closure(G, H)
            if closure.carrier is not G:  # a closure of G's order is G itself
                want = {g.images for g in brute_normal_closure(ambient, list(H.generators), G.degree)}
                same_as_oracle(closure, want, (*label, "normal_closure"))
            want = {g.images for g in mulclose([*H.generators, *K.generators], G.degree)}
            same_as_oracle(join(G, H, K), want, (*label, "join"))
            checked += 1
    assert checked >= 40


def test_sylow_normalizer_search_conjugates_a_tenth_of_the_group_at_most(monkeypatch):
    # the subgroup search walks only below base images that the normalizer
    # found so far does not reach, so on these Sylow subgroups, whose orbits
    # all have one size and defeat the orbit-map prune, it tests far fewer
    # elements than the group holds
    from normlab.structure import sylow_subgroup

    calls = []

    def counting(h, g):
        calls.append(None)
        return conjugate_tuple(h, g)

    for name, p in (("PSL2:31", 2), ("PSL2:29", 5)):
        G, _ = build(parse_spec(name))
        P = sylow_subgroup(G, p)
        del calls[:]
        with monkeypatch.context() as patched:
            patched.setattr(subgroups_module, "conjugate_tuple", counting)
            N = normalizer(G, P)
        assert len(calls) < G.order() // 10, (name, len(calls))
        ambient_tuples = {g.images for g in mulclose(list(G.generators), G.degree)}
        want = brute_normalizer_tuples(ambient_tuples, P.carrier.element_tuples())
        assert N.carrier.element_tuples() == want, name


def test_normalizer_contains_subgroup_and_normality():
    for name in ("S:4", "D:5", "A:5"):
        G, _ = build(parse_spec(name))
        for H in enumerate_subgroups(G)[:20]:
            N = normalizer(G, H)
            assert all(N.carrier.contains(g) for g in H.generators)
            assert is_normal(G, H) == (N.order() == G.order())


def test_normalizer_memo_is_keyed_by_element_set(s4):
    # two generating sets of the same C3 share one memoized normalizer
    a = subgroup(s4, [perm_from_cycles(4, [(1, 2, 3)])])
    b = subgroup(s4, [perm_from_cycles(4, [(1, 3, 2)])])
    assert normalizer(s4, a) is normalizer(s4, b)


def test_normalizer_order_too_large(psl2_17):
    H = subgroup(psl2_17, [psl2_17.generators[0]])
    normalizer(psl2_17, H)  # memoized on psl2_17; the bound is still checked first
    with using_limits(Limits(enum_bound=100)):
        with pytest.raises(OrderTooLarge):
            normalizer(psl2_17, H)


def test_whole_group_answers_come_before_the_bound():
    # S:10 is above the default enumeration bound, but the normalizer of the
    # trivial subgroup or of a normal one, and the centralizer of the trivial
    # subgroup, are the whole group without a search
    G, _ = build(parse_spec("S:10"))
    A10, _ = build(parse_spec("A:10"))
    trivial = trivial_subgroup(G)
    assert normalizer(G, trivial).carrier is G
    assert normalizer(G, subgroup(G, A10.generators)).carrier is G
    assert centralizer(G, trivial).carrier is G
    with pytest.raises(OrderTooLarge):
        centralizer(G, whole(G))
    with pytest.raises(OrderTooLarge):
        normalizer(G, subgroup(G, [perm_from_cycles(10, [[1, 2]])]))


# -- is_normal -------------------------------------------------------------------------


def test_v4_normal_in_s4(s4):
    V = subgroup(
        s4,
        [perm_from_cycles(4, [[1, 2], [3, 4]]), perm_from_cycles(4, [[1, 3], [2, 4]])],
    )
    assert is_normal(s4, V)


def test_transposition_not_normal_in_s3(s3):
    assert not is_normal(s3, subgroup(s3, [perm_from_cycles(3, [[1, 2]])]))


def test_trivial_is_normal(s4):
    assert is_normal(s4, trivial_subgroup(s4))


# -- fingerprint -------------------------------------------------------------------------


def test_fingerprint_is_one_per_subgroup(s4):
    # two generating sets of the dihedral Sylow 2-subgroup of S4
    A = subgroup(s4, [perm_from_cycles(4, [[1, 2, 3, 4]]), perm_from_cycles(4, [[1, 3]])])
    B = subgroup(s4, [
        perm_from_cycles(4, [[2, 4]]),
        perm_from_cycles(4, [[1, 2], [3, 4]]),
        perm_from_cycles(4, [[1, 3], [2, 4]]),
    ])
    assert subgroups_equal(A, B)
    assert fingerprint(A) == fingerprint(B)
    assert fingerprint(A).startswith("8:")


def test_fingerprint_above_the_bound_raises():
    # a fresh group, so no element set or canonical generators are cached
    G, _ = build(parse_spec("S:5"))
    with using_limits(Limits(enum_bound=100)):
        with pytest.raises(OrderTooLarge):
            fingerprint(whole(G))


# -- enumeration ---------------------------------------------------------------------


def test_subgroup_counts():
    # classical counts; for dihedral groups of order 2n the count is
    # d(n) + sigma(n)
    expected = {
        "S:3": 6,
        "S:4": 30,
        "C:5": 2,
        "C:7": 2,
        "A:4": 10,
        "D:4": 10,
        "D:6": 16,
        "D:12": 34,
        "A:5": 59,
        "S:5": 156,
        "PSL2:7": 179,
    }
    for name, count in expected.items():
        G, _ = build(parse_spec(name))
        assert len(enumerate_subgroups(G)) == count, name


def test_subgroup_enumeration_matches_subset_scan():
    # literal subset scan on tiny groups
    for name in ("S:3", "D:4", "C:12", "PROD(C:2,C:2)"):
        G, _ = build(parse_spec(name))
        subs = enumerate_subgroups(G)
        scan = brute_subgroups_subset_scan(mulclose(list(G.generators), G.degree))
        assert len(subs) == len(scan), name


def test_subgroup_enumeration_matches_extension_oracle():
    # independent single-element-extension oracle, orders up to 60
    for name in ("S:4", "A:4", "A:5", "D:6", "C:24", "PROD(S:3,C:2)", "PROD(D:4,C:2)",
                 "PROD(S:4,C:2)"):
        G, _ = build(parse_spec(name))
        subs = enumerate_subgroups(G)
        oracle = brute_subgroups_extension(mulclose(list(G.generators), G.degree))
        assert len(subs) == len(oracle), name
        got = {frozenset(S.carrier.sorted_elements()) for S in subs}
        assert got == oracle, name


def test_subgroup_lattice_matches_every_cyclic_join_reference():
    # groups where joining one cyclic per normalizer orbit skips joins
    for name in ("S:5", "PSL2:7", "AGL1:13", "PROD(S:3,S:3)", "PROD(S:4,C:2)"):
        G, _ = build(parse_spec(name))
        subs = enumerate_subgroups(G)
        got = [S.carrier.element_tuples() for S in subs]
        assert len(set(got)) == len(got), name
        assert set(got) == lattice_by_cyclic_joins(G), name


# sha256 of the lattices below, recorded when joins grew element sets by
# Dimino steps: a faster lattice must give the same subgroups in the same
# order and the same classes, members and generator tuples
LATTICE_PIN = "d58fcb46b45bf00bf647cf9c3d610f95cd98a3fcb77066dc169138957a8f3812"


def test_lattice_matches_its_pinned_digest():
    digest = hashlib.sha256()

    def update(G):
        subs = enumerate_subgroups(G)
        index = {id(S): i for i, S in enumerate(subs)}
        digest.update(f"{G.order()}:{len(subs)}\n".encode())
        for S in subs:
            digest.update(repr(S.carrier.sorted_element_tuples()).encode())
        for cls in subgroup_classes(G):
            members = [(index[id(S)], S.carrier.generator_tuples) for S in cls.members]
            digest.update(repr(members).encode())

    for spec in default_sweep(2500) + [parse_spec(f"FILE:{EXTRASPECIAL_FROBENIUS}")]:
        G, _ = build(spec)
        if G.order() <= get_limits().subgroup_bound:
            update(G)
    with using_limits(Limits(subgroup_bound=3000)):
        update(build(parse_spec("PSL2:17"))[0])
    assert digest.hexdigest() == LATTICE_PIN


def test_subgroup_classes_partition_the_lattice():
    for name in ("S:4", "A:5", "AGL1:7", "PROD(S:3,C:2)"):
        G, _ = build(parse_spec(name))
        classes = subgroup_classes(G)
        members = [S.carrier.element_tuples() for cls in classes for S in cls.members]
        assert len(members) == len(set(members)), name
        assert set(members) == {S.carrier.element_tuples() for S in enumerate_subgroups(G)}
        assert classes[0].representative.order() == 1
        for cls in classes:
            rep = cls.representative
            assert cls.members[0] is rep
            N = normalizer(G, rep)
            assert _elements(N) == brute_normalizer(set(G.elements()), _elements(rep))
            # orbit-stabilizer: the class has [G : N_G(rep)] members
            assert len(cls.members) * N.order() == G.order(), name
            conjugates = {
                frozenset(conjugate_tuple(h, g) for h in rep.carrier.element_tuples())
                for g in G.element_tuples()
            }
            assert conjugates == {S.carrier.element_tuples() for S in cls.members}, name


def test_each_lattice_subgroup_is_one_class_member():
    # the classes hold the lattice's own subgroup objects, so a scan over
    # the classes reaches every subgroup exactly once
    specs = default_sweep(2500) + [parse_spec(f"FILE:{EXTRASPECIAL_FROBENIUS}")]
    checked = 0
    for spec in specs:
        G, _ = build(spec)
        if G.order() > get_limits().subgroup_bound:
            continue
        subs = enumerate_subgroups(G)
        homes = Counter(id(S) for cls in subgroup_classes(G) for S in cls.members)
        assert [homes[id(S)] for S in subs] == [1] * len(subs), spec
        assert sum(homes.values()) == len(subs), spec
        checked += 1
    assert checked > 40


def test_enumeration_respects_bound(psl2_17):
    with pytest.raises(OrderTooLarge):
        enumerate_subgroups(psl2_17)


def test_subgroup_lagrange_and_containment():
    for name in ("S:4", "AGL1:7", "D:6"):
        G, _ = build(parse_spec(name))
        for S in enumerate_subgroups(G):
            assert G.order() % S.order() == 0
            assert all(G.contains(g) for g in S.generators)


# -- minimal normal subgroups / simplicity ------------------------------------------


def test_minimal_normals_s4(s4):
    mins = minimal_normal_subgroups(s4)
    assert [m.order() for m in mins] == [4]


def test_minimal_normals_v4():
    V, _ = build(parse_spec("PROD(C:2,C:2)"))
    mins = minimal_normal_subgroups(V)
    assert [m.order() for m in mins] == [2, 2, 2]


def test_minimal_normals_simple_group(a5):
    mins = minimal_normal_subgroups(a5)
    assert len(mins) == 1 and mins[0].order() == 60


def test_minimal_normals_match_class_closure_oracle():
    # the library closes only elements of prime order; the oracle closes
    # every conjugacy class; both lists are sorted by (order, element list)
    for spec in default_sweep(max_order=200):
        G, _ = build(spec)
        ambient = mulclose(list(G.generators), G.degree)
        got = [frozenset(_elements(M)) for M in minimal_normal_subgroups(G)]
        assert got == brute_minimal_normals(ambient, G.degree), str(spec)


@pytest.mark.parametrize(
    "spec",
    ["S:7", "PSL2:19", "PSL2:23", "AGL1:61", "PROD(A:5,A:5)", "PROD(S:5,S:4)",
     "PROD(PSL2:7,S:4)", "PROD(S:3,S:3)"],
)
def test_minimal_normals_match_class_rep_oracle(spec):
    # groups beyond the brute oracle: closures of one prime-order element per
    # conjugacy class give the same sorted list as the Sylow-centre candidates
    G, _ = build(parse_spec(spec))
    got = minimal_normal_subgroups(G)
    want = class_rep_minimal_normals(G)
    assert [M.order() for M in got] == [M.order() for M in want]
    assert all(subgroups_equal(A, B) for A, B in zip(got, want))


def test_minimal_normals_close_one_element_per_prime(monkeypatch):
    # the Sylow 2-, 5- and 101-subgroups of AGL1:101 are cyclic, so each
    # centre has one subgroup of prime order: three normal closures in all
    calls = []

    def counting(ambient, A, inner=normal_closure):
        calls.append(A.order())
        return inner(ambient, A)

    monkeypatch.setattr(subgroups_module, "normal_closure", counting)
    G, _ = build(parse_spec("AGL1:101"))
    assert [M.order() for M in minimal_normal_subgroups(G)] == [101]
    assert calls == [2, 5, 101]


def test_is_simple():
    assert is_simple(build(parse_spec("A:5"))[0])
    assert is_simple(build(parse_spec("C:7"))[0])
    assert not is_simple(build(parse_spec("S:4"))[0])
    assert not is_simple(build(parse_spec("C:6"))[0])
    assert not is_simple(build(parse_spec("C:1"))[0])


# -- randomized two-path agreement ----------------------------------------------------


def test_random_subgroup_oracle_agreement():
    rng = random.Random(2024)
    for name in ("S:4", "S:5", "A:5", "AGL1:11", "D:12"):
        G, _ = build(parse_spec(name))
        elements = sorted(G.elements())
        for _ in range(12):
            gens = rng.sample(elements, rng.choice((1, 2)))
            H = subgroup(G, gens)
            H_set = mulclose(gens, G.degree)
            assert H.order() == len(H_set)
            N = normalizer(G, H)
            assert _elements(N) == brute_normalizer(set(elements), H_set)
            C = centralizer(G, H)
            assert _elements(C) == brute_centralizer(set(elements), H_set)
