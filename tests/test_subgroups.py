from __future__ import annotations

import random

import pytest

from normlab.catalog import build, default_sweep, parse_spec
from normlab.errors import AmbientMismatch, OrderTooLarge
from normlab.limits import Limits, using_limits
from normlab.perm import conjugate_tuple, perm_from_cycles
from normlab.subgroups import (
    Subgroup,
    center,
    centralizer,
    core,
    enumerate_subgroups,
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
    brute_subgroups_extension,
    brute_subgroups_subset_scan,
    filter_normalizer,
    lattice_by_cyclic_joins,
    mulclose,
)


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


def test_subgroup_classes_partition_the_lattice():
    for name in ("S:4", "A:5", "AGL1:7", "PROD(S:3,C:2)"):
        G, _ = build(parse_spec(name))
        classes = subgroup_classes(G)
        members = [key for cls in classes for key in cls.members]
        assert len(members) == len(set(members)), name
        assert set(members) == {S.carrier.element_tuples() for S in enumerate_subgroups(G)}
        assert classes[0].representative.order() == 1
        for cls in classes:
            rep = cls.representative
            assert cls.members[0] == rep.carrier.element_tuples()
            N = normalizer(G, rep)
            assert _elements(N) == brute_normalizer(set(G.elements()), _elements(rep))
            # orbit-stabilizer: the class has [G : N_G(rep)] members
            assert len(cls.members) * N.order() == G.order(), name
            conjugates = {
                frozenset(conjugate_tuple(h, g) for h in cls.members[0])
                for g in G.element_tuples()
            }
            assert conjugates == set(cls.members), name


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
