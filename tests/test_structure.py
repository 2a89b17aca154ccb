from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from normlab.arith import p_part, primes_dividing
from normlab.catalog import build, default_sweep, parse_spec
from normlab.errors import InvalidPrime, NotNilpotent, NotNormal, NotPGroup, NotSolvable
from normlab.limits import get_limits
from normlab.perm import perm_from_cycles
from normlab.structure import (
    derived_series,
    fitting_length,
    fitting_subgroup,
    is_abelian,
    is_cyclic,
    is_dihedral_2group,
    is_generalized_quaternion,
    is_hall,
    is_nilpotent,
    is_p_nilpotent,
    is_solvable,
    lower_central_series,
    nilpotency_class,
    p_core,
    quotient,
    sylow_subgroup,
    thompson_subgroup,
)
from normlab.subgroups import (
    Subgroup,
    enumerate_subgroups,
    fingerprint,
    is_normal,
    subgroup,
    subgroups_equal,
    trivial_subgroup,
    whole,
)

from oracles import conj, dihedral_2group_by_closure, normalizer_sylow, quotient_by_coset_bfs

EXTRASPECIAL_FROBENIUS = Path(__file__).parent / "data" / "frobenius_7_1_2_3.grp"


# -- series and solvability -----------------------------------------------------


def test_derived_series_s4(s4):
    report = derived_series(s4)
    assert [t.order() for t in report.terms] == [24, 12, 4, 1]
    assert report.terminated
    for term in report.terms:
        assert is_normal(s4, term)


def test_derived_series_a5_stabilizes(a5):
    report = derived_series(a5)
    assert [t.order() for t in report.terms] == [60]
    assert not report.terminated
    assert not is_solvable(a5)


def test_derived_series_abelian():
    C6, _ = build(parse_spec("C:6"))
    report = derived_series(C6)
    assert [t.order() for t in report.terms] == [6, 1]


def test_small_groups_all_solvable():
    # classical fact: every group of order < 60 is solvable
    for spec in default_sweep(max_order=59):
        G, _ = build(spec)
        assert is_solvable(G), str(spec)


def test_lower_central_series_d4(d4):
    assert nilpotency_class(d4) == 2


def test_lower_central_series_abelian():
    C5, _ = build(parse_spec("C:5"))
    assert nilpotency_class(C5) == 1


def test_s3_not_nilpotent(s3):
    report = lower_central_series(s3)
    assert not report.terminated
    assert report.terms[-1].order() == 3  # stabilizes at the rotation subgroup
    assert not is_nilpotent(s3)
    with pytest.raises(NotNilpotent):
        nilpotency_class(s3)


def test_series_terms_are_normal_in_source(s4, d4, s3):
    for G in (s4, d4, s3):
        for report in (derived_series(G), lower_central_series(G)):
            for term in report.terms:
                assert is_normal(G, term)


def test_trivial_group_class_zero():
    C1, _ = build(parse_spec("C:1"))
    assert nilpotency_class(C1) == 0


# -- p-cores and Fitting ---------------------------------------------------------


def test_p_core_s4(s4):
    assert p_core(s4, 2).order() == 4
    assert p_core(s4, 3).order() == 1
    assert p_core(s4, 5).order() == 1


def test_p_core_requires_prime(s4):
    with pytest.raises(InvalidPrime):
        p_core(s4, 6)


def test_p_core_equals_sylow_intersection():
    # oracle: O_p(G) is the intersection of all Sylow p-subgroups
    for name in ("S:4", "A:4", "D:6", "AGL1:7", "S:3"):
        G, _ = build(parse_spec(name))
        subs = enumerate_subgroups(G)
        for p in primes_dividing(G.order()):
            target = p_part(G.order(), p)
            sylows = [S for S in subs if S.order() == target]
            inter = set(G.element_tuples())
            for S in sylows:
                inter &= S.carrier.element_tuples()
            assert p_core(G, p).carrier.element_tuples() == frozenset(inter), (name, p)


def test_fitting_s4(s4):
    assert fitting_subgroup(s4).order() == 4


def test_fitting_s3(s3):
    assert fitting_subgroup(s3).order() == 3


def test_fitting_of_nilpotent_is_whole(d4, q8):
    assert fitting_subgroup(d4).order() == 8
    assert fitting_subgroup(q8).order() == 8


def test_fitting_contains_every_nilpotent_normal_subgroup():
    for name in ("S:4", "D:6", "AGL1:5", "PROD(S:3,C:2)", "A:4"):
        G, _ = build(parse_spec(name))
        F = fitting_subgroup(G)
        for S in enumerate_subgroups(G):
            if is_normal(G, S) and is_nilpotent(S.carrier):
                assert all(F.carrier.contains(g) for g in S.generators), name


def test_fitting_length():
    assert fitting_length(build(parse_spec("S:3"))[0]) == 2
    assert fitting_length(build(parse_spec("S:4"))[0]) == 3
    assert fitting_length(build(parse_spec("D:4"))[0]) == 1
    assert fitting_length(build(parse_spec("C:1"))[0]) == 0


def test_fitting_length_needs_solvable(a5):
    with pytest.raises(NotSolvable):
        fitting_length(a5)


# -- Sylow and Hall ---------------------------------------------------------------


def test_sylow_orders(s4, psl2_17):
    assert sylow_subgroup(s4, 2).order() == 8
    assert sylow_subgroup(s4, 3).order() == 3
    assert sylow_subgroup(psl2_17, 2).order() == 16
    C6, _ = build(parse_spec("C:6"))
    assert sylow_subgroup(C6, 5).order() == 1


def test_sylow_p_part_everywhere():
    for spec in default_sweep(max_order=200):
        G, _ = build(spec)
        for p in primes_dividing(G.order()):
            P = sylow_subgroup(G, p)
            assert P.order() == p_part(G.order(), p), str(spec)


def test_sylow_growth_matches_the_normalizer_oracle():
    # each round takes the first element of G's pruned walk that normalizes
    # P with its p-part outside P: the same z as the first such element of
    # N_G(P)'s sorted list, so the generator tuples agree
    specs = [
        *default_sweep(2500),
        *map(parse_spec, ("S:8", "S:9", "PSL2:31", "PSL2:43", "PROD(PSL2:7,S:4)")),
    ]
    for spec in specs:
        for p in primes_dividing(build(spec)[0].order()):
            want = normalizer_sylow(build(spec)[0], p)
            got = sylow_subgroup(build(spec)[0], p).carrier.generator_tuples
            assert got == want, (str(spec), p)


def test_sylow_growth_builds_no_normalizer(monkeypatch):
    import normlab.subgroups

    calls = []
    normalizer = normlab.subgroups.normalizer

    def counting(*args):
        calls.append(args)
        return normalizer(*args)

    # rebind every copy that "from .subgroups import normalizer" left behind
    for name, module in list(sys.modules.items()):
        if name.startswith("normlab") and getattr(module, "normalizer", None) is normalizer:
            monkeypatch.setattr(module, "normalizer", counting)
    G, _ = build(parse_spec("S:9"))
    assert [sylow_subgroup(G, p).order() for p in (2, 3)] == [128, 81]
    assert calls == []


def test_two_sylows_are_conjugate(s4):
    # exhaustive conjugator search on a small group
    P = sylow_subgroup(s4, 2)
    others = [
        S
        for S in enumerate_subgroups(s4)
        if S.order() == 8 and not subgroups_equal(S, P)
    ]
    assert others
    P_set = P.carrier.element_tuples()
    for other in others:
        other_set = set(other.carrier.sorted_elements())
        assert any(
            {conj(h, g) for h in other_set} == set(P.carrier.sorted_elements())
            for g in s4.elements()
        )


def test_is_hall(s3, s4):
    A3 = subgroup(s3, [perm_from_cycles(3, [[1, 2, 3]])])
    assert is_hall(s3, A3)
    assert not is_hall(s4, subgroup(s4, [perm_from_cycles(4, [[1, 2]])]))
    assert is_hall(s4, whole(s4))


# -- quotients ----------------------------------------------------------------------


def test_quotient_s4_by_v4(s4):
    V = p_core(s4, 2)
    Q = quotient(s4, V)
    assert Q.image.order() == 6
    assert Q.image.degree == 6
    assert not is_abelian(Q.image)


def test_quotient_requires_normal(s4):
    H = Subgroup(s4, s4.point_stabilizer(4))
    with pytest.raises(NotNormal):
        quotient(s4, H)


def test_quotient_by_trivial(s4):
    Q = quotient(s4, trivial_subgroup(s4))
    assert Q.image.order() == 24
    g = perm_from_cycles(4, [[1, 2, 3]])
    assert Q.project(g) == g


def test_quotient_by_whole(s4):
    Q = quotient(s4, whole(s4))
    assert Q.image.order() == 1


def test_quotient_order_product():
    for name in ("S:4", "D:6", "AGL1:7", "PROD(S:3,C:2)"):
        G, _ = build(parse_spec(name))
        for N in enumerate_subgroups(G):
            if not is_normal(G, N):
                continue
            Q = quotient(G, N)
            assert Q.image.order() * N.order() == G.order(), name


def test_quotient_numbers_cosets_like_the_bfs_oracle():
    # Q's numbering of the cosets reaches the documents through the
    # fingerprints of images, so it must not move
    specs = [*default_sweep(max_order=200), parse_spec(f"FILE:{EXTRASPECIAL_FROBENIUS}")]
    checked = 0
    for spec in specs:
        G, _ = build(spec)
        for N in enumerate_subgroups(G):
            if not 1 < N.order() < G.order() or not is_normal(G, N):
                continue
            Q = quotient(G, N)
            image_gens, project = quotient_by_coset_bfs(G, N)
            assert Q.image.generator_tuples == tuple(image_gens), (str(spec), fingerprint(N))
            for g in G.generators:
                assert Q.project(g).images == project(g.images), (str(spec), fingerprint(N))
            checked += 1
    assert checked > 50


def test_projection_is_homomorphism(s4):
    V = p_core(s4, 2)
    Q = quotient(s4, V)
    els = list(s4.elements())
    rng = random.Random(5)
    for _ in range(25):
        x, y = rng.choice(els), rng.choice(els)
        assert Q.project(x * y) == Q.project(x) * Q.project(y)


def test_projection_matches_on_subgroup_images(s4):
    V = p_core(s4, 2)
    Q = quotient(s4, V)
    H = Subgroup(s4, s4.point_stabilizer(4))
    img = Q.project_subgroup(H)
    assert img.order() == 6  # S3 embeds since it meets V4 trivially


# -- p-nilpotence --------------------------------------------------------------------


def test_p_nilpotence_s3(s3):
    assert is_p_nilpotent(s3, 2)
    assert not is_p_nilpotent(s3, 3)


def test_p_nilpotence_p_group(d4, q8):
    assert is_p_nilpotent(d4, 2)
    assert is_p_nilpotent(q8, 2)


def test_p_nilpotent_complement_is_hall():
    # when G is p-nilpotent, the p'-elements form a normal Hall p'-subgroup
    for name in ("S:3", "D:5", "C:12", "AGL1:5"):
        G, _ = build(parse_spec(name))
        n = G.order()
        for p in primes_dividing(n):
            if not is_p_nilpotent(G, p):
                continue
            complement_order = n // p_part(n, p)
            found = [
                S
                for S in enumerate_subgroups(G)
                if S.order() == complement_order and is_normal(G, S)
            ]
            assert found, (name, p)


# -- Thompson subgroup and 2-group recognition ----------------------------------------


def test_thompson_cyclic():
    C8, _ = build(parse_spec("C:8"))
    assert thompson_subgroup(C8).order() == 8


def test_thompson_d4(d4):
    assert thompson_subgroup(d4).order() == 8


def test_thompson_q8(q8):
    assert thompson_subgroup(q8).order() == 8


def test_thompson_requires_p_group(s3):
    with pytest.raises(NotPGroup):
        thompson_subgroup(s3)


def test_is_cyclic():
    assert is_cyclic(build(parse_spec("C:12"))[0])
    assert not is_cyclic(build(parse_spec("D:4"))[0])
    assert not is_cyclic(build(parse_spec("PROD(C:2,C:2)"))[0])
    assert is_cyclic(build(parse_spec("PROD(C:2,C:3)"))[0])


def test_generalized_quaternion(q8, d4):
    assert is_generalized_quaternion(q8)
    assert not is_generalized_quaternion(d4)
    C8, _ = build(parse_spec("C:8"))
    assert not is_generalized_quaternion(C8)
    with pytest.raises(NotPGroup):
        is_generalized_quaternion(build(parse_spec("S:3"))[0])


def test_dihedral_recognition_matches_closure_oracle():
    # every 2-subgroup of every default-sweep lattice; the oracle reads the
    # order of the involutions' subgroup from a closure, the library from a chain
    verdicts = set()
    for spec in default_sweep():
        G, _ = build(spec)
        if G.order() > get_limits().subgroup_bound:
            continue
        for S in enumerate_subgroups(G):
            n = S.order()
            if n != p_part(n, 2):
                continue
            got = is_dihedral_2group(S.carrier)
            assert got == dihedral_2group_by_closure(S.carrier), (str(spec), fingerprint(S))
            verdicts.add((n >= 8, got))
    # dihedral and non-dihedral groups of order at least 8, and the Klein case
    assert {(True, (True, False)), (True, (False, False)), (False, (True, True))} <= verdicts
