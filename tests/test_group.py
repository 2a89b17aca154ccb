from __future__ import annotations

import random
import subprocess
import sys
from itertools import islice, permutations

import pytest

from normlab.catalog import build, default_sweep, parse_spec
from normlab.errors import (
    DegreeMismatch,
    EmptyDegree,
    InvariantViolated,
    OrderTooLarge,
    PointOutOfRange,
)
from normlab.group import Group, trivial_group
from normlab.limits import Limits, using_limits
from normlab.perm import Perm, perm_from_cycles

from oracles import brute_class_reps, brute_order, mulclose


def test_s4_order(s4):
    assert s4.order() == 24


def test_trivial_group_order():
    assert trivial_group(3).order() == 1
    assert list(trivial_group(3).elements())[0].is_identity()


def test_psl2_17_order(psl2_17):
    q = 17
    assert psl2_17.order() == q * (q * q - 1) // 2 == 2448


def test_order_against_exhaustive_closure_oracle(s4, a4, d4):
    for G in (s4, a4, d4):
        assert G.order() == brute_order(list(G.generators), G.degree)


def test_empty_degree():
    with pytest.raises(EmptyDegree):
        Group(0, ())


def test_generator_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        Group(4, (perm_from_cycles(3, [[1, 2]]),))


def test_contains(s4, a4):
    assert s4.contains(perm_from_cycles(4, [[1, 2, 3, 4]]))
    assert not a4.contains(perm_from_cycles(4, [[1, 2]]))


def test_contains_degree_mismatch(s4):
    with pytest.raises(DegreeMismatch):
        s4.contains(perm_from_cycles(3, [[1, 2]]))


def test_klein_membership():
    v4 = Group(4, (perm_from_cycles(4, [[1, 2], [3, 4]]), perm_from_cycles(4, [[1, 3], [2, 4]])))
    closure = mulclose(list(v4.generators), 4)
    assert perm_from_cycles(4, [[1, 4], [2, 3]]) in closure
    assert v4.contains(perm_from_cycles(4, [[1, 4], [2, 3]]))
    assert v4.order() == 4


def test_elements_exactly_once(s3, psl2_17):
    els = list(s3.elements())
    assert len(els) == 6 == len(set(els))
    big = list(psl2_17.elements())
    assert len(big) == 2448 == len(set(big))
    sample = random.Random(7).sample(big, 40)
    assert all(psl2_17.contains(g) for g in sample)


def test_elements_bound():
    G, _ = build(parse_spec("S:5"))
    with using_limits(Limits(enum_bound=100)):
        with pytest.raises(OrderTooLarge):
            list(G.elements())


def test_membership_positive_and_negative(s4):
    closure = mulclose(list(s4.generators), 4)
    for g in closure:
        assert s4.contains(g)
    # on 4 points every permutation is in S4; use A4 for negatives
    a4, _ = build(parse_spec("A:4"))
    a4_set = mulclose(list(a4.generators), 4)
    rng = random.Random(3)
    negatives = 0
    while negatives < 100:
        images = list(range(1, 5))
        rng.shuffle(images)
        p = Perm(tuple(images))
        if p not in a4_set:
            assert not a4.contains(p)
            negatives += 1


def test_orbit(s4):
    assert s4.orbit(1) == {1, 2, 3, 4}


def test_orbit_fixed_point():
    G = Group(4, (perm_from_cycles(4, [[1, 2]]),))
    assert G.orbit(3) == {3}


def test_orbit_out_of_range(s4):
    with pytest.raises(PointOutOfRange):
        s4.orbit(5)


def test_transitivity():
    agl5, _ = build(parse_spec("AGL1:5"))
    assert agl5.is_transitive()
    G = Group(4, (perm_from_cycles(4, [[1, 2]]),))
    assert not G.is_transitive()


def test_point_stabilizer(s4):
    stab = s4.point_stabilizer(4)
    assert stab.order() == 6
    assert all(g.apply(4) == 4 for g in stab.generators)


def test_chain_base_reordering_invariance():
    # rebuilding with any base ordering never changes order or membership
    for name in ("S:4", "A:5", "D:6", "AGL1:7"):
        G, _ = build(parse_spec(name))
        closure = mulclose(list(G.generators), G.degree)
        for base in [(G.degree,), (2, 1), (1, 2, 3)]:
            base = tuple(b for b in base if b <= G.degree)
            chain = G.chain_with_base(base)
            assert chain.order() == G.order()
            assert all(chain.contains(g.images) for g in closure)


def test_chain_sift_products_of_generators(s4):
    rng = random.Random(11)
    for _ in range(30):
        word = [rng.choice(s4.generators) for _ in range(6)]
        g = word[0]
        for w in word[1:]:
            g = g * w
        assert s4.chain.contains(g.images)


def test_conjugacy_class_reps(s4):
    reps = s4.conjugacy_class_reps()
    assert len(reps) == 5  # cycle types of S4


# groups whose default chain base is not 1, 2, .. among them
STREAM_SPECS = ("S:5", "PSL2:7", "AGL1:13", "PROD(S:3,S:3)", "PROD(PSL2:7,S:4)")


@pytest.mark.parametrize("spec", STREAM_SPECS)
def test_sorted_element_stream_matches_closure_oracle(spec):
    G, _ = build(parse_spec(spec))
    oracle = sorted(p.images for p in mulclose(list(G.generators), G.degree))
    assert list(G.sorted_element_stream()) == oracle
    # the stream builds neither the element set nor the sorted list
    assert "elements" not in G._cache and "sorted_elements" not in G._cache
    assert list(G.sorted_element_stream()) == G.sorted_element_tuples()


@pytest.mark.parametrize("spec", STREAM_SPECS)
def test_conjugacy_class_reps_match_oracle(spec):
    G, _ = build(parse_spec(spec))
    closure = mulclose(list(G.generators), G.degree)
    assert [r.images for r in G.conjugacy_class_reps()] == brute_class_reps(closure)
    assert "elements" not in G._cache


def test_sorted_element_stream_above_the_bound():
    # S:10 is above the default enumeration bound; its stream still starts
    # at once, and for S:n the sorted order is the order of permutations()
    G, _ = build(parse_spec("S:10"))
    first = list(islice(G.sorted_element_stream(), 2000))
    assert first == list(islice(permutations(range(1, 11)), 2000))
    assert "elements" not in G._cache


def test_sorted_element_stream_reuses_an_ascending_chain():
    # base 3, 4, 5: the group fixes 1 and 2, so its own chain can be walked
    G = Group(6, [perm_from_cycles(6, [[3, 4]]), perm_from_cycles(6, [[4, 5, 6]])])
    assert [lvl.base for lvl in G.chain.levels] == [3, 4, 5]
    oracle = sorted(p.images for p in mulclose(list(G.generators), 6))
    assert list(G.sorted_element_stream()) == oracle
    assert G._cache["sorted_chain"] is G.chain


def test_sorted_walk_needs_the_ascending_base():
    G, _ = build(parse_spec("PROD(S:3,S:3)"))
    with pytest.raises(InvariantViolated):
        next(G.chain_with_base((4, 1)).iter_sorted_elements())
    # ascending, but the group moves 1, which lies below the first base point
    assert not G.chain_with_base((2, 3)).walks_sorted()
    assert G.chain_with_base((1, 2, 3, 4, 5)).walks_sorted()


def test_from_element_tuples_roundtrip(d4):
    rebuilt = Group.from_element_tuples(4, d4.element_tuples())
    assert rebuilt.order() == d4.order()
    assert rebuilt.element_tuples() == d4.element_tuples()


def test_sorted_element_tuples_is_one_cached_list(s4, d4):
    ordered = s4.sorted_element_tuples()
    assert ordered == sorted(s4.element_tuples())
    assert s4.sorted_element_tuples() is ordered
    # from_element_tuples sorts its input once and keeps that list
    rebuilt = Group.from_element_tuples(4, d4.element_tuples())
    assert rebuilt._cache["sorted_elements"] == sorted(d4.element_tuples())


def test_catalog_chain_order_matches_closure_oracle():
    for spec in default_sweep(max_order=200):
        G, _ = build(spec)
        assert G.order() == brute_order(list(G.generators), G.degree), str(spec)


def test_result_guard_holds_under_optimize(subprocess_env):
    # python -O strips assert statements; a guard on a result must still raise
    code = (
        "import normlab.group as g\n"
        "from normlab.errors import InvariantViolated\n"
        "g._canonical_generators = lambda degree, elems: ([], set())\n"
        "try:\n"
        "    g.Group.from_element_tuples(2, [(1, 2), (2, 1)])\n"
        "except InvariantViolated as exc:\n"
        "    print('raised:', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=subprocess_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised:")
