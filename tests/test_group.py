from __future__ import annotations

import random
import subprocess
import sys
from itertools import islice, permutations
from pathlib import Path

import pytest

from normlab.catalog import build, default_sweep, parse_spec
from normlab.chain import build_chain
from normlab.closure import act_on_point, orbit
from normlab.errors import (
    DegreeMismatch,
    EmptyDegree,
    InvariantViolated,
    OrderTooLarge,
    PointOutOfRange,
)
from normlab.group import Group, trivial_group
from normlab.limits import Limits, using_limits
from normlab.perm import Perm, compose_tuples, conjugate_tuple, identity_tuple, perm_from_cycles
from normlab.subgroups import normal_closure, subgroup

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


def test_closure_orbit_is_a_lazy_breadth_first_walk(s4):
    def unused_act(x, g):
        raise AssertionError("the seed needs no action")

    walk = orbit(7, [(1,)], unused_act)
    assert iter(walk) is walk
    assert next(walk) == 7

    def breadth_first(seed, gens, act):
        found, seen = [seed], {seed}
        for x in found:
            for g in gens:
                y = act(x, g)
                if y not in seen:
                    seen.add(y)
                    found.append(y)
        return found

    gens = s4.generator_tuples  # (2,1,3,4) and (2,3,4,1)
    assert list(orbit(3, gens, act_on_point)) == [3, 4, 1, 2]
    ident = identity_tuple(4)
    elements = list(orbit(ident, gens, compose_tuples))
    assert elements == breadth_first(ident, gens, compose_tuples)
    assert len(elements) == 24


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


def _relabelling(degree: int, front: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation sending the given points to 1, 2, .. in that order
    and the other points, ascending, after them."""
    order = [*front, *(p for p in range(1, degree + 1) if p not in front)]
    images = [0] * degree
    for i, p in enumerate(order, start=1):
        images[p - 1] = i
    return tuple(images)


def test_chain_base_reordering_invariance():
    # every chain's base is 1, 2, ..; relabelling the points so that any
    # chosen points come first gives the chain of the relabelled group that
    # base ordering, which never changes order or membership
    for name in ("S:4", "A:5", "D:6", "AGL1:7"):
        G, _ = build(parse_spec(name))
        closure = mulclose(list(G.generators), G.degree)
        for base in [(G.degree,), (2, 1), (1, 2, 3)]:
            base = tuple(b for b in base if b <= G.degree)
            s = _relabelling(G.degree, base)
            chain = build_chain(G.degree, [conjugate_tuple(g, s) for g in G.generator_tuples])
            assert chain.order() == G.order()
            assert all(chain.contains(conjugate_tuple(g.images, s)) for g in closure)


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


# the PROD chains have levels with trivial transversals; the stream test
# also walks S:7 (order 5040), too large for the brute class oracle
STREAM_SPECS = ("S:5", "PSL2:7", "AGL1:13", "PROD(S:3,S:3)", "PROD(PSL2:7,S:4)")


@pytest.mark.parametrize("spec", (*STREAM_SPECS, "S:7"))
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


def _walks_sorted(chain) -> bool:
    """The base ascends and each level's strong generators fix every point
    below its base point: the condition under which the depth-first walk
    over sorted children is ascending."""
    bases = [lvl.base for lvl in chain.levels]
    return bases == sorted(bases) and all(
        g[p - 1] == p for lvl in chain.levels for g in lvl.gens for p in range(1, lvl.base)
    )


def test_every_default_chain_has_an_ascending_base():
    specs = [*default_sweep(2500), *map(parse_spec, ("S:7", "PROD(S:5,S:4)", "PROD(PSL2:7,S:4)"))]
    for spec in specs:
        G, _ = build(spec)
        assert _walks_sorted(G.chain), str(spec)
    # a chain grown by ``extended``: the normal closure of a 3-cycle on the
    # second factor fixes 1..4, which become levels with trivial transversals
    G, _ = build(parse_spec("PROD(S:4,S:4)"))
    N = normal_closure(G, subgroup(G, [perm_from_cycles(8, [[5, 6, 7]])]))
    assert N.order() == 12
    assert [lvl.base for lvl in N.carrier.chain.levels] == [1, 2, 3, 4, 5, 6]
    assert _walks_sorted(N.carrier.chain)
    oracle = sorted(p.images for p in mulclose(list(N.generators), 8))
    assert list(N.carrier.sorted_element_stream()) == oracle


def test_build_chain_matches_growth_from_the_empty_chain():
    # a chain built from the generators at once and one grown from the
    # empty chain by ``extended`` agree level by level: the same base, strong
    # generators and transversal points, met in the same order
    frobenius = Path(__file__).parent / "data" / "frobenius_7_1_2_3.grp"
    for spec in [*default_sweep(), parse_spec(f"FILE:{frobenius}")]:
        G, _ = build(spec)
        built = build_chain(G.degree, G.generator_tuples)
        grown = build_chain(G.degree, ()).extended(G.generator_tuples)
        assert [(lvl.base, lvl.gens, list(lvl.transversal)) for lvl in built.levels] == [
            (lvl.base, lvl.gens, list(lvl.transversal)) for lvl in grown.levels
        ], str(spec)
        assert built.order() == grown.order() == G.order(), str(spec)


def test_sorted_element_stream_walks_the_one_chain(monkeypatch):
    import normlab.group

    builds = []
    build_chain = normlab.group.build_chain

    def counting(*args, **kwargs):
        builds.append(args)
        return build_chain(*args, **kwargs)

    monkeypatch.setattr(normlab.group, "build_chain", counting)
    G, _ = build(parse_spec("S:7"))
    assert next(G.sorted_element_stream()) == tuple(range(1, 8))
    assert len(list(G.sorted_element_stream())) == 5040
    assert len(builds) == 1


def test_from_element_tuples_roundtrip(d4):
    rebuilt = Group.from_element_tuples(4, d4.element_tuples())
    assert rebuilt.order() == d4.order()
    assert rebuilt.element_tuples() == d4.element_tuples()


def test_from_element_tuples_rejects_a_set_that_is_not_a_group():
    # (1 2 3 4) alone closes to four elements, as many as the set holds, but
    # to a different set: {(), (1 2 3 4), (1 3)(2 4), (1 4)(2 3)} is not closed
    elems = [(1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 3, 2, 1)]
    with pytest.raises(InvariantViolated):
        Group.from_element_tuples(4, elems)


def test_walk_prune_is_called_once_per_node_and_its_kept_children_ascend(s4):
    chain = s4.chain
    assert list(chain.walk(lambda i, state, kids: [(k, state) for k in kids])) == list(chain.walk())
    # keep the children in reverse order and tag them with their depth: the
    # walk sorts what is kept and hands each node's state to its prune call
    calls = []

    def prune(i, state, kids):
        calls.append((i, state))
        return [(k, i + 1) for k in reversed(kids) if k[0] != 2]

    leaves = list(chain.walk(prune, root=0))
    assert leaves == [t for t in s4.sorted_element_tuples() if t[0] != 2]
    assert calls[0] == (0, 0) and all(state == i for i, state in calls)
    # a node per kept prefix above the last branching level: 1 + 3 + 3 * 3
    assert len(calls) == 13


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
