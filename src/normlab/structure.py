"""Structural invariants: series, solvability, nilpotency, p-cores, the
Fitting subgroup and Fitting length, Sylow and Hall subgroups, quotients,
p-nilpotence, the Thompson subgroup, cyclic/dihedral/quaternion recognition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Callable

from .arith import is_prime, is_prime_power, p_part, p_valuation, primes_dividing
from .closure import orbit
from .errors import (
    IndexTooLarge,
    InvalidPrime,
    InvariantViolated,
    NotASubgroup,
    NotNilpotent,
    NotNormal,
    NotPGroup,
    NotSolvable,
)
from .group import Group, trivial_group
from .limits import get_limits
from .perm import (
    Perm,
    compose_tuples,
    conjugate_tuple,
    identity_tuple,
    inverse_tuple,
    order_of_tuple,
    power_tuple,
)
from .subgroups import (
    Subgroup,
    _check_ambient,
    _same_group,
    core,
    enumerate_subgroups,
    is_normal,
    join,
    normal_closure,
    normalizer,
    trivial_subgroup,
    whole,
)

__all__ = [
    "SeriesReport",
    "QuotientGroup",
    "derived_series",
    "is_solvable",
    "lower_central_series",
    "is_nilpotent",
    "nilpotency_class",
    "is_abelian",
    "p_core",
    "fitting_subgroup",
    "fitting_length",
    "sylow_subgroup",
    "is_hall",
    "quotient",
    "is_p_nilpotent",
    "thompson_subgroup",
    "is_cyclic",
    "is_dihedral_2group",
    "is_generalized_quaternion",
]

@dataclass
class SeriesReport:
    """A descending subgroup series; terminated means it reached the trivial group."""

    terms: list[Subgroup]
    kind: str
    terminated: bool


def _commutator_subgroup(G: Group, H: Group, inside: Group) -> Group:
    """[G, H] as a subgroup of `inside` (which must contain it and normalize
    it): the normal closure of the commutators of the generators."""
    gens = [  # x^-1 * y^-1 * x * y
        compose_tuples(inverse_tuple(x), conjugate_tuple(x, y))
        for x in G.generator_tuples
        for y in H.generator_tuples
    ]
    comms = Subgroup(inside, Group.from_generator_tuples(G.degree, gens))
    return normal_closure(inside, comms).carrier


def _series(G: Group, kind: str, step: Callable[[Group], Group]) -> SeriesReport:
    """G, step(G), step(step(G)), .. until a term is trivial or stable."""
    terms = [whole(G)]
    current = G
    while current.order() > 1:
        nxt = step(current)
        if nxt.order() == current.order():
            return SeriesReport(terms, kind, terminated=False)
        terms.append(Subgroup(G, nxt))
        current = nxt
    return SeriesReport(terms, kind, terminated=True)


def derived_series(G: Group) -> SeriesReport:
    """Successive commutator subgroups until trivial or stable."""
    return G.cached(
        "derived_series",
        lambda: _series(G, "derived", lambda X: _commutator_subgroup(X, X, X)),
    )


def is_solvable(G: Group) -> bool:
    return derived_series(G).terminated


def lower_central_series(G: Group) -> SeriesReport:
    """Terms [G, [G,G], [[G,G],G], ..] until trivial or stable."""
    return G.cached(
        "lower_central_series",
        lambda: _series(G, "lower-central", lambda X: _commutator_subgroup(X, G, G)),
    )


def is_nilpotent(G: Group) -> bool:
    return lower_central_series(G).terminated


def nilpotency_class(G: Group) -> int:
    series = lower_central_series(G)
    if not series.terminated:
        raise NotNilpotent("nilpotency class is defined only for nilpotent groups")
    return len(series.terms) - 1


def is_abelian(G: Group) -> bool:
    gens = G.generator_tuples
    return all(
        compose_tuples(gens[i], gens[j]) == compose_tuples(gens[j], gens[i])
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    )


def p_core(G: Group, p: int) -> Subgroup:
    """Largest normal p-subgroup: the core of a Sylow p-subgroup."""
    return core(G, sylow_subgroup(G, p))


def fitting_subgroup(G: Group) -> Subgroup:
    """Largest nilpotent normal subgroup, as the join of all p-cores."""

    def compute():
        result = trivial_subgroup(G)
        for p in primes_dividing(G.order()):
            result = join(G, result, p_core(G, p))
        if not is_normal(G, result):
            raise InvariantViolated("Fitting subgroup is not normal")
        if not is_nilpotent(result.carrier):
            raise InvariantViolated("Fitting subgroup is not nilpotent")
        return result

    return G.cached("fitting", compute)


def fitting_length(G: Group) -> int:
    """Length of the ascending Fitting series of a solvable group."""
    if not is_solvable(G):
        raise NotSolvable("Fitting length is defined only for solvable groups")
    length = 0
    current = G
    while current.order() > 1:
        F = fitting_subgroup(current)
        length += 1
        current = quotient(current, F).image
    return length


def sylow_subgroup(G: Group, p: int) -> Subgroup:
    """A subgroup whose order is the full p-part of the group order.

    Grows a p-subgroup P, from the trivial one, by locating an element of
    its normalizer whose p-part falls outside P and adjoining a suitable
    power (extending P's chain), until the full p-part is reached. Each round
    reads N_G(P)'s sorted element stream, the lazy walk of its chain, only
    up to its first such element, so no element set of N_G(P) is built.
    """
    if not is_prime(p):
        raise InvalidPrime(f"{p} is not prime")

    def compute():
        target = p_part(G.order(), p)
        P = trivial_group(G.degree)
        for _ in range(p_valuation(target, p) + 1):
            if P.order() == target:
                return Subgroup(G, P)
            for y in normalizer(G, Subgroup(G, P)).carrier.sorted_element_stream():
                m = order_of_tuple(y)
                if m % p == 0:
                    z = power_tuple(y, m // p_part(m, p))
                    if not P.contains_tuple(z):
                        break
            else:
                raise InvariantViolated("normalizer of a non-Sylow p-subgroup must grow it")
            # the seed keeps its whole p-part; later z are reduced until z^p lands in P
            while P.order() > 1 and not P.contains_tuple(power_tuple(z, p)):
                z = power_tuple(z, p)
            P = Group.from_chain(P.chain.extended([z]), P.generator_tuples + (z,))
        raise InvariantViolated("Sylow growth failed to terminate")

    return G.cached(("sylow", p), compute)


def is_hall(G: Group, H: Subgroup) -> bool:
    """True when the order and index of H in G are coprime."""
    if not _same_group(G, H.ambient):
        raise NotASubgroup("subgroup has a different ambient group")
    h = H.order()
    return gcd(h, G.order() // h) == 1


# -- quotients -----------------------------------------------------------------


@dataclass
class QuotientGroup:
    """Faithful image of a group on the right cosets of a normal subgroup."""

    source: Group
    modulus: Subgroup
    image: Group
    _project: Callable[[tuple[int, ...]], tuple[int, ...]] = field(repr=False)

    def project(self, p: Perm) -> Perm:
        """Image of a source element."""
        return Perm(self._project(p.images), _checked=True)

    def project_subgroup(self, S: Subgroup) -> Subgroup:
        """Image of a subgroup of the source, via its generators."""
        gens = [self._project(g) for g in S.carrier.generator_tuples]
        return Subgroup(self.image, Group.from_generator_tuples(self.image.degree, gens))


def quotient(G: Group, N: Subgroup) -> QuotientGroup:
    """The quotient of G by a normal subgroup N, as a coset action.

    The image acts on the right cosets of N (degree = index), each keyed by
    its smallest element and numbered in orbit order from N. The trivial
    modulus short-circuits to an identity projection and N == G to the
    trivial image, so callers can quotient unconditionally.
    """
    _check_ambient(G, N)
    if not is_normal(G, N):
        raise NotNormal("quotient modulus must be normal")
    n_order = N.order()
    index = G.order() // n_order
    if n_order == 1:
        return QuotientGroup(G, N, G, lambda t: t)
    if index == 1:
        return QuotientGroup(G, N, trivial_group(1), lambda t: (1,))
    if index > get_limits().index_bound:
        raise IndexTooLarge(f"coset action degree {index} exceeds bound")

    n_elems = N.carrier.element_tuples()

    def coset_key(t: tuple[int, ...]) -> tuple[int, ...]:
        return min(compose_tuples(x, t) for x in n_elems)

    steps: dict[tuple, tuple[int, ...]] = {}  # (key, g) -> key of the product

    def times(k: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
        # kept for the image generators: a key costs a min over N
        steps[(k, g)] = key = coset_key(compose_tuples(k, g))
        return key

    gen_tuples = G.generator_tuples
    keys = list(orbit(coset_key(identity_tuple(G.degree)), gen_tuples, times))
    if len(keys) != index:
        raise InvariantViolated(f"coset action found {len(keys)} cosets, not {index}")
    index_of = {k: i for i, k in enumerate(keys)}
    image_gens = [tuple(index_of[steps[(k, g)]] + 1 for k in keys) for g in gen_tuples]
    image = Group.from_generator_tuples(index, image_gens)

    def project(t: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(index_of[coset_key(compose_tuples(k, t))] + 1 for k in keys)

    return QuotientGroup(G, N, image, project)


# -- p-nilpotence and p-group recognition ---------------------------------------


def is_p_nilpotent(G: Group, p: int) -> bool:
    """True when the subgroup generated by all p'-elements misses p entirely.

    That subgroup is the would-be normal p-complement: the p'-parts g^(p^k)
    of all elements g form a conjugation-closed set, whose normal closure N
    must have order prime to p.
    """
    if not is_prime(p):
        raise InvalidPrime(f"{p} is not prime")

    def compute():
        parts = {power_tuple(g, p_part(order_of_tuple(g), p)) for g in G.element_tuples()}
        N = normal_closure(G, Subgroup(G, Group.from_generator_tuples(G.degree, parts)))
        return N.order() % p != 0

    return G.cached(("p_nilpotent", p), compute)


def thompson_subgroup(P: Group) -> Subgroup:
    """Join of all abelian subgroups of maximal order in a p-group."""
    if not is_prime_power(P.order()):
        raise NotPGroup("the Thompson subgroup is defined for non-trivial p-groups")

    abelians = [S for S in enumerate_subgroups(P) if is_abelian(S.carrier)]
    best = max(S.order() for S in abelians)
    gens: list[tuple[int, ...]] = []
    for S in abelians:
        if S.order() == best:
            gens.extend(S.carrier.generator_tuples)
    return Subgroup(P, Group.from_generator_tuples(P.degree, gens))


def is_cyclic(G: Group) -> bool:
    n = G.order()
    return any(order_of_tuple(t) == n for t in G.element_tuples())


def is_dihedral_2group(P: Group) -> tuple[bool, bool]:
    """(is dihedral, is the degenerate Klein case) for a 2-group.

    Dihedral means a cyclic subgroup of index 2 plus generation by
    involutions; the Klein four-group is accepted as the degenerate case.
    """
    n = P.order()
    if n < 4 or p_part(n, 2) != n:
        return False, False
    orders = {t: order_of_tuple(t) for t in P.element_tuples()}
    if n == 4:
        if all(m <= 2 for m in orders.values()):
            return True, True  # Klein four-group
        return False, False
    if n // 2 not in orders.values():
        return False, False
    involutions = [t for t, m in orders.items() if m == 2]
    return Group.from_generator_tuples(P.degree, involutions).order() == n, False


def is_generalized_quaternion(P: Group) -> bool:
    """Non-abelian 2-group of order >= 8 with a unique involution."""
    n = P.order()
    if n == 1 or p_part(n, 2) != n:
        raise NotPGroup("generalized quaternion recognition needs a 2-group")
    if n < 8 or is_abelian(P):
        return False
    involutions = sum(1 for t in P.element_tuples() if order_of_tuple(t) == 2)
    return involutions == 1
