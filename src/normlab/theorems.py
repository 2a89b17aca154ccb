"""Executable verifiers for normalizer-constrained subgroup structure.

Each verifier runs hypothesis checks and, when they all hold, conclusion
checks, and returns a VerdictReport. A report with every hypothesis
satisfied and a failing conclusion is a counterexample and must surface
loudly; the scanner and CLI treat it as the most important outcome.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from math import prod

from .arith import factorize, is_prime, p_part, psl2_parameter
from .closure import mulclose
from .errors import DoesNotNormalize, InvalidParameter, OrderTooLarge
from .group import Group
from .limits import get_limits
from .perm import Perm, compose_tuples, conjugate_tuple, format_perm, identity_tuple, order_of_tuple
from .structure import (
    derived_series,
    fitting_subgroup,
    is_abelian,
    is_cyclic,
    is_generalized_quaternion,
    is_hall,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    quotient,
    sylow_subgroup,
)
from .subgroups import (
    Subgroup,
    center,
    core,
    enumerate_subgroups,
    fingerprint,
    intersection,
    is_normal,
    is_simple,
    minimal_normal_subgroups,
    normalizer,
    subgroup_le,
    subgroups_equal,
)
from .verdict import Check, VerdictReport

__all__ = [
    "MODE_FIT_NORMAL",
    "MODE_H_NORMAL",
    "MaxNormContext",
    "MaximalNormalizerResult",
    "check_mode",
    "FrobeniusDecomposition",
    "is_maximal_normalizer",
    "maximal_normalizer_context",
    "is_frobenius_product",
    "frobenius_decomposition",
    "fixed_point_free",
    "is_dihedral_2group",
    "verify_comp22",
    "verify_hall_lemma",
    "verify_rem23",
    "verify_simp",
    "verify_thompson",
    "verify_burnside_complement",
]

MODE_FIT_NORMAL = "fit-normal"
MODE_H_NORMAL = "h-normal"
MODES = (MODE_FIT_NORMAL, MODE_H_NORMAL)


def check_mode(mode: str) -> None:
    """Refuse a quantifier mode other than those in MODES."""
    if mode not in MODES:
        raise InvalidParameter(f"unknown mode {mode!r}; pick from {', '.join(MODES)}")


# -- maximal normalizer --------------------------------------------------------


@dataclass
class MaximalNormalizerResult:
    """Outcome of the maximal-normalizer test for one quantifier mode."""

    passed: bool
    mode: str
    core_order: int
    quotient_order: int
    hbar_order: int
    fitting_order: int
    candidates_checked: int
    vacuous: bool = False
    not_proper: bool = False
    failure: tuple[str, str] | None = None  # (subgroup fingerprint, its normalizer)

    def to_check(self) -> Check:
        name = f"maximal-normalizer[{self.mode}]"
        if self.not_proper:
            return Check(name, False, "subgroup is not proper")
        if self.passed:
            note = (
                f"core order {self.core_order}, {self.candidates_checked} candidate"
                f" subgroup(s) all have normalizer H/C"
            )
            if self.vacuous:
                note += " (vacuously: no candidates)"
            return Check(name, True, note)
        L, N = self.failure
        return Check(name, False, f"normalizer of {L} is {N}, not H/C")


@dataclass
class MaxNormContext:
    """Shared data for the maximal-normalizer test on a fixed pair (G, H).

    Both quantifier modes reuse the same core, quotient, Fitting subgroup
    and candidate list; normalizers in Q are memoized on Q itself.
    """

    G: Group
    H: Subgroup
    core: Subgroup
    Q: Group
    Hbar: Subgroup
    fitting: Subgroup | None
    candidates_fit: list[Subgroup] = field(default_factory=list)
    candidates_h: list[Subgroup] = field(default_factory=list)
    _results: dict = field(default_factory=dict)

    def result(self, mode: str) -> MaximalNormalizerResult:
        cached = self._results.get(mode)
        if cached is None:
            check_mode(mode)
            cached = self._evaluate(mode)
            self._results[mode] = cached
        return cached

    def _evaluate(self, mode: str) -> MaximalNormalizerResult:
        not_proper = self.H.order() >= self.G.order()
        base = dict(
            mode=mode,
            core_order=self.core.order(),
            quotient_order=self.Q.order(),
            hbar_order=self.Hbar.order(),
            fitting_order=self.fitting.order() if self.fitting else 0,
        )
        if not_proper:
            return MaximalNormalizerResult(
                passed=False, candidates_checked=0, not_proper=True, **base
            )
        candidates = self.candidates_fit if mode == MODE_FIT_NORMAL else self.candidates_h
        for i, L in enumerate(candidates):
            NL = normalizer(self.Q, L)
            if not subgroups_equal(NL, self.Hbar):
                return MaximalNormalizerResult(
                    passed=False,
                    candidates_checked=i + 1,
                    failure=(fingerprint(L), fingerprint(NL)),
                    **base,
                )
        return MaximalNormalizerResult(
            passed=True,
            candidates_checked=len(candidates),
            vacuous=not candidates,
            **base,
        )


def maximal_normalizer_context(G: Group, H: Subgroup) -> MaxNormContext:
    C = core(G, H)
    quot = quotient(G, C)
    Q = quot.image
    Hbar = quot.project_subgroup(H)
    if Hbar.order() == 1:
        return MaxNormContext(G, H, C, Q, Hbar, fitting=None)
    F = fitting_subgroup(Hbar.carrier)
    candidates_fit: list[Subgroup] = []
    candidates_h: list[Subgroup] = []
    for L in enumerate_subgroups(F.carrier):
        if L.order() == 1:
            continue
        in_Q = Subgroup(Q, L.carrier)
        if is_normal(F.carrier, L):
            candidates_fit.append(in_Q)
        if is_normal(Hbar.carrier, Subgroup(Hbar.carrier, L.carrier)):
            candidates_h.append(in_Q)
    return MaxNormContext(G, H, C, Q, Hbar, F, candidates_fit, candidates_h)


def is_maximal_normalizer(
    G: Group, H: Subgroup, mode: str = MODE_FIT_NORMAL, context: MaxNormContext | None = None
) -> MaximalNormalizerResult:
    """Test whether, modulo the core C of H, every non-trivial normal subgroup
    of the Fitting subgroup of H/C has normalizer exactly H/C in G/C.

    mode selects what "normal" quantifies over: normal in Fit(H/C)
    (fit-normal, the default) or normal in H/C itself (h-normal).
    """
    check_mode(mode)
    if context is None:
        context = maximal_normalizer_context(G, H)
    return context.result(mode)


# -- Frobenius machinery ---------------------------------------------------------


@dataclass
class FrobeniusProductResult:
    passed: bool
    product_order: int  # |K||H|/|K meet H|, the order of KH when H normalizes K
    reason: str = ""
    witness: str = ""


@dataclass
class FrobeniusDecomposition:
    """A Frobenius kernel/complement pair whose product is the ambient group."""

    kernel: Subgroup
    complement: Subgroup


def is_frobenius_product(G: Group, K: Subgroup, H: Subgroup) -> FrobeniusProductResult:
    """Test that H normalizes K, meets it trivially, and that no non-identity
    element of H centralizes a non-identity element of K. No product is
    built, and the first two tests imply |KH| = |K||H|.
    """
    if K.order() == 1 or H.order() == 1:
        return FrobeniusProductResult(
            False, K.order() * H.order(), "kernel and complement must be non-trivial"
        )
    meet = intersection(G, K, H)
    n = K.order() * H.order() // meet.order()
    if _non_normalizing_generator(K, H) is not None:
        return FrobeniusProductResult(False, n, "kernel is not normal in the product")
    if meet.order() != 1:
        return FrobeniusProductResult(False, n, "kernel meets complement", fingerprint(meet))
    pair = _commuting_pair(H, K)
    if pair is not None:
        return FrobeniusProductResult(False, n, "fixed point", "{} centralizes {}".format(*pair))
    return FrobeniusProductResult(True, n)


def _non_normalizing_generator(K: Subgroup, H: Subgroup) -> tuple[int, ...] | None:
    """The first generator of H that conjugates some generator of K out of K,
    or None when H normalizes K."""
    for h in H.carrier.generator_tuples:
        for k in K.carrier.generator_tuples:
            if not K.carrier.contains_tuple(conjugate_tuple(k, h)):
                return h
    return None


def _commuting_pair(A: Subgroup, B: Subgroup) -> tuple[str, str] | None:
    """The first non-identity a in A and b in B (in sorted order) with ab == ba,
    formatted, or None. OrderTooLarge above the enumeration bound."""
    ident = identity_tuple(A.carrier.degree)
    b_elems = B.carrier.sorted_element_tuples()
    for a in A.carrier.sorted_element_tuples():
        if a == ident:
            continue
        for b in b_elems:
            if b != ident and compose_tuples(a, b) == compose_tuples(b, a):
                return format_perm(Perm(a, _checked=True)), format_perm(Perm(b, _checked=True))
    return None


def frobenius_decomposition(G: Group) -> FrobeniusDecomposition | None:
    """A Frobenius kernel/complement pair with K*H = G, or None.

    The kernel tried is the Fitting subgroup F, the only possible one: a
    Frobenius kernel K is nilpotent (Thompson, PNAS 45, 1959), so K <= F. If
    F > K then F meets the complement H non-trivially (Dedekind), and a
    non-identity element of F meet H centralizes Z(F) meet K, which is
    non-trivial because K is a non-trivial normal subgroup of the nilpotent
    F. The complement is the first subgroup of order |G|/|F| in lattice
    order that passes `is_frobenius_product`; the lattice is built only
    when F > 1, but its bound applies whatever F is.
    """
    n = G.order()
    if n == 1:
        return None
    if center(G).order() > 1:
        # Frobenius groups have trivial centre
        return None
    bound = get_limits().subgroup_bound
    if n > bound:
        raise OrderTooLarge(f"subgroup enumeration needs order <= {bound}")
    K = fitting_subgroup(G)
    if K.order() == 1:
        return None
    d = n // K.order()
    for H in enumerate_subgroups(G):
        if H.order() == d and is_frobenius_product(G, K, H).passed:
            return FrobeniusDecomposition(K, H)
    return None


def fixed_point_free(K: Subgroup, Phi: Subgroup) -> tuple[bool, str]:
    """True when every non-identity element of Phi centralizes nothing in K.

    Phi must normalize K (it acts on K by conjugation); otherwise
    DoesNotNormalize is raised.
    """
    ph = _non_normalizing_generator(K, Phi)
    if ph is not None:
        raise DoesNotNormalize(
            f"{format_perm(Perm(ph, _checked=True))} does not normalize the acted-on subgroup"
        )
    pair = _commuting_pair(Phi, K)
    if pair is not None:
        return False, "{} fixes {}".format(*pair)
    return True, ""


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
    has_index2_cyclic = n // 2 in orders.values()
    if not has_index2_cyclic:
        return False, False
    involutions = [t for t, m in orders.items() if m == 2]
    closed = mulclose(P.degree, involutions)
    return (len(closed) == n), False


# -- theorem verifiers -----------------------------------------------------------


def _solvable_check(G: Group) -> Check:
    passed = is_solvable(G)
    witness = ""
    if not passed:
        witness = f"derived series stabilizes at order {derived_series(G).terms[-1].order()}"
    return Check("group-solvable", passed, witness)


def _nilpotent_check(H: Subgroup) -> Check:
    passed = is_nilpotent(H.carrier)
    witness = ""
    if not passed:
        stuck = lower_central_series(H.carrier).terms[-1].order()
        witness = f"lower central series stabilizes at order {stuck}"
    return Check("subgroup-nilpotent", passed, witness)


def _open(
    theorem: str, G: Group, H: Subgroup, mode: str, context: MaxNormContext | None
) -> tuple[float, VerdictReport, MaxNormContext, MaximalNormalizerResult]:
    """The pair verifiers' first step: the mode's check, the start time, the
    report with its subject, and the pair's context (built unless given)
    with its result."""
    check_mode(mode)
    started = time.perf_counter()
    subject = {"group_order": G.order(), "subgroup": fingerprint(H), "subgroup_order": H.order()}
    report = VerdictReport(theorem, subject, mode=mode)
    if context is None:
        context = maximal_normalizer_context(G, H)
    return started, report, context, context.result(mode)


def _finish(report: VerdictReport, started: float) -> VerdictReport:
    report.elapsed_s = time.perf_counter() - started
    return report.finalize()


def verify_comp22(
    G: Group,
    H: Subgroup,
    mode: str = MODE_FIT_NORMAL,
    context: MaxNormContext | None = None,
) -> VerdictReport:
    """For solvable G with a non-normal maximal normalizer H: modulo the core,
    the group splits as Fit(G/C) x| H/C and Fit(G/C) Z(Fit(H/C)) is Frobenius.
    """
    started, report, context, mn = _open("comp22", G, H, mode, context)
    report.metadata["quotient_reading"] = "decomposition asserted in G/C"
    report.hypothesis_checks = [
        _solvable_check(G),
        Check("subgroup-non-normal", not is_normal(G, H)),
        Check(
            "core-differs-from-subgroup",
            context.core.order() != H.order(),
            f"core order {context.core.order()}",
        ),
        mn.to_check(),
    ]
    if not all(c.passed for c in report.hypothesis_checks):
        return _finish(report, started)

    Q = context.Q
    Hbar = context.Hbar
    F = fitting_subgroup(Q)
    meet = intersection(Q, F, Subgroup(Q, Hbar.carrier))
    report.conclusion_checks.append(
        Check(
            "fitting-meets-subgroup-trivially",
            meet.order() == 1,
            f"|Fit(G/C) n H/C| = {meet.order()}",
        )
    )
    product_ok = F.order() * Hbar.order() == Q.order()
    report.conclusion_checks.append(
        Check(
            "semidirect-order-product",
            product_ok,
            f"{F.order()}*{Hbar.order()} vs {Q.order()}",
        )
    )
    ZF = center(fitting_subgroup(Hbar.carrier).carrier)
    Z_in_Q = Subgroup(Q, ZF.carrier)
    frob = is_frobenius_product(Q, F, Z_in_Q)
    report.metadata["frobenius_product_order"] = frob.product_order
    report.conclusion_checks.append(
        Check(
            "fitting-times-centre-is-frobenius",
            frob.passed,
            frob.reason + (f": {frob.witness}" if frob.witness else ""),
        )
    )
    return _finish(report, started)


def verify_hall_lemma(
    G: Group,
    H: Subgroup,
    mode: str = MODE_FIT_NORMAL,
    context: MaxNormContext | None = None,
) -> VerdictReport:
    """A nilpotent maximal normalizer is, modulo its core, a Hall subgroup and
    again a core-free maximal normalizer of the quotient.
    """
    started, report, context, mn = _open("hall", G, H, mode, context)
    report.hypothesis_checks = [
        _nilpotent_check(H),
        mn.to_check(),
    ]
    if not all(c.passed for c in report.hypothesis_checks):
        return _finish(report, started)

    Q = context.Q
    Hbar = context.Hbar
    report.conclusion_checks.append(
        Check(
            "image-is-hall-subgroup",
            is_hall(Q, Hbar),
            f"order {Hbar.order()}, index {Q.order() // max(Hbar.order(), 1)}",
        )
    )
    # the core of H/C in G/C is trivial, and the test on (G/C, H/C) would read
    # the quotient, Fitting subgroup and candidates this context holds: its
    # result is mn with core order 1
    report.conclusion_checks.append(Check("image-core-free", True, "core order 1"))
    check = replace(mn, core_order=1).to_check()
    check.name = "image-maximal-normalizer"
    report.conclusion_checks.append(check)
    return _finish(report, started)


def verify_rem23(
    G: Group,
    H: Subgroup,
    mode: str = MODE_FIT_NORMAL,
    context: MaxNormContext | None = None,
) -> VerdictReport:
    """A group with a nilpotent maximal normalizer is solvable, or that
    subgroup is a Sylow 2-subgroup.

    When the group is non-solvable and H is nilpotent, not a 2-group, and has
    core different from H, the report also records a subgroup U of H whose
    normalizer lies strictly between H and G.
    """
    started, report, context, mn = _open("rem23", G, H, mode, context)
    nilpotent_check = _nilpotent_check(H)
    nilpotent = nilpotent_check.passed
    report.hypothesis_checks = [
        nilpotent_check,
        mn.to_check(),
    ]

    solvable = is_solvable(G)
    h_order = H.order()
    is_2_group = h_order == p_part(h_order, 2)
    # strict-normalizer witness (applies regardless of the hypothesis outcome)
    if (
        not solvable
        and nilpotent
        and not is_2_group
        and context.core.order() != h_order
        and h_order > 1
    ):
        witness = None
        try:
            for U in enumerate_subgroups(H.carrier):
                if U.order() == 1:
                    continue
                NU = normalizer(G, Subgroup(G, U.carrier))
                if h_order < NU.order() < G.order() and subgroup_le(H, NU):
                    witness = {
                        "subgroup": fingerprint(Subgroup(G, U.carrier)),
                        "normalizer_order": NU.order(),
                    }
                    break
        except OrderTooLarge as exc:
            # the search did not finish, so it claims nothing
            report.metadata["strict_normalizer_skipped"] = str(exc)
        else:
            report.metadata["strict_normalizer_witness"] = witness
            report.metadata["strict_normalizer_violated"] = witness is None

    if not all(c.passed for c in report.hypothesis_checks):
        return _finish(report, started)

    sylow2 = is_2_group and h_order == p_part(G.order(), 2)
    report.conclusion_checks.append(
        Check(
            "solvable-or-sylow-2",
            solvable or sylow2,
            f"solvable={solvable}, sylow-2-branch={sylow2}",
        )
    )
    report.metadata["branch"] = "solvable" if solvable else ("sylow-2" if sylow2 else "none")
    return _finish(report, started)


def verify_simp(
    G: Group,
    H: Subgroup,
    mode: str = MODE_FIT_NORMAL,
    context: MaxNormContext | None = None,
) -> VerdictReport:
    """For non-solvable G with a nilpotent maximal normalizer: the Fitting
    subgroup lies inside H, there is a unique minimal normal subgroup K which
    is a direct product of same-order simple factors with dihedral Sylow
    2-subgroups, the quotient G/K is a 2-group, and each factor's order is
    consistent with a projective special linear group of prime parameter.
    """
    started, report, context, mn = _open("simp", G, H, mode, context)
    solvable_check = _solvable_check(G)
    report.hypothesis_checks = [
        _nilpotent_check(H),
        mn.to_check(),
        Check("group-non-solvable", not solvable_check.passed),
    ]
    if not all(c.passed for c in report.hypothesis_checks):
        return _finish(report, started)

    F = fitting_subgroup(G)
    report.conclusion_checks.append(
        Check(
            "fitting-inside-subgroup",
            subgroup_le(F, H),
            f"Fit order {F.order()}",
        )
    )
    minimals = minimal_normal_subgroups(G)
    report.conclusion_checks.append(
        Check(
            "unique-minimal-normal",
            len(minimals) == 1,
            f"{len(minimals)} minimal normal subgroup(s) of orders "
            f"{[m.order() for m in minimals]}",
        )
    )
    if len(minimals) != 1:
        return _finish(report, started)
    K = minimals[0]

    factors = [Subgroup(G, M.carrier) for M in minimal_normal_subgroups(K.carrier)]
    orders = [S.order() for S in factors]
    factors_ok = (
        not is_abelian(K.carrier)
        and all(is_simple(S.carrier) for S in factors)
        and len(set(orders)) == 1
        and prod(orders) == K.order()
    )
    report.conclusion_checks.append(
        Check(
            "minimal-normal-is-product-of-simple-factors",
            factors_ok,
            f"factor orders {orders}",
        )
    )
    dihedral_flags = []
    klein_flags = []
    for S in factors:
        P2 = sylow_subgroup(S.carrier, 2)
        dihedral, klein = is_dihedral_2group(P2.carrier)
        dihedral_flags.append(dihedral)
        klein_flags.append(klein)
    report.conclusion_checks.append(
        Check(
            "factor-sylow-2-dihedral",
            all(dihedral_flags),
            f"dihedral={dihedral_flags}, klein-degenerate={klein_flags}",
        )
    )
    report.metadata["klein_degenerate_factors"] = klein_flags
    quot_order = G.order() // K.order()
    report.conclusion_checks.append(
        Check(
            "quotient-by-minimal-normal-is-2-group",
            quot_order == p_part(quot_order, 2),
            f"|G/K| = {quot_order}",
        )
    )
    params = [psl2_parameter(o) for o in orders]
    report.conclusion_checks.append(
        Check(
            "factor-order-consistent-with-psl2p",
            all(p is not None for p in params),
            f"p values {params} (order matching, not an isomorphism claim)",
        )
    )
    report.metadata["psl2_parameters"] = params
    return _finish(report, started)


def verify_thompson(K: Subgroup, Phi: Subgroup, ambient: Group) -> VerdictReport:
    """A group admitting a fixed-point-free action by a group of prime order
    is nilpotent."""
    started = time.perf_counter()
    report = VerdictReport(
        "thompson",
        {
            "group_order": ambient.order(),
            "kernel": fingerprint(K),
            "kernel_order": K.order(),
            "actor": fingerprint(Phi),
            "actor_order": Phi.order(),
        },
    )
    fpf, witness = fixed_point_free(K, Phi)
    report.hypothesis_checks = [
        Check("actor-has-prime-order", is_prime(Phi.order()), f"order {Phi.order()}"),
        Check("action-fixed-point-free", fpf, witness),
    ]
    if not all(c.passed for c in report.hypothesis_checks):
        return _finish(report, started)
    report.conclusion_checks.append(Check("acted-on-group-nilpotent", is_nilpotent(K.carrier)))
    return _finish(report, started)


def verify_burnside_complement(
    H: Subgroup, attestation: str = "caller", attested: bool = True
) -> VerdictReport:
    """Structure of a Frobenius complement: cyclic when its order is a product
    of two primes; cyclic Sylow subgroups at odd primes; cyclic or generalized
    quaternion Sylow 2-subgroup. The hypothesis, that H is a Frobenius
    complement, is the caller's: attested says whether it holds, attestation why.
    """
    started = time.perf_counter()
    report = VerdictReport(
        "burnside",
        {"subgroup": fingerprint(H), "subgroup_order": H.order()},
    )
    report.hypothesis_checks = [
        Check("complement-attested", attested, attestation),
    ]
    if not attested:
        return _finish(report, started)
    n = H.order()
    fact = factorize(n)
    if sum(fact.values()) == 2:
        report.conclusion_checks.append(
            Check("order-pq-implies-cyclic", is_cyclic(H.carrier), f"order {n}")
        )
    for p in sorted(fact):
        P = sylow_subgroup(H.carrier, p)
        if p == 2:
            cyc = is_cyclic(P.carrier)
            quat = (not cyc) and is_generalized_quaternion(P.carrier)
            report.conclusion_checks.append(
                Check(
                    "sylow-2-cyclic-or-quaternion",
                    cyc or quat,
                    f"order {P.order()}, cyclic={cyc}, quaternion={quat}",
                )
            )
        else:
            report.conclusion_checks.append(
                Check(
                    f"sylow-{p}-cyclic",
                    is_cyclic(P.carrier),
                    f"order {P.order()}",
                )
            )
    return _finish(report, started)
