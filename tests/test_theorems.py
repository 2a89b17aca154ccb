from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from normlab.catalog import build, default_sweep, parse_spec, select_subgroup
from normlab.errors import DoesNotNormalize, InvalidParameter
from normlab.limits import Limits, get_limits, using_limits
from normlab.perm import perm_from_cycles
from normlab.structure import fitting_subgroup, is_abelian, p_core, sylow_subgroup
from normlab.subgroups import (
    Subgroup,
    core,
    enumerate_subgroups,
    fingerprint,
    is_normal,
    subgroup,
    trivial_subgroup,
    whole,
)
from normlab.theorems import (
    MODE_FIT_NORMAL,
    MODE_H_NORMAL,
    MODES,
    fixed_point_free,
    frobenius_decomposition,
    is_dihedral_2group,
    is_frobenius_product,
    is_maximal_normalizer,
    maximal_normalizer_context,
    verify_burnside_complement,
    verify_comp22,
    verify_hall_lemma,
    verify_rem23,
    verify_simp,
    verify_thompson,
)
from normlab.verdict import VerdictReport

from oracles import conjugate_subgroup, frobenius_by_normal_kernels

EXTRASPECIAL_FROBENIUS = Path(__file__).parent / "data" / "frobenius_7_1_2_3.grp"


def _stab(G, k):
    return Subgroup(G, G.point_stabilizer(k))


# -- maximal normalizer --------------------------------------------------------------


def test_maxnorm_s4_point_stabilizer(s4):
    res = is_maximal_normalizer(s4, _stab(s4, 4))
    assert res.passed
    assert res.core_order == 1
    assert res.candidates_checked == 1  # only the rotation subgroup of S3


def test_maxnorm_s4_sylow2(s4):
    res = is_maximal_normalizer(s4, sylow_subgroup(s4, 2))
    assert res.passed
    assert res.core_order == 4
    assert res.quotient_order == 6
    assert res.hbar_order == 2


def test_maxnorm_psl217_sylow2(psl2_17):
    ctx = maximal_normalizer_context(psl2_17, sylow_subgroup(psl2_17, 2))
    for mode in (MODE_FIT_NORMAL, MODE_H_NORMAL):
        res = ctx.result(mode)
        assert res.passed
        assert res.candidates_checked == 6


def test_maxnorm_failure_witness(a5):
    C3 = subgroup(a5, [perm_from_cycles(5, [[1, 2, 3]])])
    res = is_maximal_normalizer(a5, C3)
    assert not res.passed
    assert res.failure is not None
    assert res.failure[1].startswith("6:")  # the normalizer is an S3 of order 6


def test_maxnorm_not_proper(s4):
    res = is_maximal_normalizer(s4, whole(s4))
    assert not res.passed and res.not_proper


def test_maxnorm_conjugation_invariance(s4, a5):
    # the verdict is invariant under conjugating the subgroup
    for G in (s4, a5):
        for H in enumerate_subgroups(G):
            if H.order() in (1, G.order()) or is_normal(G, H):
                continue
            base = is_maximal_normalizer(G, H).passed
            for g in list(G.elements())[::7]:
                Hg = conjugate_subgroup(H, g)
                assert is_maximal_normalizer(G, Hg).passed == base


def test_maxnorm_modes_differ_where_expected():
    # inside PSL(2,13), the alternating subgroups of degree 4 pass only the
    # h-normal quantifier: the Klein subgroup is normal in them, but its
    # order-2 subgroups (normal in the Fitting subgroup) have bigger normalizers
    G, _ = build(parse_spec("PSL2:13"))
    a4_like = None
    for S in enumerate_subgroups(G):
        if S.order() == 12 and not any(g.order() == 6 for g in S.carrier.elements()):
            a4_like = S
            break
    assert a4_like is not None
    ctx = maximal_normalizer_context(G, a4_like)
    assert not ctx.result(MODE_FIT_NORMAL).passed
    assert ctx.result(MODE_H_NORMAL).passed


def test_an_unknown_mode_is_refused(s4, monkeypatch):
    # an unknown mode was once evaluated as h-normal by the verifiers, and
    # is_maximal_normalizer refused it with a bare ValueError
    H = _stab(s4, 4)
    for verify in (verify_comp22, verify_hall_lemma, verify_rem23, verify_simp):
        with pytest.raises(InvalidParameter, match="bogus"):
            verify(s4, H, mode="bogus")
    with pytest.raises(InvalidParameter, match="bogus"):
        is_maximal_normalizer(s4, H, "bogus")
    with pytest.raises(InvalidParameter, match="bogus"):
        maximal_normalizer_context(s4, H).result("bogus")

    # and it is refused before the pair's context is built: the mode was
    # once checked only after the whole context of (S:10, stab:1)
    import normlab.theorems as theorems_module

    def no_context(G, H):
        raise AssertionError("context built")

    monkeypatch.setattr(theorems_module, "maximal_normalizer_context", no_context)
    for verify in (verify_comp22, verify_hall_lemma, verify_rem23, verify_simp):
        with pytest.raises(InvalidParameter, match="bogus"):
            verify(s4, H, mode="bogus")
    with pytest.raises(InvalidParameter, match="bogus"):
        is_maximal_normalizer(s4, H, "bogus")


# -- Frobenius products ----------------------------------------------------------------


def test_frobenius_product_a4(a4):
    V = p_core(a4, 2)
    C3 = subgroup(a4, [perm_from_cycles(4, [[1, 2, 3]])])
    res = is_frobenius_product(a4, V, C3)
    assert res.passed
    assert res.product_order == 12


def test_frobenius_product_order_with_a_trivial_factor(a4):
    # no join is built, but the order is the one the join would have
    V = p_core(a4, 2)
    res = is_frobenius_product(a4, V, trivial_subgroup(a4))
    assert not res.passed
    assert res.product_order == 4


def test_frobenius_product_s4_fails(s4):
    V = p_core(s4, 2)
    S3 = _stab(s4, 4)
    res = is_frobenius_product(s4, V, S3)
    assert not res.passed
    assert "centralizes" in res.witness
    assert res.product_order == 24


def test_frobenius_product_kernel_not_normal(s4):
    # no product is built: its order is |K||H| / |K meet H| as a set
    K = subgroup(s4, [perm_from_cycles(4, [[1, 2, 3]])])
    H = subgroup(s4, [perm_from_cycles(4, [[1, 4]])])
    res = is_frobenius_product(s4, K, H)
    assert not res.passed
    assert res.reason == "kernel is not normal in the product"
    assert res.product_order == 6


def test_frobenius_product_kernel_meets_complement(s4):
    V = p_core(s4, 2)
    res = is_frobenius_product(s4, V, sylow_subgroup(s4, 2))
    assert not res.passed
    assert res.reason == "kernel meets complement"
    assert res.witness == "4:(1 2)(3 4),(1 3)(2 4)"
    assert res.product_order == 8


def test_frobenius_product_abelian_fails():
    C6, _ = build(parse_spec("C:6"))
    C3 = subgroup(C6, [perm_from_cycles(6, [[1, 3, 5], [2, 4, 6]])])
    C2 = subgroup(C6, [perm_from_cycles(6, [[1, 4], [2, 5], [3, 6]])])
    res = is_frobenius_product(C6, C3, C2)
    assert not res.passed


def test_frobenius_decomposition_a4(a4):
    dec = frobenius_decomposition(a4)
    assert dec is not None
    assert dec.kernel.order() == 4
    assert dec.complement.order() == 3
    # the defining properties of the decomposition
    meet = dec.kernel.carrier.element_tuples() & dec.complement.carrier.element_tuples()
    assert len(meet) == 1
    assert dec.kernel.order() * dec.complement.order() == a4.order()


def test_frobenius_decomposition_agl():
    for p in (5, 7, 11):
        G, _ = build(parse_spec(f"AGL1:{p}"))
        dec = frobenius_decomposition(G)
        assert dec is not None
        assert dec.kernel.order() == p
        assert dec.complement.order() == p - 1


def test_frobenius_decomposition_none():
    for name in ("C:6", "S:4", "D:4", "PSL2:5"):
        G, _ = build(parse_spec(name))
        assert frobenius_decomposition(G) is None, name


@pytest.fixture(scope="module")
def extraspecial_frobenius():
    """7^{1+2}:3 on F_7^2: the Frobenius kernel is the extraspecial group
    7^{1+2}, so Fit(G) is non-abelian."""
    G, _ = build(parse_spec(f"FILE:{EXTRASPECIAL_FROBENIUS}"))
    return G


def test_frobenius_decomposition_non_abelian_kernel(extraspecial_frobenius):
    G = extraspecial_frobenius
    assert G.order() == 1029
    F = fitting_subgroup(G)
    assert F.order() == 343
    assert not is_abelian(F.carrier)
    dec = frobenius_decomposition(G)
    assert (dec.kernel.order(), dec.complement.order()) == (343, 3)
    res = is_frobenius_product(G, F, select_subgroup(G, "syl:3"))
    assert res.passed
    assert res.product_order == 1029


def test_frobenius_decomposition_matches_normal_kernel_oracle(extraspecial_frobenius):
    # the oracle tries every normal subgroup as the kernel; the library tries
    # only the Fitting subgroup
    groups = [build(spec)[0] for spec in default_sweep(2500)]
    bound = get_limits().subgroup_bound
    for G in [*(G for G in groups if G.order() <= bound), extraspecial_frobenius]:
        dec = frobenius_decomposition(G)
        expected = frobenius_by_normal_kernels(G)
        if expected is None:
            assert dec is None, G
            continue
        assert dec is not None, G
        assert fingerprint(dec.kernel) == fingerprint(expected[0])
        assert fingerprint(dec.complement) == fingerprint(expected[1])


# -- fixed point free actions -------------------------------------------------------


def test_fixed_point_free_a4(a4):
    V = p_core(a4, 2)
    C3 = subgroup(a4, [perm_from_cycles(4, [[1, 2, 3]])])
    ok, witness = fixed_point_free(V, C3)
    assert ok and witness == ""


def test_fixed_point_free_fails_in_s4(s4):
    V = p_core(s4, 2)
    C2 = subgroup(s4, [perm_from_cycles(4, [[1, 2]])])
    ok, witness = fixed_point_free(V, C2)
    assert not ok and "fixes" in witness


def test_fixed_point_free_trivial_actor(s4):
    V = p_core(s4, 2)
    ok, _ = fixed_point_free(V, trivial_subgroup(s4))
    assert ok


def test_fixed_point_free_requires_normalizing(s4):
    C3 = subgroup(s4, [perm_from_cycles(4, [[1, 2, 3]])])
    C4 = subgroup(s4, [perm_from_cycles(4, [[1, 2, 3, 4]])])
    with pytest.raises(DoesNotNormalize):
        fixed_point_free(C3, C4)


# -- dihedral recognition --------------------------------------------------------------


def test_dihedral_recognition(d4, q8):
    assert is_dihedral_2group(d4) == (True, False)
    assert is_dihedral_2group(q8) == (False, False)
    V4, _ = build(parse_spec("PROD(C:2,C:2)"))
    assert is_dihedral_2group(V4) == (True, True)
    C4, _ = build(parse_spec("C:4"))
    assert is_dihedral_2group(C4) == (False, False)
    C8, _ = build(parse_spec("C:8"))
    assert is_dihedral_2group(C8) == (False, False)
    D8, _ = build(parse_spec("D:8"))
    assert is_dihedral_2group(D8) == (True, False)


# -- verifiers --------------------------------------------------------------------------


def test_comp22_s4_point_stabilizer(s4):
    report = verify_comp22(s4, _stab(s4, 4))
    assert report.status == "confirmed"
    assert report.metadata["frobenius_product_order"] == 12
    names = [c.name for c in report.conclusion_checks]
    assert "semidirect-order-product" in names


def test_comp22_s4_sylow2(s4):
    report = verify_comp22(s4, sylow_subgroup(s4, 2))
    assert report.status == "confirmed"
    assert report.metadata["frobenius_product_order"] == 6


def test_comp22_agl_family():
    for p in (5, 7, 11, 13):
        G = build(parse_spec(f"AGL1:{p}"))[0]
        H = select_subgroup(G, "stab:1")
        report = verify_comp22(G, H)
        assert report.status == "confirmed", p


def test_comp22_psl217_never_counterexample(psl2_17):
    report = verify_comp22(psl2_17, sylow_subgroup(psl2_17, 2))
    assert report.status == "hypotheses-not-met"
    failed = [c.name for c in report.hypothesis_checks if not c.passed]
    assert failed == ["group-solvable"]


def test_hall_lemma_s4_sylow2(s4):
    report = verify_hall_lemma(s4, sylow_subgroup(s4, 2))
    assert report.status == "confirmed"


def test_hall_lemma_s4_s3_not_nilpotent(s4):
    report = verify_hall_lemma(s4, _stab(s4, 4))
    assert report.status == "hypotheses-not-met"
    failed = [c.name for c in report.hypothesis_checks if not c.passed]
    assert failed == ["subgroup-nilpotent"]


def test_hall_lemma_agl7():
    G = build(parse_spec("AGL1:7"))[0]
    H = select_subgroup(G, "stab:1")
    report = verify_hall_lemma(G, H)
    assert report.status == "confirmed"
    hall_check = next(c for c in report.conclusion_checks if c.name == "image-is-hall-subgroup")
    assert hall_check.passed


def test_hall_image_checks_match_independent_rebuild():
    # hall reads its two image checks off the pair's context; the oracle
    # rebuilds them from core(Q, Hbar) and a fresh test on (Q, Hbar), for
    # every hit pair, and compares with the report wherever H is nilpotent
    compared = 0
    for name in ("S:4", "AGL1:7", "PSL2:7"):
        G, _ = build(parse_spec(name))
        for H in enumerate_subgroups(G):
            if H.order() == G.order() or is_normal(G, H):
                continue
            ctx = maximal_normalizer_context(G, H)
            for mode in MODES:
                mn = ctx.result(mode)
                if not mn.passed:
                    continue
                inner_core = core(ctx.Q, ctx.Hbar)
                inner = is_maximal_normalizer(ctx.Q, ctx.Hbar, mode)
                assert inner_core.order() == 1
                assert inner == replace(mn, core_order=1)
                report = verify_hall_lemma(G, H, mode, ctx)
                if not report.conclusion_checks:
                    continue  # H is not nilpotent
                got = {c.name: c.to_dict() for c in report.conclusion_checks}
                assert got["image-core-free"] == {
                    "name": "image-core-free", "passed": True, "witness": "core order 1",
                }
                check = inner.to_check()
                check.name = "image-maximal-normalizer"
                assert got["image-maximal-normalizer"] == check.to_dict()
                compared += 1
    assert compared == 20  # 6 in S:4, 14 in AGL1:7; no hit of PSL2:7 is nilpotent


def test_rem23_psl217(psl2_17):
    report = verify_rem23(psl2_17, sylow_subgroup(psl2_17, 2))
    assert report.status == "confirmed"
    assert report.metadata["branch"] == "sylow-2"


def test_rem23_s4(s4):
    report = verify_rem23(s4, sylow_subgroup(s4, 2))
    assert report.status == "confirmed"
    assert report.metadata["branch"] == "solvable"


def test_rem23_a5_strict_normalizer_witness(a5):
    C3 = subgroup(a5, [perm_from_cycles(5, [[1, 2, 3]])])
    report = verify_rem23(a5, C3)
    assert report.status == "hypotheses-not-met"
    witness = report.metadata["strict_normalizer_witness"]
    assert witness is not None
    assert witness["normalizer_order"] == 6
    assert not report.metadata["strict_normalizer_violated"]


def test_rem23_bound_in_witness_search_claims_no_violation():
    # the search for U <= H with N(U) strictly between H and G stops at the
    # lattice bound on H; an unfinished search must not say "violated"
    G, _ = build(parse_spec("PROD(A:5,C:7)"))
    selector = "gens:(1 2 3)|(6 7 8 9 10 11 12)"
    with using_limits(Limits(subgroup_bound=10)):
        report = verify_rem23(G, select_subgroup(G, selector))
    assert report.metadata == {
        "strict_normalizer_skipped": "subgroup enumeration needs order <= 10"
    }
    report = verify_rem23(G, select_subgroup(G, selector))
    assert report.metadata["strict_normalizer_witness"] == {
        "subgroup": "3:(1 2 3)",
        "normalizer_order": 42,
    }
    assert not report.metadata["strict_normalizer_violated"]


def test_simp_psl217(psl2_17):
    report = verify_simp(psl2_17, sylow_subgroup(psl2_17, 2))
    assert report.status == "confirmed"
    assert report.metadata["psl2_parameters"] == [17]
    by_name = {c.name: c for c in report.conclusion_checks}
    assert by_name["unique-minimal-normal"].passed
    assert by_name["factor-sylow-2-dihedral"].passed
    assert by_name["quotient-by-minimal-normal-is-2-group"].passed


def test_simp_psl25_klein_degenerate():
    # the Sylow 2-subgroup of the order-60 member is the Klein four-group;
    # the degenerate dihedral case must be flagged
    G, _ = build(parse_spec("PSL2:5"))
    H = sylow_subgroup(G, 2)
    report = verify_simp(G, H)
    assert report.mode == MODE_FIT_NORMAL
    if report.status == "confirmed":
        assert report.metadata["klein_degenerate_factors"] == [True]
    else:
        # the pipeline decides the maximal-normalizer hypothesis
        assert report.status == "hypotheses-not-met"


def test_simp_solvable_group_hypotheses_not_met(s4):
    report = verify_simp(s4, sylow_subgroup(s4, 2))
    assert report.status == "hypotheses-not-met"


def test_thompson_agl7():
    G, _ = build(parse_spec("AGL1:7"))
    K = fitting_subgroup(G)
    stab = Subgroup(G, G.point_stabilizer(1))
    C3 = subgroup(G, [g for g in stab.carrier.elements() if g.order() == 3][:1])
    report = verify_thompson(K, C3, G)
    assert report.status == "confirmed"


def test_thompson_a4(a4):
    V = p_core(a4, 2)
    C3 = subgroup(a4, [perm_from_cycles(4, [[1, 2, 3]])])
    report = verify_thompson(V, C3, a4)
    assert report.status == "confirmed"


def test_thompson_with_fixed_point(s4):
    V = p_core(s4, 2)
    C2 = subgroup(s4, [perm_from_cycles(4, [[1, 2]])])
    report = verify_thompson(V, C2, s4)
    assert report.status == "hypotheses-not-met"


def test_burnside_complements():
    for spec, expect_cyclic_order in (("AGL1:5", 4), ("AGL1:7", 6)):
        G = build(parse_spec(spec))[0]
        H = select_subgroup(G, "stab:1")
        assert H.order() == expect_cyclic_order
        report = verify_burnside_complement(H, "test attestation")
        assert report.status == "confirmed"
        assert any(c.name == "order-pq-implies-cyclic" for c in report.conclusion_checks)


def test_burnside_prime_order_complement(a4):
    dec = frobenius_decomposition(a4)
    report = verify_burnside_complement(dec.complement, "test")
    assert report.status == "confirmed"


def test_report_serialization_roundtrip(s4):
    report = verify_comp22(s4, _stab(s4, 4))
    data = report.to_dict()
    back = VerdictReport.from_dict(data)
    assert back.to_dict() == data
