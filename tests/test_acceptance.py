"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import importlib.util
import json
import random
import time
from math import gcd
from pathlib import Path

import pytest

from normlab.catalog import build, default_sweep, parse_spec, select_subgroup
from normlab.cli import main, report_document
from normlab.structure import is_solvable, sylow_subgroup
from normlab.subgroups import (
    Subgroup,
    centralizer,
    enumerate_subgroups,
    is_normal,
    normalizer,
    subgroup,
    subgroups_equal,
)
from normlab.theorems import (
    MODE_FIT_NORMAL,
    MODE_H_NORMAL,
    is_dihedral_2group,
    maximal_normalizer_context,
    verify_comp22,
    verify_hall_lemma,
    verify_rem23,
    verify_simp,
)
from normlab.scan import scan

from oracles import brute_centralizer, brute_normalizer_tuples, mulclose


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def sweep_results():
    started = time.perf_counter()
    reports, summary = scan(default_sweep(), max_order=2500)
    elapsed = time.perf_counter() - started
    return reports, summary, elapsed


def test_criterion_1_s4_point_stabilizer():
    started = time.perf_counter()
    G, _ = build(parse_spec("S:4"))
    H = Subgroup(G, G.point_stabilizer(4))
    ctx = maximal_normalizer_context(G, H)
    ok = ctx.result(MODE_FIT_NORMAL).passed
    report = verify_comp22(G, H, context=ctx)
    by_name = {c.name: c for c in report.conclusion_checks}
    ok = ok and report.status == "confirmed"
    ok = ok and ctx.core.order() == 1
    F = [c for c in report.conclusion_checks if c.name == "semidirect-order-product"][0]
    ok = ok and F.passed and "4*6 vs 24" in F.witness
    ok = ok and by_name["fitting-meets-subgroup-trivially"].passed
    ok = ok and report.metadata["frobenius_product_order"] == 12
    ok = ok and by_name["fitting-times-centre-is-frobenius"].passed
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _report("1 (S4 with point stabilizer)", ok, f"{elapsed:.3f}s")


def test_criterion_2_s4_sylow2():
    started = time.perf_counter()
    G, _ = build(parse_spec("S:4"))
    H = sylow_subgroup(G, 2)
    ctx = maximal_normalizer_context(G, H)
    ok = ctx.result(MODE_FIT_NORMAL).passed
    ok = ok and ctx.core.order() == 4
    ok = ok and ctx.Q.order() == 6
    ok = ok and ctx.Hbar.order() == 2
    report = verify_comp22(G, H, context=ctx)
    ok = ok and report.status == "confirmed"
    semi = [c for c in report.conclusion_checks if c.name == "semidirect-order-product"][0]
    ok = ok and semi.passed and "3*2 vs 6" in semi.witness
    ok = ok and report.metadata["frobenius_product_order"] == 6
    hall = verify_hall_lemma(G, H, context=ctx)
    ok = ok and hall.status == "confirmed"
    ok = ok and gcd(ctx.Hbar.order(), ctx.Q.order() // ctx.Hbar.order()) == 1
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _report("2 (S4 with Sylow 2-subgroup, non-trivial core)", ok, f"{elapsed:.3f}s")


def test_criterion_3_agl_family():
    started = time.perf_counter()
    ok = True
    for p in (5, 7, 11, 13):
        G = build(parse_spec(f"AGL1:{p}"))[0]
        H = select_subgroup(G, "stab:1")
        report = verify_comp22(G, H)
        ok = ok and report.status == "confirmed"
        ctx = maximal_normalizer_context(G, H)
        F = [c for c in report.conclusion_checks if c.name == "semidirect-order-product"][0]
        ok = ok and f"{p}*{p - 1}" in F.witness
        ok = ok and H.order() == p - 1
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    _report("3 (AGL1 family, p in 5,7,11,13)", ok, f"{elapsed:.3f}s")


def test_criterion_4_psl2_17():
    started = time.perf_counter()
    G = build(parse_spec("PSL2:17"))[0]
    H = select_subgroup(G, "syl:2")
    ok = G.order() == 2448
    ok = ok and H.order() == 16
    dihedral, klein = is_dihedral_2group(H.carrier)
    ok = ok and dihedral and not klein
    # all six non-trivial normal subgroups of H normalize back to H itself
    normals = [
        U
        for U in enumerate_subgroups(H.carrier)
        if U.order() > 1 and is_normal(H.carrier, U)
    ]
    ok = ok and len(normals) == 6
    for U in normals:
        N = normalizer(G, Subgroup(G, U.carrier))
        ok = ok and subgroups_equal(N, H)
    ok = ok and not is_solvable(G)
    ctx = maximal_normalizer_context(G, H)
    comp = verify_comp22(G, H, context=ctx)
    ok = ok and comp.status == "hypotheses-not-met"
    rem = verify_rem23(G, H, context=ctx)
    ok = ok and rem.status == "confirmed" and rem.metadata["branch"] == "sylow-2"
    simp = verify_simp(G, H, context=ctx)
    ok = ok and simp.status == "confirmed"
    by_name = {c.name: c for c in simp.conclusion_checks}
    ok = ok and by_name["unique-minimal-normal"].passed
    ok = ok and by_name["quotient-by-minimal-normal-is-2-group"].witness == "|G/K| = 1"
    ok = ok and simp.metadata["psl2_parameters"] == [17]
    ok = ok and "[2448]" in by_name["unique-minimal-normal"].witness  # K is G itself
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _report("4 (PSL(2,17) remark)", ok, f"{elapsed:.3f}s")


def test_criterion_5_default_sweep(sweep_results):
    reports, summary, elapsed = sweep_results
    ok = True
    for thm in ("comp22", "hall", "rem23", "simp"):
        for mode in (MODE_FIT_NORMAL, MODE_H_NORMAL):
            bad = [
                r
                for r in reports
                if r.theorem == thm and r.mode == mode and r.status == "counterexample"
            ]
            ok = ok and not bad
    hits = summary["maximal_normalizer_hits"]
    ok = ok and hits >= 10
    ok = ok and elapsed < 600.0
    _report(
        "5 (default sweep, both def21 modes)",
        ok,
        f"{hits} hits, statuses {summary['status_counts']}, {elapsed:.1f}s",
    )


def _perfbench_golden():
    """The benchmark's golden module, imported by path and only read."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "golden.py"
    spec = importlib.util.spec_from_file_location("perfbench_golden", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return golden


def test_default_sweep_document_matches_golden_digest(sweep_results):
    # the refactor gate: the default-sweep document is byte-identical to the
    # benchmark's recorded one, apart from elapsed_s fields and invocation
    golden = _perfbench_golden()
    reports, summary, _ = sweep_results
    got = golden.digest(report_document([], reports, summary, 0.0))
    assert got == golden.load()["sweep:merged"]["digest"]


# the benchmark's verify anchors (all but S:10) and a few fast analyze groups
GOLDEN_VERIFY = (
    ("comp22", "S:4", "stab:4"),
    ("comp22", "PSL2:17", "syl:2"),
    ("rem23", "PSL2:17", "syl:2"),
    ("hall", "AGL1:5", "stab:1"),
    ("hall", "AGL1:7", "stab:1"),
    ("hall", "AGL1:11", "stab:1"),
    ("hall", "AGL1:13", "stab:1"),
)
GOLDEN_ANALYZE = ("PSL2:19", "S:7", "PROD(PSL2:7,S:4)")


def test_verify_and_analyze_documents_match_golden_digests(capsys):
    # the documents carry normalizer-derived witnesses and center_order,
    # which the element-set oracles do not reach
    golden = _perfbench_golden()
    recorded = golden.load()
    ops = [
        (f"verify:{thm}|{group}|{sel}|def21=fit-normal",
         ["verify", thm, "--group", group, "--subgroup", sel, "--mode", "def21=fit-normal"])
        for thm, group, sel in GOLDEN_VERIFY
    ] + [(f"analyze:{group}", ["analyze", "--group", group]) for group in GOLDEN_ANALYZE]
    for key, argv in ops:
        code = main(argv + ["--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == recorded[key]["exit"], key
        assert golden.digest(doc) == recorded[key]["digest"], key


def test_criterion_6_intro_suite(sweep_results):
    reports, _, _ = sweep_results
    intro = [r for r in reports if r.theorem.startswith("intro-")]
    violations = [r for r in intro if r.status != "confirmed"]
    groups = {r.subject["group"] for r in intro}
    ok = not violations and len(groups) >= 30
    _report(
        "6 (classical property suite, order <= 200)",
        ok,
        f"{len(intro)} reports over {len(groups)} groups, {len(violations)} violations",
    )


def test_criterion_7_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20250808)
    checked = 0
    ok = True
    for spec in default_sweep(max_order=2000):
        G, _ = build(spec)
        ambient = set(G.elements())
        ambient_tuples = {g.images for g in ambient}
        elements = sorted(ambient)
        assert G.order() == len(mulclose(list(G.generators), G.degree))
        for _ in range(50):
            gens = rng.sample(elements, rng.choice((1, 2)))
            H = subgroup(G, gens)
            H_set = mulclose(gens, G.degree)
            ok = ok and H.order() == len(H_set)
            probe = rng.choice(elements)
            ok = ok and H.carrier.contains(probe) == (probe in H_set)
            N = normalizer(G, H)
            ok = ok and N.carrier.element_tuples() == brute_normalizer_tuples(
                ambient_tuples, {h.images for h in H_set}
            )
            C = centralizer(G, H)
            ok = ok and set(C.carrier.sorted_elements()) == brute_centralizer(ambient, H_set)
            checked += 1
        if not ok:
            break
    elapsed = time.perf_counter() - started
    _report(
        "7 (chain vs exhaustive oracle, 50 instances per group)",
        ok,
        f"{checked} instances, {elapsed:.1f}s",
    )


def test_criterion_8_frobenius_complement_structure(sweep_results):
    reports, _, _ = sweep_results
    burnside = [r for r in reports if r.theorem == "burnside"]
    thompson = [r for r in reports if r.theorem == "thompson"]
    ok = bool(burnside)
    ok = ok and all(r.status == "confirmed" for r in burnside)
    ok = ok and all(r.status == "confirmed" for r in thompson)
    _report(
        "8 (Frobenius complement structure across the sweep)",
        ok,
        f"{len(burnside)} complement report(s), {len(thompson)} prime-order kernel report(s)",
    )
