from __future__ import annotations

import json
import threading

import pytest

from normlab.catalog import build, parse_spec
from normlab.cli import _exit_code_for, report_document
from normlab.errors import IndexTooLarge, OrderTooLarge
from normlab.limits import Limits, using_limits
from normlab.structure import p_core, quotient
from normlab.subgroups import Subgroup, intersection, normalizer
from normlab.verdict import Check, VerdictReport

from oracles import filter_normalizer, mulclose


def test_intersection_order_too_large_when_both_factors_exceed_bound():
    G, _ = build(parse_spec("S:5"))
    A = Subgroup(G, G.point_stabilizer(5))  # order 24
    B = Subgroup(G, G.point_stabilizer(1))
    with using_limits(Limits(enum_bound=10)):
        with pytest.raises(OrderTooLarge):
            intersection(G, A, B)


def test_intersection_fine_when_one_factor_is_small():
    G, _ = build(parse_spec("S:5"))
    A = Subgroup(G, G.point_stabilizer(5))
    small = p_core(build(parse_spec("S:5"))[0], 5)  # trivial
    with using_limits(Limits(enum_bound=30)):
        got = intersection(G, A, Subgroup(G, G.point_stabilizer(1)))
        assert got.order() == 6  # stabilizer of both 1 and 5


def test_quotient_index_too_large():
    G, _ = build(parse_spec("S:4"))
    V = p_core(G, 2)
    with using_limits(Limits(index_bound=2)):
        with pytest.raises(IndexTooLarge):
            quotient(G, V)


def test_concurrent_chain_first_use_is_safe():
    G, _ = build(parse_spec("PSL2:13"))
    results = []

    def worker():
        results.append(G.order())

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [1092] * 8


def test_normalizer_two_paths_agree_on_midsize_groups():
    # the backtrack against a chain-free exhaustive filter; spot the
    # agreement on groups past order 100
    from normlab.subgroups import enumerate_subgroups

    for name in ("S:5", "AGL1:11"):
        G, _ = build(parse_spec(name))
        ambient = mulclose(list(G.generators), G.degree)
        subs = enumerate_subgroups(G)
        for H in subs[:: max(1, len(subs) // 25)]:
            H_gens = list(H.generators)
            ex = filter_normalizer(ambient, H_gens, mulclose(H_gens, G.degree))
            bt = set(normalizer(G, H).carrier.sorted_elements())
            assert bt == ex, (name, H.order())


def test_verdict_status_derivation():
    ok = Check("a", True)
    bad = Check("b", False, "w")
    assert VerdictReport.derive_status([ok], [ok]) == "confirmed"
    assert VerdictReport.derive_status([ok, bad], [ok]) == "hypotheses-not-met"
    assert VerdictReport.derive_status([ok], [bad]) == "counterexample"
    assert VerdictReport.derive_status([], []) == "confirmed"


def test_exit_codes_from_reports():
    confirmed = VerdictReport("t", {}, [], [Check("c", True)]).finalize()
    notmet = VerdictReport("t", {}, [Check("h", False)], []).finalize()
    counter = VerdictReport("t", {}, [Check("h", True)], [Check("c", False)]).finalize()
    skipped = VerdictReport("t", {}, status="skipped-too-large")
    assert _exit_code_for([confirmed]) == 0
    assert _exit_code_for([notmet]) == 0
    assert _exit_code_for([counter]) == 3
    assert _exit_code_for([confirmed, counter]) == 3
    assert _exit_code_for([skipped]) == 4
    assert _exit_code_for([skipped, confirmed]) == 0


def test_verdict_invariants_hold_in_reports():
    # status fields always match the checks they summarize
    from normlab.scan import scan

    reports, _ = scan([parse_spec("S:4"), parse_spec("A:5")])
    for r in reports:
        if r.status == "skipped-too-large":
            continue
        assert r.status == VerdictReport.derive_status(
            r.hypothesis_checks, r.conclusion_checks
        )
        for c in r.hypothesis_checks + r.conclusion_checks:
            if not c.passed and r.status == "counterexample":
                assert c.witness


def test_report_document_schema_fields():
    report = VerdictReport("t", {"group": "S:4"}, [], [Check("c", True)]).finalize()
    doc = report_document(["verify", "t"], [report], {}, 0.5)
    payload = json.loads(json.dumps(doc))
    assert set(payload) >= {"tool", "version", "invocation", "reports", "summary", "elapsed_s"}
    entry = payload["reports"][0]
    assert set(entry) == {
        "theorem",
        "subject",
        "hypothesis_checks",
        "conclusion_checks",
        "status",
        "mode",
        "metadata",
        "elapsed_s",
    }
    assert set(entry["conclusion_checks"][0]) == {"name", "passed", "witness"}
    summary_counts = payload["summary"]["status_counts"]
    assert summary_counts["confirmed"] == 1


def test_simp_on_product_with_failing_hypotheses():
    from normlab.structure import sylow_subgroup
    from normlab.theorems import verify_simp

    G, _ = build(parse_spec("PROD(A:5,C:2)"))
    H = sylow_subgroup(G, 2)
    report = verify_simp(G, H)
    assert report.status == "hypotheses-not-met"
    failing = [c for c in report.hypothesis_checks if not c.passed]
    assert failing and all(c.name.startswith("maximal-normalizer") for c in failing)
