from __future__ import annotations

import importlib
from copy import deepcopy
from pathlib import Path

import pytest

from normlab.catalog import build, default_sweep, parse_spec
from normlab.errors import InvalidParameter, NotNormal, OrderTooLarge, UnknownTheorem
from normlab.limits import Limits, get_limits, using_limits
from normlab.scan import INTRO_BOUND, VERIFIERS, intro_suite, scan, scan_group, skip_report
from normlab.subgroups import (
    enumerate_subgroups,
    fingerprint,
    is_normal,
    subgroup_classes,
)
from normlab.theorems import MODES, MaxNormContext, maximal_normalizer_context
from normlab.verdict import STATUS_COUNTEREXAMPLE, Check, VerdictReport

from oracles import intro_checks_per_subgroup, per_pair_scan_reports

scan_module = importlib.import_module("normlab.scan")  # the package exports a scan function


def _scrub(reports: list[VerdictReport]) -> list[dict]:
    out = []
    for r in reports:
        d = r.to_dict()
        d.pop("elapsed_s", None)
        out.append(d)
    return out


def test_scan_empty():
    reports, summary = scan([])
    assert reports == []
    assert summary["status_counts"]["confirmed"] == 0
    assert summary["pairs_scanned"] == 0


def test_scan_s4_comp22_hits():
    reports, summary = scan([parse_spec("S:4")], theorems=("comp22",), intro=False)
    # 4 point stabilizers and 3 Sylow 2-subgroups hit, in both modes
    assert summary["maximal_normalizer_hits"] == 7
    comp = [r for r in reports if r.theorem == "comp22"]
    assert len(comp) == 14
    assert all(r.status == "confirmed" for r in comp)


def test_scan_emits_one_report_per_pair_theorem_mode():
    reports, _ = scan([parse_spec("S:4")], theorems=("comp22", "hall"), intro=False)
    keys = [(r.subject["subgroup"], r.theorem, r.mode) for r in reports if r.mode]
    assert len(keys) == len(set(keys))


def test_scan_skips_oversized_group():
    reports, summary = scan([parse_spec("PSL2:17")], intro=False)
    assert summary["groups_skipped"] == 1
    assert all(r.status == "skipped-too-large" for r in reports)


def test_scan_max_order_filters_everything():
    # a group above max_order is recorded as skipped, never dropped
    reports, summary = scan([parse_spec("S:4")], max_order=1)
    assert [r.to_dict() for r in reports] == [
        skip_report("scan", {"group": "S:4", "group_order": 24},
                    "group order 24 exceeds max order 1").to_dict()
    ]
    assert summary["groups_scanned"] == summary["groups_skipped"] == 1
    assert summary["pairs_scanned"] == 0


def test_scan_deterministic_across_workers():
    specs = [parse_spec(s) for s in ("S:4", "D:6", "A:4", "AGL1:5")]
    seq, sum1 = scan(specs, jobs=1)
    par, sum2 = scan(specs, jobs=2)
    assert _scrub(seq) == _scrub(par)
    assert sum1 == sum2


def test_scan_workers_inherit_the_callers_limits():
    # the pool is forked and ships no limits: a bound set by the caller
    # must reach the workers. PSL2:13 (order 1092) is over this bound, so a
    # worker on the default bound would scan it instead of skipping it
    specs = [parse_spec(s) for s in ("PSL2:13", "S:4", "A:4")]
    with using_limits(Limits(subgroup_bound=1000)):
        seq, serial_summary = scan(specs, jobs=1, intro=False)
        par, summary = scan(specs, jobs=2, intro=False)
    assert serial_summary["groups_skipped"] == 1
    assert _scrub(par) == _scrub(seq) and summary == serial_summary


def test_scan_rejects_fewer_than_one_job():
    for jobs in (0, -2):
        with pytest.raises(InvalidParameter):
            scan([parse_spec("S:3")], jobs=jobs)


def test_scan_pool_is_capped_at_the_group_count(monkeypatch):
    # a stand-in context: records the pool size and what map is handed,
    # maps in this process
    requested = []
    dispatched = []

    class SerialPool:
        def __init__(self, size):
            requested.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=None):
            dispatched.append(([str(item[0]) for item in items], chunksize))
            return [fn(item) for item in items]

    class Context:
        Pool = SerialPool

    monkeypatch.setattr(scan_module.multiprocessing, "get_context", lambda method: Context())
    specs = [parse_spec(s) for s in ("S:3", "C:2", "D:4")]
    par, summary = scan(specs, jobs=64, intro=False)
    assert requested == [3]
    # one group per task, largest order first
    assert dispatched == [(["D:4", "S:3", "C:2"], 1)]
    seq, serial_summary = scan(specs, jobs=1, intro=False)
    assert _scrub(par) == _scrub(seq) and summary == serial_summary


def test_scan_reports_sorted():
    reports, _ = scan([parse_spec(s) for s in ("S:4", "A:4")])
    keys = [r.sort_key() for r in reports]
    assert keys == sorted(keys)


def test_intro_suite_small_groups():
    for name in ("S:4", "D:6", "AGL1:5", "C:12", "PROD(S:3,C:2)", "A:5", "PSL2:7"):
        G, _ = build(parse_spec(name))
        reports = intro_suite(G, name)
        assert {r.theorem for r in reports} == {
            "intro-burnside",
            "intro-thompson64",
            "intro-frobenius",
            "intro-kegel-wielandt",
            "intro-gross",
        }
        bad = [r for r in reports if r.status != "confirmed"]
        assert not bad, (name, [r.theorem for r in bad])


def test_intro_suite_skipped_above_bound(psl2_17):
    reports, _ = scan_group(parse_spec("S:5"))
    intro = [r for r in reports if r.theorem.startswith("intro-")]
    assert intro  # order 120 <= 200, so it runs
    reports13, _ = scan_group(parse_spec("PSL2:13"))
    intro13 = [r for r in reports13 if r.theorem.startswith("intro-")]
    assert not intro13  # order 1092 > 200


def test_frobenius_followups_in_scan():
    reports, _ = scan_group(parse_spec("A:4"))
    assert any(r.theorem == "burnside" and r.status == "confirmed" for r in reports)
    assert any(r.theorem == "thompson" and r.status == "confirmed" for r in reports)


def test_scan_group_counts_pairs():
    G, _ = build(parse_spec("S:4"))
    proper_non_normal = [
        H
        for H in enumerate_subgroups(G)
        if H.order() < 24
        and not all(
            H.carrier.contains(g.inverse() * h * g)
            for h in H.generators
            for g in G.generators
        )
    ]
    _, stats = scan_group(parse_spec("S:4"))
    assert stats["pairs"] == len(proper_non_normal) == 26


def test_scan_group_skips_only_bound_errors(monkeypatch):
    # a skipped-too-large record stands for a resource bound; any other
    # error is a fault and must surface
    def not_a_bound(*args):
        raise NotNormal("not a resource bound")

    with monkeypatch.context() as m:
        m.setattr(scan_module, "maximal_normalizer_context", not_a_bound)
        with pytest.raises(NotNormal):
            scan_group(parse_spec("S:3"), intro=False)
    with monkeypatch.context() as m:
        m.setattr(scan_module, "frobenius_decomposition", not_a_bound)
        with pytest.raises(NotNormal):
            scan_group(parse_spec("S:3"), theorems=(), intro=False)
    monkeypatch.setitem(scan_module.VERIFIERS, "hall", not_a_bound)
    with pytest.raises(NotNormal):
        scan_group(parse_spec("S:3"), theorems=("hall",), intro=False)


def test_a_bad_scan_request_is_refused_before_any_work(monkeypatch):
    # an unknown mode was once scanned as h-normal, and an unknown theorem
    # raised KeyError on a group with pairs and passed on one without
    def no_build(spec):
        raise AssertionError(f"built {spec}")

    monkeypatch.setattr(scan_module, "build", no_build)
    for spec in (parse_spec("S:4"), parse_spec("C:4")):
        with pytest.raises(InvalidParameter, match="bogus"):
            scan_group(spec, theorems=("comp22",), modes=("bogus",))
        with pytest.raises(UnknownTheorem, match="bogus"):
            scan_group(spec, theorems=("bogus",))
        with pytest.raises(InvalidParameter, match="bogus"):
            scan([spec], modes=(MODES[0], "bogus"))
        with pytest.raises(UnknownTheorem, match="bogus"):
            scan([spec], theorems=("hall", "bogus"), jobs=2)


def test_hit_modes_are_constant_on_subgroup_classes():
    # the scan tests each class of subgroups once, on its representative,
    # and carries that context, passing results included, to every member of
    # a hit class; check the class's modes, results and the scan's counts
    # against a context for every pair
    for spec in default_sweep(2500):
        G, _ = build(spec)
        if G.order() > get_limits().subgroup_bound:
            continue
        pairs = hits = 0
        for cls in subgroup_classes(G):
            rep = cls.representative
            normal = rep.order() == G.order() or is_normal(G, rep)
            assert normal == (len(cls.members) == 1), spec
            if normal:
                continue
            rep_ctx = maximal_normalizer_context(G, rep)
            class_modes = [m for m in MODES if rep_ctx.result(m).passed]
            for H in cls.members:
                ctx = maximal_normalizer_context(G, H)
                assert [m for m in MODES if ctx.result(m).passed] == class_modes, spec
                for m in class_modes:
                    assert ctx.result(m) == rep_ctx.result(m), (spec, m)
                pairs += 1
                hits += bool(class_modes)
        _, stats = scan_group(spec, theorems=(), intro=False)
        assert (stats["pairs"], stats["hits"]) == (pairs, hits), spec


def test_scan_group_evaluates_each_class_once_per_mode(monkeypatch):
    # PSL2:7 has 50 hit pairs in fewer classes: later members of a hit class
    # share its results instead of evaluating candidates again
    spec = parse_spec("PSL2:7")
    G, _ = build(spec)
    tested = [
        cls.representative.carrier.element_tuples()
        for cls in subgroup_classes(G)
        if cls.representative.order() < G.order() and not is_normal(G, cls.representative)
    ]
    expected, expected_stats = scan_group(spec, intro=False)

    evaluated = []
    evaluate = MaxNormContext._evaluate

    def counting(self, mode):
        evaluated.append((self.H.carrier.element_tuples(), mode))
        return evaluate(self, mode)

    monkeypatch.setattr(MaxNormContext, "_evaluate", counting)
    got, stats = scan_group(spec, intro=False)
    assert len(evaluated) == len(tested) * len(MODES)
    assert set(evaluated) == {(key, m) for key in tested for m in MODES}
    assert stats == expected_stats and expected_stats["hits"] > len(tested)
    assert _scrub(got) == _scrub(expected)


def test_scan_group_builds_one_context_per_tested_class(monkeypatch):
    # PSL2:7 once built a context for the first member of each class and for
    # every later member of a hit class: 59 in all. The test runs once per
    # class, and each verifier once per hit class and mode, on the
    # representative's context
    spec = parse_spec("PSL2:7")
    G, _ = build(spec)
    tested = [
        cls
        for cls in subgroup_classes(G)
        if cls.representative.order() < G.order() and not is_normal(G, cls.representative)
    ]
    hit_runs = {
        (cls.representative.carrier.element_tuples(), m)
        for cls in tested
        for m in MODES
        if maximal_normalizer_context(G, cls.representative).result(m).passed
    }
    expected = per_pair_scan_reports(G, str(spec), enumerate_subgroups(G))

    built = []

    def counting(G, H):
        built.append(H)
        return maximal_normalizer_context(G, H)

    runs = {thm: [] for thm in VERIFIERS}

    def counting_verifier(thm, verify):
        def run(G, H, mode, context=None):
            runs[thm].append((H.carrier.element_tuples(), mode))
            return verify(G, H, mode, context)

        return run

    monkeypatch.setattr(scan_module, "maximal_normalizer_context", counting)
    for thm, verify in VERIFIERS.items():
        monkeypatch.setitem(scan_module.VERIFIERS, thm, counting_verifier(thm, verify))
    got, stats = scan_group(spec, intro=False)
    assert len(built) == len(tested) < 59
    assert {H.carrier.element_tuples() for H in built} == {
        cls.representative.carrier.element_tuples() for cls in tested
    }
    for thm in VERIFIERS:
        assert len(runs[thm]) == len(hit_runs) and set(runs[thm]) == hit_runs, thm
    assert stats["hits"] == 50 > len({key for key, _ in hit_runs})
    assert _scrub([r for r in got if r.theorem in VERIFIERS]) == _scrub(
        sorted(expected, key=VerdictReport.sort_key)
    )


def test_a_bound_on_the_class_context_is_reported_per_member(monkeypatch):
    spec = parse_spec("S:4")

    def too_large(G, H):
        raise OrderTooLarge("stand-in bound")

    with monkeypatch.context() as m:
        m.setattr(scan_module, "maximal_normalizer_context", too_large)
        reports, stats = scan_group(spec, intro=False)
    skipped = [r for r in reports if r.theorem == "maximal-normalizer"]
    assert len(skipped) == stats["pairs"] == 26 and stats["hits"] == 0
    assert len({r.subject["subgroup"] for r in skipped}) == 26
    assert all(r.status == "skipped-too-large" for r in skipped)

    # a bound met by one hit class's test: each member of that class gets a
    # skip report carrying the class's message, the other classes' reports
    # are those of an unbounded scan
    G, _ = build(spec)
    bounded = next(
        cls
        for cls in subgroup_classes(G)
        if len(cls.members) > 1
        and cls.representative.order() < G.order()
        and any(maximal_normalizer_context(G, cls.representative).result(m).passed for m in MODES)
    )
    prints = {fingerprint(H) for H in bounded.members}

    def bound_one_class(G, H):
        if H.carrier.element_tuples() == bounded.representative.carrier.element_tuples():
            raise OrderTooLarge("stand-in bound for one class")
        return maximal_normalizer_context(G, H)

    expected, expected_stats = scan_group(spec, intro=False)
    monkeypatch.setattr(scan_module, "maximal_normalizer_context", bound_one_class)
    got, stats = scan_group(spec, intro=False)
    skipped = [r for r in got if r.theorem == "maximal-normalizer"]
    assert sorted(r.subject["subgroup"] for r in skipped) == sorted(prints)
    assert all(r.metadata["reason"] == "stand-in bound for one class" for r in skipped)
    assert stats == {**expected_stats, "hits": expected_stats["hits"] - len(prints)}
    assert _scrub([r for r in got if r not in skipped]) == _scrub(
        [r for r in expected if r.subject.get("subgroup") not in prints]
    )


def test_intro_suite_matches_the_per_subgroup_loops():
    for spec in default_sweep(2500):
        G, _ = build(spec)
        if G.order() > INTRO_BOUND:
            continue
        subs = enumerate_subgroups(G)
        got = {r.theorem: r.conclusion_checks for r in intro_suite(G, str(spec))}
        for theorem, checks in intro_checks_per_subgroup(G, subs).items():
            assert got[theorem] == checks, (spec, theorem)


def test_scan_reports_match_per_pair_runs():
    # every hit member of every sweep group within the lattice bound gets
    # the reports that the verifiers give on its own pair, apart from
    # elapsed_s; in S:5, A:5 and PSL2:q the classes are large
    members = 0
    for spec in default_sweep(2500):
        G, _ = build(spec)
        if G.order() > get_limits().subgroup_bound:
            continue
        reports, _ = scan_group(spec, intro=False)
        expected = per_pair_scan_reports(G, str(spec), enumerate_subgroups(G))
        assert _scrub([r for r in reports if r.theorem in VERIFIERS]) == _scrub(
            sorted(expected, key=VerdictReport.sort_key)
        ), spec
        members += len({r.subject["subgroup"] for r in expected})
    assert members > 400


def test_scan_reports_match_per_pair_runs_on_a_non_abelian_fitting():
    # 7^{1+2}:3 hits in 10 of its classes, with non-trivial cores of orders
    # 7 and 49 among them; two members of each against their own pairs
    spec = parse_spec(f"FILE:{Path(__file__).parent / 'data' / 'frobenius_7_1_2_3.grp'}")
    G, _ = build(spec)
    reports, _ = scan_group(spec, intro=False)
    sample, cores = [], set()
    for cls in subgroup_classes(G):
        rep = cls.representative
        if rep.order() == G.order() or is_normal(G, rep):
            continue
        ctx = maximal_normalizer_context(G, rep)
        if any(ctx.result(m).passed for m in MODES):
            cores.add(ctx.core.order())
            sample.extend(cls.members[:2])
    assert len(sample) == 20 and cores == {1, 7, 49}
    prints = {fingerprint(H) for H in sample}
    got = [r for r in reports if r.theorem in VERIFIERS and r.subject["subgroup"] in prints]
    expected = per_pair_scan_reports(G, str(spec), sample)
    assert len(got) == len(expected) > 0
    assert _scrub(got) == _scrub(sorted(expected, key=VerdictReport.sort_key))


def test_a_witness_of_the_representative_is_found_again_per_member(monkeypatch):
    # a report that names a subgroup of the representative is not copied:
    # a counterexample's witness (comp22) or a strict-normalizer subgroup
    # (rem23) in the fit-normal mode sends that verifier, in that mode only,
    # to each other member's own pair, with no context from the class
    spec = parse_spec("PSL2:7")
    G, _ = build(spec)
    class_of = {S.carrier.element_tuples(): cls for cls in subgroup_classes(G) for S in cls.members}
    for theorem in ("comp22", "rem23"):
        runs = []

        def wrapped(thm, verify):
            def run(G, H, mode, context=None):
                runs.append((thm, H.carrier.element_tuples(), mode, context is None))
                report = verify(G, H, mode, context)
                if thm == theorem == "comp22" and mode == MODES[0]:
                    report.conclusion_checks.append(Check("stand-in", False, fingerprint(H)))
                    report.status = STATUS_COUNTEREXAMPLE
                elif thm == theorem and mode == MODES[0]:
                    report.metadata["strict_normalizer_witness"] = {"subgroup": fingerprint(H)}
                return report

            return run

        with monkeypatch.context() as m:
            for thm, verify in VERIFIERS.items():
                m.setitem(scan_module.VERIFIERS, thm, wrapped(thm, verify))
            reports, _ = scan_group(spec, intro=False)
        named = [r for r in reports if r.theorem == theorem and r.mode == MODES[0]]
        for r in named:
            if theorem == "comp22":
                assert r.conclusion_checks[-1].witness == r.subject["subgroup"]
            else:
                assert r.metadata["strict_normalizer_witness"]["subgroup"] == r.subject["subgroup"]
        # every (theorem, hit class, mode) runs once on the representative
        # with the class context; each other member of a class hit in the
        # fit-normal mode runs the named theorem once more, in that mode, on
        # its own pair
        with_context = [(thm, key, mode) for thm, key, mode, no_context in runs if not no_context]
        assert len(with_context) == len(set(with_context)), theorem
        assert all(
            class_of[key].representative.carrier.element_tuples() == key for _, key, _ in with_context
        ), theorem
        named_classes = [
            class_of[key] for thm, key, mode in with_context if (thm, mode) == (theorem, MODES[0])
        ]
        fresh = [(thm, key, mode) for thm, key, mode, no_context in runs if no_context]
        assert len(fresh) == len(set(fresh)) and set(fresh) == {
            (theorem, S.carrier.element_tuples(), MODES[0])
            for cls in named_classes
            for S in cls.members[1:]
        }, theorem
        assert len(named) == sum(len(cls.members) for cls in named_classes) > len(named_classes)


def test_copies_of_a_class_report_share_no_mutable_part(monkeypatch):
    # the members of a hit class get copies of the representative's reports;
    # changing one member's report, down to a list inside its metadata (here
    # a stand-in entry), leaves its classmates' reports alone
    spec = parse_spec("PSL2:7")
    G, _ = build(spec)
    class_of = {fingerprint(S): i for i, cls in enumerate(subgroup_classes(G)) for S in cls.members}
    verify = VERIFIERS["hall"]

    def with_nested_metadata(*args):
        report = verify(*args)
        report.metadata["stand-in"] = {"values": [1]}
        return report

    monkeypatch.setitem(scan_module.VERIFIERS, "hall", with_nested_metadata)
    reports, _ = scan_group(spec, intro=False)
    classmates: dict[tuple, list[VerdictReport]] = {}
    for r in reports:
        if r.theorem in VERIFIERS:
            classmates.setdefault((class_of[r.subject["subgroup"]], r.theorem, r.mode), []).append(r)
    shared = [rs for rs in classmates.values() if len(rs) > 1]
    assert shared and any("stand-in" in rs[0].metadata for rs in shared)
    for first, *others in shared:
        before = deepcopy([r.to_dict() for r in others])
        first.subject["subgroup"] = "changed"
        for checks in (first.hypothesis_checks, first.conclusion_checks):
            for c in checks:
                c.witness += " changed"
            checks.append(Check("changed", False))
        if "stand-in" in first.metadata:
            first.metadata["stand-in"]["values"].append("changed")
        first.metadata["changed"] = True
        assert [r.to_dict() for r in others] == before


def test_a_hit_class_without_verifiers_still_counts_its_hits():
    # with no verifier requested a hit class has no reports, and its members
    # still count as hits
    for name in ("S:4", "PSL2:7"):
        reports, stats = scan_group(parse_spec(name), theorems=(), intro=False)
        _, expected = scan_group(parse_spec(name), intro=False)
        assert stats == expected and stats["hits"] > 0, name
        assert not any(r.mode for r in reports), name
