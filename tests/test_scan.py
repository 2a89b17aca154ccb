from __future__ import annotations

import importlib

import pytest

from normlab.catalog import build, default_sweep, parse_spec
from normlab.errors import InvalidParameter, InvariantViolated, NotNormal, OrderTooLarge
from normlab.limits import get_limits
from normlab.scan import INTRO_BOUND, intro_suite, scan, scan_group
from normlab.subgroups import (
    class_index,
    enumerate_subgroups,
    fingerprint,
    is_normal,
    subgroup_classes,
)
from normlab.theorems import MODES, MaxNormContext, maximal_normalizer_context
from normlab.verdict import VerdictReport

from oracles import intro_checks_per_subgroup

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
    reports, summary = scan([parse_spec("S:4")], max_order=1)
    assert reports == []
    assert summary["groups_scanned"] == 0


def test_scan_deterministic_across_workers():
    specs = [parse_spec(s) for s in ("S:4", "D:6", "A:4", "AGL1:5")]
    seq, sum1 = scan(specs, jobs=1)
    par, sum2 = scan(specs, jobs=2)
    assert _scrub(seq) == _scrub(par)
    assert sum1 == sum2


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
            dispatched.append(([item[0] for item in items], chunksize))
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


def test_hit_modes_are_constant_on_subgroup_classes():
    # the scan tests each class of subgroups once, on its representative,
    # and carries that context, passing results included, to every member of
    # a hit class; check the class's modes, results and the scan's counts
    # against a context for every pair
    for spec in default_sweep(2500):
        G, _ = build(spec)
        if G.order() > get_limits().subgroup_bound:
            continue
        by_key = {S.carrier.element_tuples(): S for S in enumerate_subgroups(G)}
        pairs = hits = 0
        for cls in subgroup_classes(G):
            rep = cls.representative
            if rep.order() == G.order() or is_normal(G, rep):
                continue
            rep_ctx = maximal_normalizer_context(G, rep)
            class_modes = [m for m in MODES if rep_ctx.result(m).passed]
            for key in cls.members:
                ctx = maximal_normalizer_context(G, by_key[key])
                assert [m for m in MODES if ctx.result(m).passed] == class_modes, spec
                for m in class_modes:
                    assert ctx.result(m) == rep_ctx.result(m), (spec, m)
                pairs += 1
                hits += bool(class_modes)
        _, stats = scan_group(spec, theorems=(), intro=False)
        assert (stats["pairs"], stats["hits"]) == (pairs, hits), spec


def test_scan_group_evaluates_each_class_once_per_mode(monkeypatch):
    # PSL2:7 has 50 hit pairs in fewer classes: later members of a hit class
    # adopt its results instead of evaluating candidates again
    spec = parse_spec("PSL2:7")
    G, _ = build(spec)
    where = class_index(G)
    tested = {
        where[cls.representative.carrier.element_tuples()][0]
        for cls in subgroup_classes(G)
        if cls.representative.order() < G.order() and not is_normal(G, cls.representative)
    }
    expected, expected_stats = scan_group(spec, intro=False)

    evaluated = []
    evaluate = MaxNormContext._evaluate

    def counting(self, mode):
        evaluated.append((where[self.H.carrier.element_tuples()][0], mode))
        return evaluate(self, mode)

    monkeypatch.setattr(MaxNormContext, "_evaluate", counting)
    got, stats = scan_group(spec, intro=False)
    assert sorted(evaluated) == sorted((c, m) for c in tested for m in MODES)
    assert stats == expected_stats and expected_stats["hits"] > len(tested)
    assert _scrub(got) == _scrub(expected)


def test_scan_group_builds_one_context_per_tested_class(monkeypatch):
    # PSL2:7 once built a context for the first member of each class and for
    # every later member of a hit class: 59 in all
    spec = parse_spec("PSL2:7")
    G, _ = build(spec)
    tested = [
        cls
        for cls in subgroup_classes(G)
        if cls.representative.order() < G.order() and not is_normal(G, cls.representative)
    ]

    # the reference: every hit member gets a context of its own, built from
    # scratch, which takes the class's passes
    def fresh(self, H, g):
        ctx = maximal_normalizer_context(self.G, H)
        ctx.adopt({m: r for m, r in self._results.items() if r.passed})
        return ctx

    with monkeypatch.context() as m:
        m.setattr(MaxNormContext, "conjugated", fresh)
        expected, expected_stats = scan_group(spec, intro=False)

    built = []

    def counting(G, H):
        built.append(H)
        return maximal_normalizer_context(G, H)

    monkeypatch.setattr(scan_module, "maximal_normalizer_context", counting)
    got, stats = scan_group(spec, intro=False)
    assert len(built) == len(tested) < 59
    assert {H.carrier.element_tuples() for H in built} == {
        cls.members[0] for cls in tested
    }
    assert stats == expected_stats and _scrub(got) == _scrub(expected)


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
    by_key = {S.carrier.element_tuples(): S for S in enumerate_subgroups(G)}
    bounded = next(
        cls
        for cls in subgroup_classes(G)
        if len(cls.members) > 1
        and cls.representative.order() < G.order()
        and any(maximal_normalizer_context(G, cls.representative).result(m).passed for m in MODES)
    )
    prints = {fingerprint(by_key[key]) for key in bounded.members}

    def bound_one_class(G, H):
        if H.carrier.element_tuples() == bounded.members[0]:
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
        got = {r.theorem: r.conclusion_checks for r in intro_suite(G, str(spec), subs)}
        for theorem, checks in intro_checks_per_subgroup(G, subs).items():
            assert got[theorem] == checks, (spec, theorem)


def test_adopt_takes_only_a_pass_that_matches_the_pair():
    G, _ = build(parse_spec("S:4"))
    by_order = {}
    for S in enumerate_subgroups(G):
        if S.order() < G.order() and not is_normal(G, S):
            by_order.setdefault(S.order(), []).append(S)
    # the conjugate S:3s of S:4 hit in both modes; so do the D:4s, with
    # other orders; the non-normal Klein four-groups miss
    six, other_six = (maximal_normalizer_context(G, S) for S in by_order[6][:2])
    passes = {m: six.result(m) for m in MODES}
    other_six.adopt(passes)
    assert all(other_six.result(m) is passes[m] for m in MODES)
    with pytest.raises(InvariantViolated):
        maximal_normalizer_context(G, by_order[8][0]).adopt(passes)
    four = maximal_normalizer_context(G, by_order[4][0])
    failed = {m: four.result(m) for m in MODES}
    assert not any(r.passed for r in failed.values())
    with pytest.raises(InvariantViolated):
        maximal_normalizer_context(G, by_order[4][1]).adopt(failed)
