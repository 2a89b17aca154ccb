"""Catalog scanner: hunt for maximal-normalizer pairs, run the requested
verifiers on every hit, exercise Frobenius decompositions, and run the
classical p-nilpotence / factorization property suite on small groups.

Scan items are independent; with jobs > 1 they run in forked worker
processes, which inherit the caller's limits, and the merged output is
sorted, so reports do not depend on the worker count.
"""

from __future__ import annotations

import multiprocessing
from copy import deepcopy
from dataclasses import replace

from .arith import is_prime, p_part, primes_dividing
from .catalog import GroupSpec, build
from .errors import InvalidParameter, OrderTooLarge, UnknownTheorem
from .group import Group
from .perm import compose_tuples
from .structure import (
    fitting_length,
    is_nilpotent,
    is_p_nilpotent,
    is_solvable,
    nilpotency_class,
    sylow_subgroup,
    thompson_subgroup,
)
from .subgroups import (
    Subgroup,
    center,
    centralizer,
    enumerate_subgroups,
    fingerprint,
    normalizer,
    subgroup_classes,
)
from .theorems import (
    MODES,
    MaxNormContext,
    check_mode,
    frobenius_decomposition,
    maximal_normalizer_context,
    verify_burnside_complement,
    verify_comp22,
    verify_hall_lemma,
    verify_rem23,
    verify_simp,
    verify_thompson,
)
from .verdict import (
    ALL_STATUSES,
    STATUS_COUNTEREXAMPLE,
    STATUS_SKIPPED,
    Check,
    VerdictReport,
    status_counts,
)

__all__ = ["scan", "scan_group", "intro_suite", "skip_report", "THEOREM_NAMES"]

VERIFIERS = {
    "comp22": verify_comp22,
    "hall": verify_hall_lemma,
    "rem23": verify_rem23,
    "simp": verify_simp,
}
THEOREM_NAMES = tuple(VERIFIERS)
INTRO_BOUND = 200  # max group order for the intro property suite


def skip_report(theorem: str, subject: dict, reason: str, mode: str | None = None) -> VerdictReport:
    """A skipped-too-large record whose metadata carries the reason."""
    return VerdictReport(
        theorem,
        subject,
        status=STATUS_SKIPPED,
        mode=mode,
        metadata={"reason": reason},
    )


def scan_group(
    spec: GroupSpec,
    theorems: tuple[str, ...] = THEOREM_NAMES,
    modes: tuple[str, ...] = MODES,
    intro: bool = True,
) -> tuple[list[VerdictReport], dict]:
    """Scan one catalog group; returns its reports plus counters.

    A pair is a non-normal proper subgroup H: a member of a class with more
    than one member (a normal subgroup, G among them, is a class on its
    own). Conjugating H in G carries its core, quotient, H/C, candidates and
    their normalizers to those of H^g, and no verdict reads more than
    orders, G and what the class shares. So each class is handled in one
    pass of the class loop: its members count as pairs, the test and each
    verifier run once on its representative, and each member of a hit class
    gets copies of the representative's reports. A report naming an element
    or subgroup of the representative (a counterexample, a rem23
    strict-normalizer witness) is made again on each other member's own
    pair. A bound depends only on orders and indices: a class whose test
    meets one gives each member a skip report with the bound's message.
    """
    _check_request(theorems, modes)
    G, _ = build(spec)
    gname = str(spec)
    stats = {"groups": 1, "pairs": 0, "hits": 0, "skipped_groups": 0}
    reports: list[VerdictReport] = []
    base_subject = {"group": gname, "group_order": G.order()}
    try:
        classes = subgroup_classes(G)
    except OrderTooLarge as exc:
        stats["skipped_groups"] = 1
        return [skip_report("scan", dict(base_subject), str(exc))], stats

    def subjects(members: tuple[Subgroup, ...]) -> list[dict]:
        return [{**base_subject, "subgroup": fingerprint(H), "subgroup_order": H.order()} for H in members]

    for rep, members in classes:
        if len(members) == 1:
            continue
        stats["pairs"] += len(members)
        try:
            ctx = maximal_normalizer_context(G, rep)
            passed = [m for m in modes if ctx.result(m).passed]
        except OrderTooLarge as exc:
            reports += [skip_report("maximal-normalizer", subject, str(exc)) for subject in subjects(members)]
            continue
        if not passed:
            continue
        stats["hits"] += len(members)
        member_subjects = subjects(members)
        for mode in passed:
            for thm in theorems:
                report = _verify(thm, G, rep, mode, ctx)
                for H, subject in zip(members, member_subjects):
                    own = H is not rep and (
                        report.status == STATUS_COUNTEREXAMPLE
                        or report.metadata.get("strict_normalizer_witness")
                    )
                    reports.append(_copy_report(_verify(thm, G, H, mode) if own else report, subject))

    # Frobenius decompositions feed the complement-structure checks
    try:
        dec = frobenius_decomposition(G)
    except OrderTooLarge:
        dec = None
    if dec is not None:
        rb = verify_burnside_complement(
            dec.complement, attestation=f"frobenius decomposition of {gname}"
        )
        rb.subject["group"] = gname
        rb.subject["group_order"] = G.order()
        reports.append(rb)
        if is_prime(dec.complement.order()):
            rt = verify_thompson(dec.kernel, dec.complement, G)
            rt.subject["group"] = gname
            reports.append(rt)

    if intro and G.order() <= INTRO_BOUND:
        reports.extend(intro_suite(G, gname))

    reports.sort(key=VerdictReport.sort_key)
    return reports, stats


def _check_request(theorems: tuple[str, ...], modes: tuple[str, ...]) -> None:
    """Refuse a theorem or mode the scan does not know, before any work."""
    for thm in theorems:
        if thm not in VERIFIERS:
            raise UnknownTheorem(f"unknown theorem {thm!r}; pick from {', '.join(THEOREM_NAMES)}")
    for mode in modes:
        check_mode(mode)


def _verify(
    thm: str, G: Group, H: Subgroup, mode: str, ctx: MaxNormContext | None = None
) -> VerdictReport:
    """One verifier's report on (G, H), or a skip report when it meets a bound."""
    try:
        return VERIFIERS[thm](G, H, mode, ctx)
    except OrderTooLarge as exc:
        return skip_report(thm, {}, str(exc), mode)


def _copy_report(report: VerdictReport, subject: dict) -> VerdictReport:
    """A class representative's report for another member: its own subject,
    and no check list, check or metadata shared with the original."""
    return replace(
        report,
        subject={**report.subject, **subject},
        hypothesis_checks=[replace(c) for c in report.hypothesis_checks],
        conclusion_checks=[replace(c) for c in report.conclusion_checks],
        metadata=deepcopy(report.metadata),
    )


# -- intro property suite ----------------------------------------------------------


def intro_suite(G: Group, gname: str) -> list[VerdictReport]:
    """Classical criteria checked per group: central-Sylow p-nilpotence,
    the Thompson J(P)/Z(P) criterion, the normalizer/centralizer p-group
    criterion, solvability of nilpotent-by-nilpotent factorizations, and the
    Fitting-length bound by the sum of the factors' nilpotency classes.

    |N(Q)/C(Q)| and nilpotency do not change under conjugation, so they are
    computed once per conjugacy class of subgroups, on its representative,
    and read per member in lattice order through the map from each lattice
    subgroup to its class representative.
    """
    subs = enumerate_subgroups(G)
    classes = subgroup_classes(G)
    rep_of = {S: cls.representative for cls in classes for S in cls.members}
    out: list[VerdictReport] = []
    subject = {"group": gname, "group_order": G.order()}

    def add(theorem: str, checks: list[Check]) -> None:
        out.append(VerdictReport(theorem, dict(subject), [], checks).finalize())

    primes = primes_dividing(G.order())

    # central Sylow subgroups force p-nilpotence
    checks = []
    for p in primes:
        P = sylow_subgroup(G, p)
        N = normalizer(G, P)
        central = all(
            compose_tuples(pg, ng) == compose_tuples(ng, pg)
            for pg in P.carrier.generator_tuples
            for ng in N.carrier.generator_tuples
        )
        if not central:
            checks.append(Check(f"p={p}", True, "Sylow not central in its normalizer"))
        else:
            ok = is_p_nilpotent(G, p)
            checks.append(
                Check(f"p={p}", ok, "" if ok else "central Sylow without a normal complement")
            )
    add("intro-burnside", checks)

    # Thompson's normal p-complement criterion (odd primes)
    checks = []
    for p in primes:
        if p == 2:
            continue
        P = sylow_subgroup(G, p)
        J = thompson_subgroup(P.carrier)
        NJ = normalizer(G, Subgroup(G, J.carrier))
        CZ = centralizer(G, Subgroup(G, center(P.carrier).carrier))
        if is_p_nilpotent(NJ.carrier, p) and is_p_nilpotent(CZ.carrier, p):
            ok = is_p_nilpotent(G, p)
            checks.append(
                Check(f"p={p}", ok, "" if ok else "local complements without a global one")
            )
        else:
            checks.append(Check(f"p={p}", True, "antecedent not satisfied"))
    add("intro-thompson64", checks)

    # p-nilpotent iff N(Q)/C(Q) is a p-group for every non-trivial p-subgroup Q
    ratios: dict[Subgroup, int] = {}  # class representative -> |N(Q)/C(Q)|
    checks = []
    for p in primes:
        lhs = is_p_nilpotent(G, p)
        rhs = True
        witness = ""
        for Q in subs:
            q_order = Q.order()
            if q_order == 1 or q_order != p_part(q_order, p):
                continue
            R = rep_of[Q]
            if R not in ratios:
                ratios[R] = normalizer(G, R).order() // centralizer(G, R).order()
            ratio = ratios[R]
            if ratio != p_part(ratio, p):
                rhs = False
                witness = f"|N/C| = {ratio} for {fingerprint(Q)}"
                break
        checks.append(
            Check(
                f"p={p}",
                lhs == rhs,
                witness or f"{p}-nilpotent={lhs}, criterion={rhs}",
            )
        )
    add("intro-frobenius", checks)

    # nilpotent-by-nilpotent factorizations: solvability and Fitting length
    nilpotent = {R: is_nilpotent(R.carrier) for R, _ in classes}
    nilpotent_flags = [nilpotent[rep_of[S]] for S in subs]
    elem_sets = [S.carrier.element_tuples() for S in subs]
    n = G.order()
    factorizations: list[tuple[int, int]] = []
    for i in range(len(subs)):
        if not nilpotent_flags[i]:
            continue
        a = subs[i].order()
        for j in range(i, len(subs)):
            if not nilpotent_flags[j]:
                continue
            # |A||B| = |G||A n B| needs |G| to divide |A||B|
            ab = a * subs[j].order()
            if ab % n == 0 and ab == n * len(elem_sets[i] & elem_sets[j]):
                factorizations.append((i, j))
    kw_ok = True
    kw_witness = ""
    if factorizations and not is_solvable(G):
        kw_ok = False
        i, j = factorizations[0]
        kw_witness = f"{fingerprint(subs[i])} * {fingerprint(subs[j])} = G, G non-solvable"
    add("intro-kegel-wielandt", [
        Check("factorizations-solvable", kw_ok, kw_witness or f"{len(factorizations)} factorization(s)")
    ])

    gross_ok = True
    gross_witness = ""
    if kw_ok and factorizations:
        fl = fitting_length(G)
        for i, j in factorizations:
            bound = nilpotency_class(subs[i].carrier) + nilpotency_class(subs[j].carrier)
            if fl > bound:
                gross_ok = False
                gross_witness = (
                    f"Fitting length {fl} > {bound} for "
                    f"{fingerprint(subs[i])} * {fingerprint(subs[j])}"
                )
                break
    add("intro-gross", [
        Check("fitting-length-bounded", gross_ok, gross_witness or f"{len(factorizations)} factorization(s)")
    ])
    return out


# -- the scan driver ---------------------------------------------------------------


def _scan_worker(args) -> tuple[list[VerdictReport], dict]:
    """A pool task. perfbench's tracer wraps it by name to collect a forked
    worker's spans, so the serial path calls scan_group directly."""
    return scan_group(*args)


def summarize(reports: list[VerdictReport], stats: dict) -> dict:
    by_theorem: dict[str, list[VerdictReport]] = {}
    for r in reports:
        by_theorem.setdefault(r.theorem, []).append(r)
    return {
        "status_counts": status_counts(reports, ALL_STATUSES),
        "per_theorem": {t: status_counts(rs) for t, rs in by_theorem.items()},
        "groups_scanned": stats.get("groups", 0),
        "groups_skipped": stats.get("skipped_groups", 0),
        "pairs_scanned": stats.get("pairs", 0),
        "maximal_normalizer_hits": stats.get("hits", 0),
    }


def scan(
    specs: list[GroupSpec],
    max_order: int | None = None,
    theorems: tuple[str, ...] = THEOREM_NAMES,
    modes: tuple[str, ...] = MODES,
    intro: bool = True,
    jobs: int = 1,
) -> tuple[list[VerdictReport], dict]:
    """Run the scan over the given specs; returns (reports, summary).

    Groups are handed out one at a time, largest order first, so the
    slowest group starts at once and no worker queues others behind it. A
    group above max_order is not scanned; it gets one scan skip report.
    """
    if jobs < 1:
        raise InvalidParameter(f"jobs must be >= 1, got {jobs}")
    _check_request(theorems, modes)
    sized: list[tuple[int, GroupSpec]] = []
    results: list[tuple[list[VerdictReport], dict]] = []
    for spec in specs:
        order = build(spec)[0].order()
        if max_order is None or order <= max_order:
            sized.append((order, spec))
        else:
            subject = {"group": str(spec), "group_order": order}
            reason = f"group order {order} exceeds max order {max_order}"
            results.append(([skip_report("scan", subject, reason)], {"groups": 1, "skipped_groups": 1}))
    sized.sort(key=lambda item: -item[0])
    tasks = [(spec, theorems, modes, intro) for _, spec in sized]

    if jobs == 1 or len(tasks) <= 1:
        results += [scan_group(*task) for task in tasks]
    else:
        with multiprocessing.get_context("fork").Pool(min(jobs, len(tasks))) as pool:
            results += pool.map(_scan_worker, tasks, chunksize=1)

    all_reports: list[VerdictReport] = []
    totals = {"groups": 0, "pairs": 0, "hits": 0, "skipped_groups": 0}
    for reports, stats in results:
        all_reports.extend(reports)
        for k in totals:
            totals[k] += stats.get(k, 0)
    all_reports.sort(key=VerdictReport.sort_key)
    return all_reports, summarize(all_reports, totals)
