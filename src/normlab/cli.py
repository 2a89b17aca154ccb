"""Command-line interface: analyze a group, verify a named theorem on a
(group, subgroup) pair, or scan the catalog.

Exit codes: 0 success (including hypotheses-not-met), 2 usage or parse
errors, 3 when a counterexample was verified, 4 when everything relevant
was skipped as too large. An InvariantViolated is a fault in normlab, not in
its input, so it is not turned into exit 2: it ends the process with a
traceback (exit 1).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

from . import __version__
from .catalog import build, default_sweep, parse_spec, select_subgroup
from .errors import InvalidParameter, InvariantViolated, NormlabError, OrderTooLarge, UnknownTheorem
from .limits import limits_from_env, parse_enum_bound, set_limits
from .scan import THEOREM_NAMES, VERIFIERS, scan, skip_report
from .structure import (
    fitting_length,
    fitting_subgroup,
    is_nilpotent,
    is_solvable,
)
from .subgroups import (
    center,
    fingerprint,
    is_simple,
    minimal_normal_subgroups,
)
from .theorems import (
    MODE_FIT_NORMAL,
    MODES,
    check_mode,
    frobenius_decomposition,
    is_frobenius_product,
    verify_burnside_complement,
    verify_thompson,
)
from .verdict import STATUS_COUNTEREXAMPLE, STATUS_SKIPPED, VerdictReport, status_counts

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_SKIPPED = 4

VERIFY_THEOREMS = THEOREM_NAMES + ("thompson", "burnside")


def report_document(invocation: list[str], reports: list[VerdictReport], summary: dict,
                    elapsed_s: float, analysis: dict | None = None) -> dict:
    if not summary:
        summary = {"status_counts": status_counts(reports)}
    doc = {
        "tool": "normlab",
        "version": __version__,
        "invocation": list(invocation),
        "reports": [r.to_dict() for r in reports],
        "summary": summary,
        "elapsed_s": elapsed_s,
    }
    if analysis is not None:
        doc["analysis"] = analysis
    return doc


def _render_check(c) -> str:
    mark = "ok" if c.passed else "FAIL"
    witness = f" ({c.witness})" if c.witness else ""
    return f"    [{mark}] {c.name}{witness}"


def _render_report(r: VerdictReport) -> str:
    head = f"{r.subject.get('group', '?')}"
    if "subgroup" in r.subject:
        head += f" / {r.subject['subgroup']}"
    mode = f" [{r.mode}]" if r.mode else ""
    lines = [f"{r.theorem}{mode} on {head}: {r.status} ({r.elapsed_s:.3f}s)"]
    if r.hypothesis_checks:
        lines.append("  hypotheses:")
        lines.extend(_render_check(c) for c in r.hypothesis_checks)
    if r.conclusion_checks:
        lines.append("  conclusions:")
        lines.extend(_render_check(c) for c in r.conclusion_checks)
    return "\n".join(lines)


def _emit(doc: dict, fmt: str, out_path: str | None, human_text: str) -> None:
    payload = json.dumps(doc, indent=2, sort_keys=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    if fmt == "json":
        print(payload)
    else:
        print(human_text)


def _exit_code_for(reports: list[VerdictReport]) -> int:
    if any(r.status == STATUS_COUNTEREXAMPLE for r in reports):
        return EXIT_COUNTEREXAMPLE
    if reports and all(r.status == STATUS_SKIPPED for r in reports):
        return EXIT_SKIPPED
    return EXIT_OK


# -- commands -------------------------------------------------------------------


def _analysis(spec, G, H) -> dict:
    """Structural invariants of G (and H, if given) for the analyze document."""
    analysis: dict = {"group": str(spec), "order": G.order(), "degree": G.degree}
    solvable = is_solvable(G)
    analysis["solvable"] = solvable
    analysis["nilpotent"] = is_nilpotent(G)
    analysis["fitting_order"] = fitting_subgroup(G).order()
    analysis["fitting_length"] = fitting_length(G) if solvable else None
    analysis["center_order"] = center(G).order()
    try:
        analysis["minimal_normal_orders"] = [m.order() for m in minimal_normal_subgroups(G)]
        analysis["simple"] = is_simple(G)
    except OrderTooLarge:
        analysis["minimal_normal_orders"] = None
        analysis["simple"] = None
    try:
        dec = frobenius_decomposition(G)
        analysis["frobenius"] = (
            {"kernel_order": dec.kernel.order(), "complement_order": dec.complement.order()}
            if dec
            else None
        )
    except OrderTooLarge:
        analysis["frobenius"] = "skipped-too-large"
    if H is not None:
        analysis["subgroup"] = fingerprint(H)
        analysis["subgroup_order"] = H.order()
    return analysis


def cmd_analyze(args, argv: list[str]) -> int:
    started = time.perf_counter()
    spec = parse_spec(args.group)
    G, H = build(spec)
    try:
        # selecting can hit a bound too (a Sylow search enumerates G)
        if args.subgroup:
            H = select_subgroup(G, args.subgroup)
        analysis = _analysis(spec, G, H)
    except OrderTooLarge as exc:
        subject = {"group": str(spec), "group_order": G.order()}
        reports = [skip_report("analyze", subject, str(exc))]
        analysis, human = None, _render_report(reports[0])
    else:
        reports = []
        human = "\n".join([f"analyze {analysis['group']}:"] + [
            f"  {key}: {value}" for key, value in analysis.items() if key != "group"
        ])
    elapsed = time.perf_counter() - started
    doc = report_document(argv, reports, {}, elapsed, analysis=analysis)
    _emit(doc, args.format, args.out, human)
    return _exit_code_for(reports)


def _parse_mode(raw: str) -> str:
    """A --mode value without its def21= prefix; the library checks the rest."""
    return raw.removeprefix("def21=")


def cmd_verify(args, argv: list[str]) -> int:
    started = time.perf_counter()
    theorem = args.theorem
    if theorem not in VERIFY_THEOREMS:
        raise UnknownTheorem(f"unknown theorem {theorem!r}; pick from {', '.join(VERIFY_THEOREMS)}")
    mode = None
    if theorem in VERIFIERS:
        mode = _parse_mode(args.mode) if args.mode else MODE_FIT_NORMAL
        # before the pair is built: a subgroup selector can meet a bound
        check_mode(mode)
    elif args.mode:
        raise InvalidParameter(f"--mode applies to {', '.join(THEOREM_NAMES)} only, not {theorem}")
    spec = parse_spec(args.group)
    G, H = build(spec)
    if H is None and not args.subgroup:
        raise NormlabError("this theorem needs --subgroup")

    try:
        # selecting can hit a bound too (a Sylow search enumerates G)
        if args.subgroup:
            H = select_subgroup(G, args.subgroup)
        if theorem in VERIFIERS:
            report = VERIFIERS[theorem](G, H, mode)
        elif theorem == "thompson":
            # the acted-on group is the Fitting subgroup; the actor is the
            # selected subgroup
            K = fitting_subgroup(G)
            report = verify_thompson(K, H, G)
        else:  # burnside
            K = fitting_subgroup(G)
            frob = is_frobenius_product(G, K, H)
            attestation = (
                f"verified complement of kernel of order {K.order()}"
                if frob.passed
                else f"frobenius check: {frob.reason}"
            )
            report = verify_burnside_complement(H, attestation, attested=frob.passed)
    except OrderTooLarge as exc:
        subject = {"group": str(spec), "group_order": G.order()}
        report = skip_report(theorem, subject, str(exc), mode)
    report.subject.setdefault("group", str(spec))
    elapsed = time.perf_counter() - started
    doc = report_document(argv, [report], {}, elapsed)
    _emit(doc, args.format, args.out, _render_report(report))
    return _exit_code_for([report])


def cmd_scan(args, argv: list[str]) -> int:
    started = time.perf_counter()
    if args.group:
        specs = [parse_spec(g) for g in args.group]
    else:
        specs = default_sweep(args.max_order)
    theorems = tuple(t.strip() for t in args.theorems.split(",")) if args.theorems else THEOREM_NAMES
    modes = (_parse_mode(args.mode),) if args.mode else MODES
    reports, summary = scan(
        specs,
        max_order=args.max_order,
        theorems=theorems,
        modes=modes,
        intro=not args.no_intro,
        jobs=args.jobs,
    )
    elapsed = time.perf_counter() - started
    doc = report_document(argv, reports, summary, elapsed)
    out_path = args.out or "normlab-scan.json"
    lines = []
    for r in reports:
        subgroup_part = f" {r.subject['subgroup']}" if "subgroup" in r.subject else ""
        mode_part = f" [{r.mode}]" if r.mode else ""
        lines.append(f"{r.subject.get('group', '?')}{subgroup_part} {r.theorem}{mode_part}: {r.status}")
    lines.append(
        f"scan complete: {summary['groups_scanned']} group(s), "
        f"{summary['pairs_scanned']} pair(s), {summary['maximal_normalizer_hits']} hit(s); "
        f"statuses {summary['status_counts']}; report written to {out_path}"
    )
    _emit(doc, args.format, out_path, "\n".join(lines))
    return _exit_code_for(reports)


# -- argument parsing --------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normlab",
        description="Finite-group computation engine and theorem verification lab",
    )
    parser.add_argument("--version", action="version", version=f"normlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("human", "json"), default="human")
        p.add_argument("--out", help="write the JSON report document to this path")
        p.add_argument("--enum-bound", default=None,
                       help="max group order for element enumeration")

    p_an = sub.add_parser("analyze", help="structural invariants of one group")
    p_an.add_argument("--group", required=True, help="group spec, e.g. S:4 or PSL2:17")
    p_an.add_argument("--subgroup", default="", help="subgroup selector (syl:p, stab:k, gens:..)")
    common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_ver = sub.add_parser("verify", help="run one theorem verifier on a (group, subgroup) pair")
    p_ver.add_argument("theorem", help="one of " + ", ".join(VERIFY_THEOREMS))
    p_ver.add_argument("--group", required=True)
    p_ver.add_argument("--subgroup", default="", help="subgroup selector (syl:p, stab:k, gens:..)")
    p_ver.add_argument("--mode", default="", help="def21=fit-normal (default) or def21=h-normal")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="scan catalog groups for theorem verdicts")
    p_scan.add_argument("--group", action="append", default=[],
                        help="group spec; repeatable (default: the built-in sweep)")
    p_scan.add_argument("--max-order", type=int, default=2500)
    p_scan.add_argument("--theorems", default="",
                        help="comma list from: " + ", ".join(THEOREM_NAMES))
    p_scan.add_argument("--mode", default="", help="def21 mode; default runs both")
    p_scan.add_argument("--jobs", type=int, default=1)
    p_scan.add_argument("--no-intro", action="store_true",
                        help="skip the classical property suite")
    common(p_scan)
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        limits = limits_from_env()
        if args.enum_bound is not None:
            limits = replace(limits, enum_bound=parse_enum_bound(args.enum_bound, "--enum-bound"))
        set_limits(limits)
        return args.func(args, argv)
    except InvariantViolated:
        raise
    except NormlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
