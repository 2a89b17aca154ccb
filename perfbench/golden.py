"""Golden results recorded at the seed commit, and the check of one op.

An op's document is compared by digest after removing every ``elapsed_s``
field and the top-level ``invocation``. Ops that did not complete at the
seed (exit 2) have no strict golden: they count as completed once they exit
0, 3 or 4 with a schema-valid document, and as a known defect while they
still fail exactly as recorded.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

STATUSES = ("confirmed", "hypotheses-not-met", "counterexample", "skipped-too-large")
REPORT_KEYS = ("theorem", "subject", "hypothesis_checks", "conclusion_checks",
               "status", "mode", "metadata", "elapsed_s")
DOC_KEYS = ("tool", "version", "invocation", "reports", "summary", "elapsed_s")
COMPLETED_EXITS = (0, 3, 4)

# verdicts of one op
OK = "ok"                  # completed and matches the seed (or fixed a seed failure)
KNOWN_DEFECT = "known"     # fails exactly as it did at the seed
MISMATCH = "mismatch"      # output differs from the seed
ERROR = "error"            # raised, or an exit the seed did not give


def load() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _strip(value, top: bool = True):
    if isinstance(value, dict):
        return {
            k: _strip(v, False)
            for k, v in value.items()
            if k != "elapsed_s" and not (top and k == "invocation")
        }
    if isinstance(value, list):
        return [_strip(v, False) for v in value]
    return value


def digest(doc: dict) -> str:
    canonical = json.dumps(_strip(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def schema_errors(doc) -> list[str]:
    """Departures from docs/SCHEMA.md, checked without normlab's own code."""
    if not isinstance(doc, dict):
        return ["document is not an object"]
    errs = [f"missing field {k}" for k in DOC_KEYS if k not in doc]
    if errs:
        return errs
    if doc["tool"] != "normlab":
        errs.append("tool is not normlab")
    tally: dict[str, int] = {}
    for r in doc["reports"]:
        missing = [k for k in REPORT_KEYS if k not in r]
        if missing:
            errs.append(f"report misses {missing}")
            continue
        if r["status"] not in STATUSES:
            errs.append(f"unknown status {r['status']!r}")
        for c in r["hypothesis_checks"] + r["conclusion_checks"]:
            if set(c) != {"name", "passed", "witness"}:
                errs.append(f"malformed check {c!r}")
        tally[r["status"]] = tally.get(r["status"], 0) + 1
    counts = doc["summary"].get("status_counts")
    if counts is None or {k: v for k, v in counts.items() if v} != tally:
        errs.append("summary.status_counts differs from the report tally")
    return errs


def is_skipped(outcome) -> bool:
    """Exit 4, or a document whose every report is skipped-too-large (the
    CLI's exit-4 rule, applied to library ops)."""
    if outcome.exit == 4:
        return True
    reports = (outcome.doc or {}).get("reports", [])
    return bool(reports) and all(r.get("status") == STATUSES[3] for r in reports)


def classify(golden: dict, key: str, outcome) -> tuple[str, str]:
    """(verdict, reason) of one op against its golden entry."""
    entry = golden.get(key)
    if entry is None:
        return ERROR, f"no golden entry for {key}"
    if outcome.error:
        return ERROR, outcome.error
    if entry["digest"] is None:
        # no strict golden: the op failed at the seed
        if outcome.exit in COMPLETED_EXITS and outcome.doc is not None:
            errs = schema_errors(outcome.doc)
            return (OK, "") if not errs else (MISMATCH, "; ".join(errs))
        if outcome.exit == entry["exit"] and outcome.stderr == entry["stderr"]:
            return KNOWN_DEFECT, outcome.stderr
        return ERROR, f"exit {outcome.exit}: {outcome.stderr}"
    if outcome.exit != entry["exit"]:
        return ERROR, f"exit {outcome.exit}, seed gave {entry['exit']}: {outcome.stderr}"
    if outcome.doc is None:
        return ERROR, "no document"
    errs = schema_errors(outcome.doc)
    if errs:
        return MISMATCH, "; ".join(errs)
    if digest(outcome.doc) != entry["digest"]:
        return MISMATCH, "document differs from the seed's"
    return OK, ""
