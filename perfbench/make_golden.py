"""Record golden results for every op any workload can draw.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/make_golden.py

It runs the whole verify pool (about 90 s), the analyze pool, every sweep
group and the merged sweep, and rewrites perfbench/golden.json.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import golden  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def record(entries: dict, key: str, outcome) -> None:
    if outcome.error:
        raise SystemExit(f"{key} raised {outcome.error}")
    completed = outcome.exit in golden.COMPLETED_EXITS and outcome.doc is not None
    entries[key] = {
        "exit": outcome.exit,
        "digest": golden.digest(outcome.doc) if completed else None,
        "stderr": "" if completed else outcome.stderr,
    }


def main() -> int:
    nl = run.import_normlab(Path.cwd())
    entries: dict = {}
    started = time.perf_counter()

    cli = wl.OpRunner("verify", nl, time.perf_counter)
    for t, g, s, m in wl.verify_pool(nl):
        key = wl.verify_key(t, g, s, m)
        record(entries, key, cli.run(wl.Op(key, wl.verify_argv(t, g, s, m)))[1])
    for g in wl.ANALYZE_GROUPS:
        op = wl.analyze_op(g)
        record(entries, op.key, cli.run(op)[1])

    sweep = wl.OpRunner("sweep", nl, time.perf_counter)
    outcomes = []
    for spec in nl.catalog.default_sweep(wl.SWEEP_MAX_ORDER):
        key = f"sweep:{spec}"
        outcome = sweep.run(wl.Op(key, (str(spec),)))[1]
        record(entries, key, outcome)
        outcomes.append(outcome)
    merged = golden.digest(sweep.merged_sweep_document(outcomes))
    reports, summary = nl.scan.scan(nl.catalog.default_sweep(wl.SWEEP_MAX_ORDER),
                                    max_order=wl.SWEEP_MAX_ORDER)
    direct = golden.digest(nl.cli.report_document([], reports, summary, 0.0))
    if merged != direct:
        raise SystemExit("per-group sweep results do not merge into the scan() document")
    entries["sweep:merged"] = {"exit": 0, "digest": merged, "stderr": ""}

    with open(golden.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(entries.items())), fh, indent=1)
        fh.write("\n")
    print(f"{len(entries)} golden entries in {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
