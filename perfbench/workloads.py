"""The four workloads: seeded op lists and the code that runs one op.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned. An op calls one of normlab's public entry
points in-process, with stdout and stderr captured, and yields an
``Outcome`` that ``golden.classify`` checks against the seed results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass

SWEEP_MAX_ORDER = 2500

THEOREMS = ("comp22", "hall", "rem23", "simp")
MODES = ("def21=fit-normal", "def21=h-normal")
VERIFY_GROUPS = (
    "PSL2:17", "PSL2:19", "PSL2:23", "PSL2:29", "PSL2:31",
    "S:7", "A:7", "AGL1:31", "AGL1:61", "S:10",
)
# About 6 s per op whatever the theorem: 2% of the pool's ops but 62% of its
# time. Left out of the sample so that a pass is about 16 s, not 22 s.
HEAVY_CELL = ("S:10", "stab:1")
# The paper's worked pairs and the ROADMAP repro, run on every pass.
ANCHORS = (
    ("comp22", "S:4", "stab:4", MODES[0]),
    ("comp22", "PSL2:17", "syl:2", MODES[0]),
    ("rem23", "PSL2:17", "syl:2", MODES[0]),
    ("hall", "AGL1:5", "stab:1", MODES[0]),
    ("hall", "AGL1:7", "stab:1", MODES[0]),
    ("hall", "AGL1:11", "stab:1", MODES[0]),
    ("hall", "AGL1:13", "stab:1", MODES[0]),
    ("rem23", "S:10", "syl:2", MODES[0]),
)
ANALYZE_GROUPS = (
    "S:7", "S:8", "A:8", "S:9",
    "PSL2:19", "PSL2:23", "PSL2:29", "PSL2:31", "PSL2:37", "PSL2:43",
    "AGL1:61", "AGL1:101",
    "PROD(A:5,A:5)", "PROD(S:5,S:4)", "PROD(PSL2:7,S:4)", "S:10",
)


@dataclass(frozen=True)
class Op:
    key: str          # golden key, also the op's name in traces
    args: tuple       # spec strings (sweep, sweep-par) or CLI argv


@dataclass
class Outcome:
    exit: int | None          # CLI exit code; 0 for library calls that return
    doc: dict | None          # the report document, when one was produced
    stderr: str = ""
    error: str = ""           # repr of an exception the op raised
    raw: tuple | None = None  # (reports, stats, summary) of a library op


def verify_key(theorem: str, group: str, selector: str, mode: str) -> str:
    return f"verify:{theorem}|{group}|{selector}|{mode}"


def verify_argv(theorem: str, group: str, selector: str, mode: str) -> tuple:
    return ("verify", theorem, "--group", group, "--subgroup", selector,
            "--mode", mode, "--format", "json")


def verify_cells(nl) -> list[tuple[str, str]]:
    """(group, selector) cells of the verify pool: syl:p for every prime p
    dividing the group order, then stab:1."""
    cells = []
    for g in VERIFY_GROUPS:
        G, _ = nl.catalog.build(nl.catalog.parse_spec(g))
        for p in nl.arith.primes_dividing(G.order()):
            cells.append((g, f"syl:{p}"))
        cells.append((g, "stab:1"))
    return cells


def verify_pool(nl) -> list[tuple[str, str, str, str]]:
    """The whole pool plus the anchors, as (theorem, group, selector, mode)."""
    pool = [(t, g, s, m) for g, s in verify_cells(nl) for t in THEOREMS for m in MODES]
    return pool + [a for a in ANCHORS if a not in pool]


def _cli_op(theorem, group, selector, mode) -> Op:
    return Op(verify_key(theorem, group, selector, mode), verify_argv(theorem, group, selector, mode))


def analyze_op(group: str) -> Op:
    return Op(f"analyze:{group}", ("analyze", "--group", group, "--format", "json"))


def par_jobs() -> int:
    return min(2, len(os.sched_getaffinity(0)))


# -- op lists -----------------------------------------------------------------


def make_ops(name: str, nl, rng: random.Random) -> list[Op]:
    """The op sample of one run; each pass runs it in its own seeded order."""
    if name in ("sweep", "sweep-par"):
        specs = [str(s) for s in nl.catalog.default_sweep(SWEEP_MAX_ORDER)]
        if name == "sweep":
            return [Op(f"sweep:{s}", (s,)) for s in specs]
        return [Op("sweep:merged", tuple(specs))]
    if name == "verify":
        # stratified: one op per (group, selector, theorem) cell with the
        # mode drawn by the seed, then the anchors
        ops = [(t, g, s, rng.choice(MODES))
               for g, s in verify_cells(nl) if (g, s) != HEAVY_CELL for t in THEOREMS]
        ops += [a for a in ANCHORS if a not in ops]
        return [_cli_op(*o) for o in ops]
    if name == "analyze":
        return [analyze_op(g) for g in ANALYZE_GROUPS]
    raise ValueError(f"unknown workload {name!r}")


def pass_order(ops: list[Op], name: str, rng: random.Random) -> list[Op]:
    """One pass over the sample in a seeded order; sweep-par shuffles the
    catalog handed to scan instead."""
    if name == "sweep-par":
        specs = list(ops[0].args)
        rng.shuffle(specs)
        return [Op(ops[0].key, tuple(specs))]
    order = list(ops)
    rng.shuffle(order)
    return order


# -- running one op -----------------------------------------------------------


class OpRunner:
    """Runs ops of one workload; the clock brackets only the program call."""

    def __init__(self, name: str, nl, clock):
        self.name = name
        self.nl = nl
        self.clock = clock

    def run(self, op: Op) -> tuple[float, Outcome]:
        if self.name == "sweep":
            return self._sweep(op)
        if self.name == "sweep-par":
            return self._sweep_par(op)
        return self._cli(op)

    def _cli(self, op: Op) -> tuple[float, Outcome]:
        out, err = io.StringIO(), io.StringIO()
        error = ""
        rc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = self.clock()
            try:
                rc = self.nl.cli.main(list(op.args))
            except Exception as exc:  # an op that raises counts as failed
                error = repr(exc)
            elapsed = self.clock() - t0
        doc = None
        text = out.getvalue()
        if text.strip():
            try:
                doc = json.loads(text)
            except ValueError:
                error = error or "stdout is not a JSON document"
        return elapsed, Outcome(rc, doc, err.getvalue().strip(), error)

    def finish(self, outcome: Outcome) -> None:
        """Build a library op's report document, outside the timed region."""
        if outcome.raw is not None and outcome.doc is None:
            reports, _, summary = outcome.raw
            outcome.doc = self.nl.cli.report_document([], reports, summary, 0.0)

    def _sweep(self, op: Op) -> tuple[float, Outcome]:
        scan = self.nl.scan
        spec = self.nl.catalog.parse_spec(op.args[0])
        t0 = self.clock()
        try:
            reports, stats = scan.scan_group(spec)
            summary = scan.summarize(reports, stats)
        except Exception as exc:
            return self.clock() - t0, Outcome(None, None, error=repr(exc))
        return self.clock() - t0, Outcome(0, None, raw=(reports, stats, summary))

    def _sweep_par(self, op: Op) -> tuple[float, Outcome]:
        specs = [self.nl.catalog.parse_spec(s) for s in op.args]
        t0 = self.clock()
        try:
            reports, summary = self.nl.scan.scan(specs, max_order=SWEEP_MAX_ORDER, jobs=par_jobs())
        except Exception as exc:
            return self.clock() - t0, Outcome(None, None, error=repr(exc))
        return self.clock() - t0, Outcome(0, None, raw=(reports, None, summary))

    def merged_sweep_document(self, outcomes: list[Outcome]) -> dict:
        """The document scan() would produce from one pass of sweep ops."""
        VerdictReport = self.nl.verdict.VerdictReport
        reports = []
        totals = {"groups": 0, "pairs": 0, "hits": 0, "skipped_groups": 0}
        for o in outcomes:
            reps, stats, _ = o.raw
            reports.extend(reps)
            for k in totals:
                totals[k] += stats.get(k, 0)
        reports.sort(key=VerdictReport.sort_key)
        summary = self.nl.scan.summarize(reports, totals)
        return self.nl.cli.report_document([], reports, summary, 0.0)
