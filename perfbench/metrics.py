"""Metric names, units and how each is computed.

BENCHMARK.json lists the same names; the smoke test checks that they agree.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict

from tracing import self_times

# name, unit, better: the end-to-end metrics of the result line
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# printed beside them but kept out of the result line: on a shared machine
# they spread by more than the 25% a bound may be (see README.md)
LATENCY = (
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
)
# per-layer metric -> (unit, better, kind, argument)
#   calls: spans with that name   self: summed self time of those spans
#   count: a counter the tracer keeps
LAYER = {
    "perm.compose_ns": ("ns", "lower", "perm", "compose"),
    "perm.conjugate_ns": ("ns", "lower", "perm", "conjugate"),
    "perm.inverse_ns": ("ns", "lower", "perm", "inverse"),
    "chain.build_calls": ("count", "lower", "calls", "chain.build"),
    "chain.build_s": ("s", "lower", "self", "chain.build"),
    "chain.contains_calls": ("count", "lower", "calls", "chain.contains"),
    "chain.contains_s": ("s", "lower", "self", "chain.contains"),
    "chain.element_enumerations": ("count", "lower", "count", "chain.element_enumerations"),
    "chain.elements_enumerated": ("count", "lower", "count", "chain.elements_enumerated"),
    "group.class_reps_calls": ("count", "lower", "calls", "group.class_reps"),
    "group.class_reps_s": ("s", "lower", "self", "group.class_reps"),
    "closure.dimino_calls": ("count", "lower", "calls", "closure.dimino"),
    "closure.dimino_s": ("s", "lower", "self", "closure.dimino"),
    "closure.mulclose_s": ("s", "lower", "self", "closure.mulclose"),
    "subgroups.lattice_calls": ("count", "lower", "calls", "subgroups.lattice"),
    "subgroups.lattice_s": ("s", "lower", "self", "subgroups.lattice"),
    "subgroups.normalizer_calls": ("count", "lower", "calls", "subgroups.normalizer"),
    "subgroups.normalizer_distinct": ("count", "lower", "count", "subgroups.normalizer_distinct"),
    "subgroups.normalizer_useful_ratio": ("ratio", "higher", "useful", None),
    "subgroups.normalizer_s": ("s", "lower", "self", "subgroups.normalizer"),
    "subgroups.core_s": ("s", "lower", "self", "subgroups.core"),
    "subgroups.normal_closure_s": ("s", "lower", "self", "subgroups.normal_closure"),
    "subgroups.centralizer_s": ("s", "lower", "self", "subgroups.centralizer"),
    "subgroups.minimal_normal_s": ("s", "lower", "self", "subgroups.minimal_normal"),
    "subgroups.is_normal_calls": ("count", "lower", "calls", "subgroups.is_normal"),
    "subgroups.fingerprint_calls": ("count", "lower", "calls", "subgroups.fingerprint"),
    "subgroups.fingerprint_s": ("s", "lower", "self", "subgroups.fingerprint"),
    "structure.series_calls": ("count", "lower", "calls", "structure.series"),
    "structure.series_s": ("s", "lower", "self", "structure.series"),
    "structure.sylow_calls": ("count", "lower", "calls", "structure.sylow"),
    "structure.sylow_s": ("s", "lower", "self", "structure.sylow"),
    "structure.p_nilpotent_s": ("s", "lower", "self", "structure.p_nilpotent"),
    "structure.fitting_s": ("s", "lower", "self", "structure.fitting"),
    "structure.thompson_s": ("s", "lower", "self", "structure.thompson"),
    "structure.quotient_calls": ("count", "lower", "calls", "structure.quotient"),
    "structure.quotient_degree_sum": ("count", "lower", "count", "structure.quotient_degree_sum"),
    "structure.quotient_s": ("s", "lower", "self", "structure.quotient"),
    "theorems.context_calls": ("count", "lower", "calls", "theorems.context"),
    "theorems.context_candidates": ("count", "lower", "count", "theorems.context_candidates"),
    "theorems.context_s": ("s", "lower", "self", "theorems.context"),
    "theorems.comp22_s": ("s", "lower", "self", "theorems.comp22"),
    "theorems.hall_s": ("s", "lower", "self", "theorems.hall"),
    "theorems.rem23_s": ("s", "lower", "self", "theorems.rem23"),
    "theorems.simp_s": ("s", "lower", "self", "theorems.simp"),
    "theorems.thompson_s": ("s", "lower", "self", "theorems.thompson"),
    "theorems.burnside_s": ("s", "lower", "self", "theorems.burnside"),
    "theorems.frobenius_s": ("s", "lower", "self", "theorems.frobenius"),
    "scan.intro_s": ("s", "lower", "self", "scan.intro"),
    "scan.pairs": ("count", "higher", "count", "scan.pairs"),
    "scan.hits": ("count", "higher", "count", "scan.hits"),
    "scan.par_floor_s": ("s", "lower", "floor", "scan.group"),
    "scan.par_efficiency": ("ratio", "higher", "efficiency", "scan.group"),
    "catalog.build_calls": ("count", "lower", "calls", "catalog.build"),
    "catalog.build_s": ("s", "lower", "self", "catalog.build"),
    "verdict.reports": ("count", "higher", "count", "verdict.reports"),
    "verdict.serialize_s": ("s", "lower", "self", "verdict.serialize"),
    "trace.spans": ("count", "lower", "spans", None),
    "trace_overhead_ratio": ("ratio", "lower", "overhead", None),
}
# exact in every traced pass of a seed; the rest are times
EXACT = tuple(n for n, (_, _, kind, _) in LAYER.items() if kind in ("calls", "count", "spans"))


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the same for k copies of a pass as for one."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(values: list[float], q: float) -> int:
    cut = quantile(values, q)
    return sum(1 for v in values if v > cut)


def pass_layers(spans: list, counts: Counter, wall: float, jobs: int) -> dict[str, float]:
    """Per-layer values of one traced pass (everything but perm and overhead)."""
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    durations: defaultdict = defaultdict(list)
    for span, st in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_s[span[0]] += st
        durations[span[0]].append(span[2] - span[1])
    out = {}
    for name, (_, _, kind, arg) in LAYER.items():
        if kind == "calls":
            out[name] = calls[arg]
        elif kind == "self":
            out[name] = self_s[arg]
        elif kind == "count":
            out[name] = counts[arg]
        elif kind == "floor":
            out[name] = max(durations[arg], default=0.0)
        elif kind == "efficiency":
            out[name] = sum(durations[arg]) / (jobs * wall) if wall else 0.0
        elif kind == "spans":
            out[name] = len(spans)
    n_calls = calls["subgroups.normalizer"]
    out["subgroups.normalizer_useful_ratio"] = (
        counts["subgroups.normalizer_distinct"] / n_calls if n_calls else 0.0)
    return out


def median_layers(per_pass: list[dict]) -> dict[str, float]:
    """Counts from the first traced pass, times as the median over passes."""
    out = {}
    for name in per_pass[0]:
        if name in EXACT:
            out[name] = per_pass[0][name]
        else:
            out[name] = statistics.median(p[name] for p in per_pass)
    return out
