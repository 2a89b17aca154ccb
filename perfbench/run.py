"""normlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 32 --trace 0

Run from the repository root: normlab is imported from ./src. With
``--trace 0`` the run times passes over the workload's seeded op sample
and prints the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced passes and prints the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON
object. Every op's output is checked against perfbench/golden.json.
Results and spans are written under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import golden  # noqa: E402
import metrics  # noqa: E402
import micro  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("sweep", "sweep-par", "verify", "analyze")
NORMLAB_MODULES = ("arith", "perm", "chain", "group", "closure", "subgroups",
                   "structure", "theorems", "verdict", "catalog", "scan", "cli")
SETUPS_PER_PASS = 3
OUT_DIR = ".perfbench-out"
clock = time.perf_counter


class Normlab:
    """The freshly imported normlab modules, as attributes."""

    def __init__(self):
        for name in NORMLAB_MODULES:
            setattr(self, name, importlib.import_module(f"normlab.{name}"))


def import_normlab(root: Path) -> Normlab:
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "normlab" or m.startswith("normlab.")]:
        del sys.modules[name]
    return Normlab()


def op_groups(ops: list[wl.Op]) -> list[str]:
    groups = []
    for op in ops:
        if op.key.startswith("sweep:"):
            groups.extend(op.args)
        else:
            groups.append(op.args[op.args.index("--group") + 1])
    return groups


class Bench:
    def __init__(self, name: str, root: Path, seed: int, max_ops: int, gold: dict):
        self.name = name
        self.root = root
        self.seed = seed
        self.max_ops = max_ops
        self.gold = gold
        self.order_rng = random.Random(f"{seed}:order")
        self.setup_times: list[float] = []
        self.samples: list[dict[str, float]] = []   # per pass: op key -> seconds
        self.attempted = 0
        self.verdicts = {v: 0 for v in (golden.OK, golden.KNOWN_DEFECT, golden.MISMATCH, golden.ERROR)}
        self.skipped = 0
        self.problems: dict[str, str] = {}   # key -> verdict and reason, for ops not OK
        self.unstable: list[str] = []        # counts that differ between traced passes
        self.setup()

    @property
    def limited(self) -> bool:
        return 0 < self.max_ops < len(self.all_ops)

    def setup(self) -> None:
        """Import plus building the op list, SETUPS_PER_PASS times; the last
        import serves the next pass. Spreading set-ups over the run keeps
        their median from resting on one moment of a shared machine."""
        for _ in range(SETUPS_PER_PASS):
            gc.collect()
            t0 = clock()
            nl = import_normlab(self.root)
            ops = wl.make_ops(self.name, nl, random.Random(f"{self.seed}:sample"))
            self.setup_times.append(clock() - t0)
        self.nl, self.all_ops = nl, ops
        self.ops = ops[: self.max_ops] if self.limited else ops
        self.runner = wl.OpRunner(self.name, nl, clock)

    def run_pass(self, tracer: tracing.Tracer | None = None) -> float:
        """Run the sample once in a fresh seeded order; returns the summed op time."""
        times: dict[str, float] = {}
        outcomes = []
        if tracer is not None:
            tracer.paused = True   # the benchmark's own work is not traced
        for i, op in enumerate(wl.pass_order(self.ops, self.name, self.order_rng)):
            gc.collect()
            if tracer is not None:
                tracer.begin_op(f"{len(self.samples)}:{i}:{op.key}")
                tracer.paused = False
            elapsed, outcome = self.runner.run(op)
            if tracer is not None:
                tracer.paused = True
                tracer.end_op()
            times[op.key] = elapsed
            self.runner.finish(outcome)
            self._check(op.key, outcome)
            outcomes.append(outcome)
        if self.name == "sweep" and not self.limited:
            merged = golden.digest(self.runner.merged_sweep_document(outcomes))
            if merged != self.gold["sweep:merged"]["digest"]:
                self.verdicts[golden.MISMATCH] += 1
                self.problems["sweep:merged"] = "mismatch: merged pass document differs from the seed's"
        self.samples.append(times)
        return sum(times.values())

    def _check(self, key: str, outcome: wl.Outcome) -> None:
        self.attempted += 1
        verdict, reason = golden.classify(self.gold, key, outcome)
        self.verdicts[verdict] += 1
        if verdict != golden.OK:
            self.problems[key] = f"{verdict}: {reason}"
        if golden.is_skipped(outcome):
            self.skipped += 1

    @property
    def failed(self) -> int:
        return self.verdicts[golden.MISMATCH] + self.verdicts[golden.ERROR]

    def _passes(self, seconds: float, one):
        """Call one() per pass until the longest pass so far would end past
        the deadline (at least once); re-run the set-up between passes."""
        start, longest = clock(), 0.0
        while True:
            t0 = clock()
            one()
            longest = max(longest, clock() - t0)
            if clock() - start + longest > seconds:
                return
            self.setup()

    def untraced(self, seconds: float) -> dict:
        self._passes(seconds, self.run_pass)
        latencies = [t for p in self.samples for t in p.values()]
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.name == "sweep-par":
            # the parent's peak plus the largest scan worker's peak
            usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "setup_s": statistics.median(self.setup_times),
            "wall_s": statistics.median(sum(p.values()) for p in self.samples),
            "op_p50_ms": metrics.quantile(latencies, 0.5) * 1000,
            "op_p90_ms": metrics.quantile(latencies, 0.9) * 1000,
            "peak_rss_mb": usage / 1024,
        }

    def traced(self, seconds: float, out_dir: Path) -> dict:
        child_dir = out_dir / "children"
        child_dir.mkdir(parents=True, exist_ok=True)
        for stale in child_dir.glob("*.json"):
            stale.unlink()
        perm = micro.perm_timings(self.nl, op_groups(self.ops), random.Random(f"{self.seed}:perm"))
        jobs = wl.par_jobs() if self.name == "sweep-par" else 1
        plain, traced, per_pass, kept = [], [], [], []

        def pair():
            plain.append(self.run_pass())
            tracer = tracing.Tracer(self.nl, child_dir)
            tracer.install()
            try:
                wall = self.run_pass(tracer)
            finally:
                tracer.uninstall()
            tracer.collect_children()
            traced.append(wall)
            per_pass.append(metrics.pass_layers(tracer.spans, tracer.counts, wall, jobs))
            kept.append({"wall_s": wall, "spans": tracer.spans, "counts": dict(tracer.counts)})

        self._passes(seconds, pair)
        layers = metrics.median_layers(per_pass)
        for kind, ns in perm.items():
            layers[f"perm.{kind}_ns"] = ns
        layers["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        with open(out_dir / f"trace-{self.name}-{self.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": self.name, "passes": kept}, fh)
        self.unstable = [n for n in metrics.EXACT if len({p[n] for p in per_pass}) > 1]
        return layers


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=0,
                   help="cut the op sample to its first N ops (smoke test)")
    return p.parse_args(argv)


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(bench: Bench, args, values: dict, gated: list, shown: list, machine: dict) -> dict:
    """Print every metric with its unit and sample count; return the result
    object, which carries the gated metrics only."""
    passes = len(bench.samples) // (2 if args.trace else 1)
    latencies = [t for p in bench.samples for t in p.values()]
    # 0 on some workloads, so kept out of the result line like `shown`
    values["failed_ratio"] = (bench.failed + bench.verdicts[golden.KNOWN_DEFECT]) / bench.attempted
    values["skipped_ratio"] = bench.skipped / bench.attempted
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={fmt(args.seconds)} "
          f"trace={args.trace} ops/pass={len(bench.ops)} passes={passes}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for name, unit in gated + shown + [("failed_ratio", "ratio"), ("skipped_ratio", "ratio")]:
        note = ""
        if name == "setup_s":
            note = f"median of {len(bench.setup_times)} set-ups"
        elif name == "wall_s":
            note = f"median of {passes} passes"
        elif name.startswith("op_p"):
            q = 0.5 if name == "op_p50_ms" else 0.9
            note = f"{len(latencies)} ops, {metrics.beyond(latencies, q)} beyond (not in the result line)"
        elif name.endswith("_ratio") and name != "trace_overhead_ratio":
            note = f"of {bench.attempted} ops (not in the result line)"
        print(f"  {name:34s} {fmt(values[name]):>14s} {unit:6s} {note}")
    by_reason: dict[str, list[str]] = {}
    for key, reason in sorted(bench.problems.items()):
        by_reason.setdefault(reason, []).append(key)
    for reason, keys in by_reason.items():
        verdict, _, detail = reason.partition(": ")
        label = "known defect, as at the seed" if verdict == golden.KNOWN_DEFECT else "FAILED"
        print(f"  {label} ({len(keys)} distinct ops): {detail}")
        print(f"    {', '.join(keys)}")
    if bench.unstable:
        print(f"  counts differ between traced passes: {', '.join(bench.unstable)}")
    return {
        "correct": bench.failed == 0 and not bench.unstable,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in gated},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "normlab" / "__init__.py").is_file():
        print("perfbench: src/normlab not found; run from the repository root", file=sys.stderr)
        return 2
    os.environ.pop("NORMLAB_ENUM_BOUND", None)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)

    bench = Bench(args.workload, root, args.seed, args.max_ops, golden.load())
    machine = micro.machine(root)
    if args.trace:
        values = bench.traced(args.seconds, out_dir)
        gated = [(n, u) for n, (u, _, _, _) in metrics.LAYER.items()]
        shown = []
    else:
        values = bench.untraced(args.seconds)
        gated = [(n, u) for n, u, _ in metrics.END_TO_END]
        shown = [(n, u) for n, u, _ in metrics.LATENCY]
    result = report(bench, args, values, gated, shown, machine)
    record = dict(result, values=values, workload=args.workload, seed=args.seed,
                  trace=args.trace, problems=bench.problems, machine=machine,
                  setup_times=bench.setup_times, samples=bench.samples)
    with open(out_dir / f"result-{args.workload}-{args.seed}-{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
