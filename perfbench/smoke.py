"""Smoke test of the benchmark itself (about a minute).

    python3 perfbench/smoke.py

Runs every workload on a tiny seeded op list, traced and untraced, and
checks that each metric of BENCHMARK.json prints with its unit; checks that
the golden check rejects an altered document; and checks that the benchmark
fails without printing a result where there is no normlab source.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


class MetricNames(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [(n, u, b) for n, (u, b, _, _) in metrics.LAYER.items()])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_every_metric_prints_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    p = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                              "--trace", str(trace), "--max-ops", "3")
                    self.assertEqual(p.returncode, 0, p.stderr)
                    lines = p.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], p.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    wanted = ([(n, u) for n, u, _ in metrics.END_TO_END] if trace == 0 else
                              [(n, u) for n, (u, _, _, _) in metrics.LAYER.items()])
                    self.assertEqual(list(result["metrics"]), [n for n, _ in wanted])
                    human = "\n".join(lines[:-1])
                    for name, unit in wanted:
                        self.assertEqual(result["metrics"][name]["unit"], unit)
                    shown = metrics.LATENCY if trace == 0 else ()
                    printed = wanted + [(n, u) for n, u, _ in shown] + [
                        ("failed_ratio", "ratio"), ("skipped_ratio", "ratio")]
                    for name, unit in printed:
                        self.assertRegex(human, rf"\n  {name} +\S+ {unit} ")


class GoldenCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.nl = run.import_normlab(ROOT)
        cls.gold = golden.load()
        cls.runner = wl.OpRunner("verify", cls.nl, time.perf_counter)

    def _run(self, *op):
        key = wl.verify_key(*op)
        return key, self.runner.run(wl.Op(key, wl.verify_argv(*op)))[1]

    def test_seed_output_passes_and_an_altered_document_fails(self):
        key, outcome = self._run(*wl.ANCHORS[0])
        self.assertEqual(golden.classify(self.gold, key, outcome)[0], golden.OK)
        timing_only = copy.deepcopy(outcome)
        timing_only.doc["elapsed_s"] = 123.0
        timing_only.doc["reports"][0]["elapsed_s"] = 4.5
        self.assertEqual(golden.classify(self.gold, key, timing_only)[0], golden.OK)
        altered = copy.deepcopy(outcome)
        altered.doc["reports"][0]["subject"]["subgroup_order"] += 1
        self.assertEqual(golden.classify(self.gold, key, altered)[0], golden.MISMATCH)
        tally = copy.deepcopy(outcome)
        tally.doc["summary"]["status_counts"] = {}
        self.assertEqual(golden.classify(self.gold, key, tally)[0], golden.MISMATCH)

    def test_seed_failures_are_known_until_they_change(self):
        key, outcome = self._run(*wl.ANCHORS[-1])
        self.assertEqual(golden.classify(self.gold, key, outcome)[0], golden.KNOWN_DEFECT)
        other = copy.deepcopy(outcome)
        other.stderr = "error: something else"
        self.assertEqual(golden.classify(self.gold, key, other)[0], golden.ERROR)


class BareDirectory(unittest.TestCase):
    def test_fails_without_a_result_where_there_is_no_source(self):
        bare = ROOT / run.OUT_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            p = bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn("{", p.stdout)


if __name__ == "__main__":
    unittest.main()
