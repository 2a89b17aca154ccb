"""Permutation micro-timings, the calibration loop and the machine record.

The perm timings use only the public API (``*``, ``conjugate``,
``.inverse()``), so the private tuple helpers behind them can change
without touching the benchmark.
"""

from __future__ import annotations

import hashlib
import os
import platform
import random
import statistics
import time
from pathlib import Path

PAIRS = 4000
REPEATS = 5
ELEMENTS_PER_GROUP = 24
MAX_GROUPS = 6


def _elements(nl, spec: str, rng: random.Random) -> list:
    G, _ = nl.catalog.build(nl.catalog.parse_spec(spec))
    gens = list(G.generators) or [nl.perm.identity(G.degree)]
    out = []
    for _ in range(ELEMENTS_PER_GROUP):
        x = rng.choice(gens)
        for _ in range(rng.randrange(1, 8)):
            x = x * rng.choice(gens)
        out.append(x)
    return out


def perm_timings(nl, specs: list[str], rng: random.Random) -> dict[str, float]:
    """ns per call of compose, conjugate and inverse on elements of the given
    groups at their own degrees; the median of REPEATS timed loops."""
    chosen = sorted(set(specs))
    chosen = sorted(rng.sample(chosen, min(MAX_GROUPS, len(chosen))))
    pools = [_elements(nl, s, rng) for s in chosen]
    pairs = []
    for _ in range(PAIRS):
        pool = rng.choice(pools)
        pairs.append((rng.choice(pool), rng.choice(pool)))
    singles = [a for a, _ in pairs]
    conjugate = nl.perm.conjugate
    clock = time.perf_counter

    def loop(kind: str) -> float:
        t0 = clock()
        if kind == "compose":
            for a, b in pairs:
                a * b
        elif kind == "conjugate":
            for a, b in pairs:
                conjugate(a, b)
        else:
            for a in singles:
                a.inverse()
        return clock() - t0

    out = {}
    for kind in ("compose", "conjugate", "inverse"):
        loop(kind)
        out[kind] = statistics.median(loop(kind) for _ in range(REPEATS)) / PAIRS * 1e9
    return out


def calibration_s() -> float:
    """A fixed pure-Python loop; recorded beside results, never used to scale them."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return best


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_file = root / ".git" / name
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "none (not a git checkout)"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "normlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine(root: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "source_digest": source_digest(root),
        "calibration_s": round(calibration_s(), 6),
    }
