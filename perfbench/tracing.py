"""Outside-in tracing: spans around normlab's public functions.

``Tracer.install`` wraps the functions named in ``SPANS`` and rebinds every
copy a ``from .x import f`` left in a ``normlab.*`` module (and the entries
of ``scan.VERIFIERS``), so calls between modules are seen too;
``uninstall`` puts the originals back. A span is (name, start, end, parent,
op, pid); spans stay in memory until the run writes them out. The ``perm``
module is never wrapped: its helpers run millions of times per pass.

Scan worker processes are forked with the tracer installed; each task
writes its spans to a file that ``collect_children`` merges back.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

# (module, attribute) -> span name; methods are "Class.method"
SPANS = {
    ("chain", "build_chain"): "chain.build",
    ("chain", "StabilizerChain.extended"): "chain.build",
    ("chain", "StabilizerChain.contains"): "chain.contains",
    ("group", "Group.conjugacy_class_reps"): "group.class_reps",
    ("closure", "dimino_extend"): "closure.dimino",
    ("closure", "mulclose"): "closure.mulclose",
    ("subgroups", "enumerate_subgroups"): "subgroups.lattice",
    ("subgroups", "normalizer"): "subgroups.normalizer",
    ("subgroups", "core"): "subgroups.core",
    ("subgroups", "normal_closure"): "subgroups.normal_closure",
    ("subgroups", "centralizer"): "subgroups.centralizer",
    ("subgroups", "minimal_normal_subgroups"): "subgroups.minimal_normal",
    ("subgroups", "is_normal"): "subgroups.is_normal",
    ("subgroups", "fingerprint"): "subgroups.fingerprint",
    ("structure", "derived_series"): "structure.series",
    ("structure", "lower_central_series"): "structure.series",
    ("structure", "sylow_subgroup"): "structure.sylow",
    ("structure", "is_p_nilpotent"): "structure.p_nilpotent",
    ("structure", "fitting_subgroup"): "structure.fitting",
    ("structure", "thompson_subgroup"): "structure.thompson",
    ("structure", "quotient"): "structure.quotient",
    ("theorems", "maximal_normalizer_context"): "theorems.context",
    ("theorems", "verify_comp22"): "theorems.comp22",
    ("theorems", "verify_hall_lemma"): "theorems.hall",
    ("theorems", "verify_rem23"): "theorems.rem23",
    ("theorems", "verify_simp"): "theorems.simp",
    ("theorems", "verify_thompson"): "theorems.thompson",
    ("theorems", "verify_burnside_complement"): "theorems.burnside",
    ("theorems", "frobenius_decomposition"): "theorems.frobenius",
    ("theorems", "is_frobenius_product"): "theorems.frobenius",
    ("scan", "scan_group"): "scan.group",
    ("scan", "intro_suite"): "scan.intro",
    ("catalog", "build"): "catalog.build",
    ("verdict", "VerdictReport.to_dict"): "verdict.serialize",
    ("verdict", "VerdictReport.from_dict"): "verdict.serialize",
}
# counted at the call without a span: a generator and a constructor
COUNTS = {
    ("chain", "StabilizerChain.iter_elements"): "chain.element_enumerations",
    ("verdict", "VerdictReport.__init__"): "verdict.reports",
}
WORKER = ("scan", "_scan_worker")


def _lookup(nl, module: str, attr: str):
    owner = getattr(nl, module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Tracer:
    def __init__(self, nl, child_dir: Path):
        self.nl = nl
        self.child_dir = child_dir
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = None
        self.paused = False
        self._distinct: set = set()
        self._restore: list = []

    # -- op boundaries ------------------------------------------------------

    def begin_op(self, op) -> None:
        self.op = op
        self._distinct = set()

    def end_op(self) -> None:
        self.counts["subgroups.normalizer_distinct"] += len(self._distinct)
        self.op = None

    def reset(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, hook=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            spans, stack = self.spans, self.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op, 0)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.paused:
                self.counts[name] += 1
                if hook is not None:
                    hook(args, kwargs, None)
            return fn(*args, **kwargs)

        return wrapper

    def _worker(self, fn):
        """Runs in a forked scan worker: trace one task, ship its spans."""

        @functools.wraps(fn)
        def wrapper(args):
            op = self.op
            self.reset()
            self.begin_op(op)
            try:
                return fn(args)
            finally:
                self.end_op()
                path = self.child_dir / f"{os.getpid()}-{time.perf_counter_ns()}.json"
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"pid": os.getpid(), "op": op, "spans": self.spans,
                               "counts": self.counts}, fh)

        return wrapper

    def _hooks(self) -> dict:
        def normalizer(args, kwargs, result):
            ambient = args[0] if args else kwargs["ambient"]
            H = args[1] if len(args) > 1 else kwargs["H"]
            # the element set when the call enumerated it, else the generators
            elems = H.carrier._cache.get("elements")
            key = elems if elems is not None else tuple(g.images for g in H.generators)
            self._distinct.add((tuple(g.images for g in ambient.generators), key))

        def context(args, kwargs, result):
            self.counts["theorems.context_candidates"] += (
                len(result.candidates_fit) + len(result.candidates_h))

        def quotient(args, kwargs, result):
            self.counts["structure.quotient_degree_sum"] += result.image.degree

        def scan_group(args, kwargs, result):
            self.counts["scan.pairs"] += result[1]["pairs"]
            self.counts["scan.hits"] += result[1]["hits"]

        def enumeration(args, kwargs, result):
            # at the call: the generator has not produced anything yet
            self.counts["chain.elements_enumerated"] += args[0].order()

        return {"subgroups.normalizer": normalizer, "theorems.context": context,
                "structure.quotient": quotient, "scan.group": scan_group,
                "chain.element_enumerations": enumeration}

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        by_id: dict[int, object] = {}
        for (module, attr), name in SPANS.items():
            owner, a = _lookup(self.nl, module, attr)
            fn = vars(owner)[a]
            if isinstance(fn, classmethod):
                self._set(owner, a, classmethod(self._span(name, fn.__func__)))
                continue
            wrapper = self._span(name, fn, hooks.get(name))
            self._set(owner, a, wrapper)
            by_id[id(fn)] = wrapper
        for (module, attr), name in COUNTS.items():
            owner, a = _lookup(self.nl, module, attr)
            self._set(owner, a, self._count(name, vars(owner)[a], hooks.get(name)))
        owner, a = _lookup(self.nl, *WORKER)
        self._set(owner, a, self._worker(vars(owner)[a]))
        # rebind the copies that "from .x import f" left in other modules
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "normlab" and not mod_name.startswith("normlab."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._set(mod, attr, wrapper)
        verifiers = self.nl.scan.VERIFIERS
        for key, fn in list(verifiers.items()):
            if id(fn) in by_id:
                self._restore.append((verifiers.__setitem__, key, fn))
                verifiers[key] = by_id[id(fn)]

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((functools.partial(setattr, owner), attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            setter, key, original = self._restore.pop()
            setter(key, original)

    # -- worker spans ---------------------------------------------------------

    def collect_children(self) -> None:
        """Merge the spans and counts the scan workers wrote."""
        for path in sorted(self.child_dir.glob("*.json")):
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            path.unlink()
            offset = len(self.spans)
            for name, t0, t1, parent, op, _ in data["spans"]:
                self.spans.append((name, t0, t1, parent + offset if parent >= 0 else -1,
                                   op, data["pid"]))
            self.counts.update(data["counts"])


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out
