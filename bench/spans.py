"""Span recorder for the traced run.

Wrappers are installed from outside the program, on the module attributes
that revopt's own callers look up (``revopt.pipeline.ctr_optimize``,
``revopt.ctr.minimize_cover``, ...). Each wrapped call records one span --
(id, name, start, end, parent id, circuit id) -- kept in memory and written
out when the run ends; some wrappers also count what the call did.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable

# Functions wrapped with a span: defining module, attribute, span name.
SPANNED = (
    ("revopt.io", "parse_circuit", "io.parse"),
    ("revopt.io", "write_circuit", "io.write"),
    ("revopt.pipeline", "optimize", "pipeline.optimize"),
    ("revopt.rules", "cancel_not_pairs", "rules.cancel_not_pairs"),
    ("revopt.rules", "apply_gpr", "rules.apply_gpr"),
    ("revopt.rules", "apply_rctr", "rules.apply_rctr"),
    ("revopt.rules", "apply_rewrite", "rules.apply_rewrite"),
    ("revopt.ctr", "ctr_optimize", "ctr.ctr_optimize"),
    ("revopt.ctr", "cluster_common_targets", "ctr.cluster"),
    ("revopt.ctr", "build_kmap", "ctr.build_kmap"),
    ("revopt.ctr", "minimize_cover", "ctr.cover"),
    ("revopt.ctr", "cover_to_gates", "ctr.cover_to_gates"),
    ("revopt.cost", "circuit_cost", "cost.circuit_cost"),
    ("revopt.core", "simulate", "core.simulate"),
)
# Called too often for a span each: counted only.
COUNTED = (("revopt.cost", "gate_cost", "cost.gate_cost_calls"),)

# The program solves maps of up to 4 variables exactly and larger ones
# greedily, so cover spans are split by map size.
EXACT_MAX_VARS = 4


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.ctr_calls: list[tuple[object, object]] = []  # (input, output)
        self.circuit = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._installed: list[tuple[object, str, Callable]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every revopt module attribute bound to a traced function."""
        hooks = {
            "rules.apply_gpr": self._after_apply_gpr,
            "rules.apply_rctr": self._after_apply_rctr,
            "ctr.ctr_optimize": self._after_ctr_optimize,
            "ctr.cluster": self._after_cluster,
            "ctr.build_kmap": self._after_build_kmap,
            "ctr.cover": self._after_cover,
            "core.simulate": self._after_simulate,
        }
        targets = {}
        for module, attr, name in SPANNED:
            fn = getattr(sys.modules[module], attr)
            targets[id(fn)] = self._spanned(fn, name, hooks.get(name))
        for module, attr, name in COUNTED:
            fn = getattr(sys.modules[module], attr)
            targets[id(fn)] = self._counted(fn, name)
        for modname, mod in list(sys.modules.items()):
            if modname != "revopt" and not modname.startswith("revopt."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    def _spanned(self, fn: Callable, name: str, after: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            span_name = (after(args, result) if after else None) or name
            spans.append((sid, span_name, start, end, parent, self.circuit))
            return result

        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-call counters; a returned string renames the span ---------------

    def _after_apply_gpr(self, args, result):
        self.counts["rules.apply_gpr.hits"] += result is not None

    def _after_apply_rctr(self, args, result):
        self.counts["rules.apply_rctr.hits"] += result is not None

    def _after_ctr_optimize(self, args, result):
        # priced after the run, so that pricing adds to no span
        self.ctr_calls.append((args[0], result))

    def _after_cluster(self, args, result):
        self.counts["ctr.windows"] += len(result[1])

    def _after_build_kmap(self, args, result):
        self.counts["ctr.kmap_cells"] += 1 << result.vars

    def _after_cover(self, args, result):
        return "ctr.cover_exact" if args[0].vars <= EXACT_MAX_VARS else "ctr.cover_greedy"

    def _after_simulate(self, args, result):
        self.counts["core.simulated_states"] += 1 << args[0].width

    # -- results -------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Seconds and calls per span name, and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children; calls on one thread nest, so children never overlap.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        self_seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, name, start, end, _, _ in self.spans:
            seconds[name] += (end - start) / 1e9
            self_seconds[name] += (end - start - child_ns[sid]) / 1e9
            calls[name] += 1
        return seconds, calls, self_seconds

    def write(self, path: str) -> None:
        """Spans as JSON lines: id, name, start_ns, end_ns, parent, circuit."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")
