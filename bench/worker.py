"""One fresh process of the benchmark: imports revopt, warms it up, and either
reports its set-up time or optimizes a workload's circuits the way
``revopt optimize FILE --report json`` does (parse, optimize with the default
config, write), one circuit after another on one thread.

Reads a JSON request on stdin and writes one JSON object on stdout.
Request keys: mode ("setup" or "run"); for "run" also workload, seed,
seconds, min_count (the quality corpus, always run), max_count (0 = no cap),
traced and spans_path.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import speed
import workloads
from check import WORKED_EXAMPLES

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

PASS_NAMES = {"not-cancel": "not-cancel", "gpr+ctr": "gpr-ctr", "r-ctr": "r-ctr", "delete": "delete"}


def warm_up(revopt) -> None:
    """Build the lazy exact-cover tables for maps of 1 to 4 variables."""
    for v in range(1, 5):
        revopt.minimize_cover(revopt.Kmap(v, 1))


def setup() -> dict:
    start = time.perf_counter()
    import revopt

    warm_up(revopt)
    return {"setup_s": time.perf_counter() - start}


def optimize_text(rio, pipeline, text: str) -> tuple[str, object]:
    c = rio.parse_circuit(text)
    out, report = pipeline.optimize(c)
    return rio.write_circuit(out), report


def run(req: dict) -> dict:
    import revopt
    from revopt import io as rio
    from revopt import pipeline

    warm_up(revopt)
    examples = [optimize_text(rio, pipeline, text) for _, text, _, _ in WORKED_EXAMPLES]

    tracer = None
    if req["traced"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    texts, results, reports = [], [], []
    speed.sample()  # the first run of the reference is slower: discard it
    reference = [speed.sample()]
    peak_rss_mb = None
    last_sample = started = time.perf_counter()
    for block in workloads.blocks(req["workload"], req["seed"]):
        for text in block:
            if time.perf_counter() - last_sample >= speed.EVERY_S:
                reference.append(speed.sample())
                last_sample = time.perf_counter()
            if tracer is not None:
                tracer.circuit = len(results)
            texts.append(text)
            t0 = time.perf_counter()
            try:
                out_text, report = optimize_text(rio, pipeline, text)
            except Exception as e:  # a failed circuit is counted, not fatal
                results.append({"error": f"{type(e).__name__}: {e}", "seconds": time.perf_counter() - t0})
                continue
            seconds = time.perf_counter() - t0
            results.append({
                "seconds": seconds,
                "out": out_text,
                "cost_before": report.cost_before,
                "cost_after": report.cost_after,
                "gates_before": report.gates_before,
                "gates_after": report.gates_after,
            })
            reports.append(report)
        if peak_rss_mb is None and len(results) >= req["min_count"]:
            # over the fixed corpus, so that faster code, which gets through
            # more circuits and so fills caches further, is not charged for it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if req["max_count"] and len(results) >= req["max_count"]:
            break
        if time.perf_counter() - started >= req["seconds"] and len(results) >= req["min_count"]:
            break

    reference.append(speed.sample())
    answer = {
        "results": results,
        "reference_s": reference,
        "examples": [
            {"out": out, "cost_before": r.cost_before, "cost_after": r.cost_after,
             "gates_before": r.gates_before, "gates_after": r.gates_after}
            for out, r in examples
        ],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        tracer.uninstall()
        answer["layers"] = layer_metrics(tracer, reports, revopt.circuit_cost)
        tracer.write(req["spans_path"])
        ok = [i for i, r in enumerate(results) if "error" not in r]
        ratio, changed = paired_overhead(rio, pipeline, texts, ok[: len(ok) // 2])
        answer["layers"]["trace.overhead_ratio"] = ratio
        answer["traced_changed_output"] = changed
    return answer


def paired_overhead(rio, pipeline, texts: list[str], indices: list[int]) -> tuple[float, list[int]]:
    """Traced over untraced throughput, each circuit run both ways back to
    back in alternating order, so that machine speed drifts and warm caches
    fall on both sides alike. Also returns the circuits (of `indices`) whose
    output differed between the two runs."""
    from spans import Tracer

    tracer = Tracer()
    busy = {False: 0.0, True: 0.0}
    changed = []
    for i in indices:
        outs = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            outs[traced] = optimize_text(rio, pipeline, texts[i])[0]
            busy[traced] += time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if outs[False] != outs[True]:
            changed.append(i)
    return busy[False] / busy[True], changed


def layer_metrics(tracer, reports, circuit_cost) -> dict[str, float]:
    seconds, calls, self_seconds = tracer.totals()
    counts = tracer.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {
        "io.parse_s": seconds["io.parse"],
        "io.write_s": seconds["io.write"],
        "pipeline.optimize_s": seconds["pipeline.optimize"],
        "pipeline.self_s": self_seconds["pipeline.optimize"],
        "pipeline.iterations": sum(r.iterations_run for r in reports),
    }
    passes = [p for r in reports for p in r.passes]
    committed = sum(p.committed for p in passes)
    m["pipeline.passes_committed"] = committed
    m["pipeline.commit_ratio"] = ratio(committed, len(passes))
    for name in PASS_NAMES.values():
        m[f"pipeline.pass.{name}.cost_delta"] = 0
    for p in passes:
        key = f"pipeline.pass.{PASS_NAMES.get(p.name, p.name)}.cost_delta"
        m[key] = m.get(key, 0) + p.cost_before - p.cost_after
    for name in ("cancel_not_pairs", "apply_gpr", "apply_rctr", "apply_rewrite"):
        m[f"rules.{name}_s"] = seconds[f"rules.{name}"]
        m[f"rules.{name}_calls"] = calls[f"rules.{name}"]
    for name in ("apply_gpr", "apply_rctr"):
        m[f"rules.{name}_hit_ratio"] = ratio(counts[f"rules.{name}.hits"], calls[f"rules.{name}"])
    improved = sum(circuit_cost(out) < circuit_cost(c) for c, out in tracer.ctr_calls)
    m.update({
        "ctr.ctr_optimize_s": seconds["ctr.ctr_optimize"],
        "ctr.ctr_optimize_calls": calls["ctr.ctr_optimize"],
        "ctr.improved_ratio": ratio(improved, len(tracer.ctr_calls)),
        "ctr.cluster_s": seconds["ctr.cluster"],
        "ctr.windows": counts["ctr.windows"],
        "ctr.build_kmap_s": seconds["ctr.build_kmap"],
        "ctr.kmap_cells": counts["ctr.kmap_cells"],
        "ctr.cover_to_gates_s": seconds["ctr.cover_to_gates"],
        "ctr.cover_exact_s": seconds["ctr.cover_exact"],
        "ctr.cover_exact_calls": calls["ctr.cover_exact"],
        "ctr.cover_greedy_s": seconds["ctr.cover_greedy"],
        "ctr.cover_greedy_calls": calls["ctr.cover_greedy"],
        "cost.circuit_cost_s": seconds["cost.circuit_cost"],
        "cost.circuit_cost_calls": calls["cost.circuit_cost"],
        "cost.gate_cost_calls": counts["cost.gate_cost_calls"],
        "core.simulate_s": seconds["core.simulate"],
        "core.simulate_calls": calls["core.simulate"],
        "core.simulated_states": counts["core.simulated_states"],
    })
    return m


def main() -> int:
    req = json.load(sys.stdin)
    answer = setup() if req["mode"] == "setup" else run(req)
    json.dump(answer, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
