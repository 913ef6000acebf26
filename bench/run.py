"""Benchmark of ``revopt optimize``: one circuit at a time, closed loop, one
thread, on seeded generated workloads.

    python3 bench/run.py --workload fuzz --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics: throughput and per-circuit
latency over a run of ``--seconds`` seconds, scaled to nominal machine speed
(see speed.py), set-up time (median of fresh processes), and, over the
workload's fixed quality corpus (the first blocks of the stream, which every
run completes), peak memory of the process that ran the workload and the
total cost and gate count after optimization. With ``--trace 1`` it runs the
quality corpus once, traced, in a fresh process, then half of it again with
tracing toggled per run to measure the tracing overhead, plus the
cover-quality probe, and prints the per-layer metrics; spans and the probe's
cached result go to ``bench/results/``.

Every output is checked outside the timed region by the benchmark's own
simulator and cost table. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Run from the root of a
checkout of the repository; without ``src/revopt`` it exits with code 2.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from check import WORKED_EXAMPLES, check_output, cost, read_tfc
from probe import cover_quality
from speed import slowdown
from workloads import WORKLOADS, first_circuits

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_SAMPLES = 8  # half before and half after the workload, to span its drift
TAIL_LADDER = (99, 98, 95, 90, 85, 80, 75, 50)
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "circuits_per_s": "1/s",
    "circuit_ms_p50": "ms",
    "circuit_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cost_after_total": "cost",
    "gates_after_total": "gates",
}

PER_LAYER = {
    "io.parse_s": "s",
    "io.write_s": "s",
    "pipeline.optimize_s": "s",
    "pipeline.self_s": "s",
    "pipeline.iterations": "count",
    "pipeline.passes_committed": "count",
    "pipeline.commit_ratio": "ratio",
    "pipeline.pass.not-cancel.cost_delta": "cost",
    "pipeline.pass.gpr-ctr.cost_delta": "cost",
    "pipeline.pass.r-ctr.cost_delta": "cost",
    "pipeline.pass.delete.cost_delta": "cost",
    "rules.cancel_not_pairs_s": "s",
    "rules.cancel_not_pairs_calls": "count",
    "rules.apply_gpr_s": "s",
    "rules.apply_gpr_calls": "count",
    "rules.apply_gpr_hit_ratio": "ratio",
    "rules.apply_rctr_s": "s",
    "rules.apply_rctr_calls": "count",
    "rules.apply_rctr_hit_ratio": "ratio",
    "rules.apply_rewrite_s": "s",
    "rules.apply_rewrite_calls": "count",
    "ctr.ctr_optimize_s": "s",
    "ctr.ctr_optimize_calls": "count",
    "ctr.improved_ratio": "ratio",
    "ctr.cluster_s": "s",
    "ctr.windows": "count",
    "ctr.build_kmap_s": "s",
    "ctr.kmap_cells": "cells",
    "ctr.cover_to_gates_s": "s",
    "ctr.cover_exact_s": "s",
    "ctr.cover_exact_calls": "count",
    "ctr.cover_greedy_s": "s",
    "ctr.cover_greedy_calls": "count",
    "ctr.greedy_worse_share": "ratio",
    "ctr.greedy_cost_mean": "cost",
    "ctr.exact_cost_mean": "cost",
    "ctr.greedy_gap_max": "cost",
    "cost.circuit_cost_s": "s",
    "cost.circuit_cost_calls": "count",
    "cost.gate_cost_calls": "count",
    "core.simulate_s": "s",
    "core.simulate_calls": "count",
    "core.simulated_states": "states",
    "trace.overhead_ratio": "ratio",
}


def worker(request: dict) -> dict:
    """Run bench/worker.py in a fresh interpreter and return its answer."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps(request), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg": os.getloadavg(),
    }


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def fingerprint(texts: list[str]) -> dict:
    parsed = [read_tfc(t) for t in texts]
    return {
        "circuits": len(texts),
        "cost_before_total": sum(cost(c) for c in parsed),
        "gates_before_total": sum(len(c.gates) for c in parsed),
        "sha256": hashlib.sha256("".join(texts).encode()).hexdigest(),
    }


def check_answer(name: str, seed: int, answer: dict) -> tuple[list[str], list[str]]:
    """Inputs of the circuits the worker ran, and why each failed one failed."""
    results = answer["results"]
    texts = first_circuits(name, seed, len(results))
    failures = []
    for i, (text, r) in enumerate(zip(texts, results)):
        why = r.get("error") or check_output(text, r["out"], r)
        if why:
            failures.append(f"circuit {i}: {why}")
    for (ex, text, before, after), r in zip(WORKED_EXAMPLES, answer["examples"]):
        why = check_output(text, r["out"], r)
        if why is None and (r["cost_before"], r["cost_after"]) != (before, after):
            why = f"cost {r['cost_before']} -> {r['cost_after']}, expected {before} -> {after}"
        if why:
            failures.append(f"example {ex}: {why}")
    return texts, failures


def measure(name: str, seed: int, seconds: float, quality_count: int | None = None) -> dict:
    """End-to-end metrics of one untraced run. Circuit times are scaled to
    nominal machine speed by the reference timed in the same process (see
    speed.py). Set-up time is not: it is mostly module loading, which the
    reference does not track, and scaling it made it less steady."""
    w = WORKLOADS[name]
    quality_count = quality_count or w.quality_count
    setup = [worker({"mode": "setup"})["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
    answer = worker({
        "mode": "run", "workload": name, "seed": seed, "seconds": seconds,
        "min_count": quality_count, "max_count": 0, "traced": False,
    })
    setup += [worker({"mode": "setup"})["setup_s"] for _ in range(SETUP_SAMPLES - len(setup))]
    texts, failures = check_answer(name, seed, answer)
    results = answer["results"]
    latencies = [r["seconds"] for r in results]
    # a slow run falls back to the highest percentile it has ten samples beyond
    tail = next((p for p in TAIL_LADDER
                 if p <= w.tail_percentile and len(latencies) * (100 - p) >= 1000), 50)
    raw = {
        "circuits_per_s": len(latencies) / sum(latencies),
        "circuit_ms_p50": 1000 * percentile(latencies, 50),
        "circuit_ms_tail": 1000 * percentile(latencies, tail),
    }
    slow = slowdown(answer["reference_s"])
    quality = results[:quality_count]
    metrics = {
        "circuits_per_s": raw["circuits_per_s"] * slow,
        "circuit_ms_p50": raw["circuit_ms_p50"] / slow,
        "circuit_ms_tail": raw["circuit_ms_tail"] / slow,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": answer["peak_rss_mb"],
        "cost_after_total": sum(r.get("cost_after", 0) for r in quality),
        "gates_after_total": sum(r.get("gates_after", 0) for r in quality),
    }
    return {
        "workload": name, "seed": seed, "metrics": metrics,
        "attempted": len(results) + len(WORKED_EXAMPLES), "failures": failures,
        "detail": {
            "samples": len(latencies), "tail_percentile": tail,
            "failed_share": len(failures) / (len(results) + len(WORKED_EXAMPLES)),
            "slowdown": slow, "raw": raw, "setup_samples_s": setup,
            "corpus": fingerprint(texts[:quality_count]),
        },
    }


def measure_traced(name: str, seed: int, quality_count: int | None = None) -> dict:
    """Per-layer metrics of one traced pass over the quality corpus."""
    quality_count = quality_count or WORKLOADS[name].quality_count
    RESULTS.mkdir(exist_ok=True)
    spans_path = str(RESULTS / f"spans-{name}-{seed}.jsonl")
    answer = worker({
        "mode": "run", "workload": name, "seed": seed, "seconds": 0,
        "min_count": quality_count, "max_count": quality_count, "traced": True,
        "spans_path": spans_path,
    })
    texts, failures = check_answer(name, seed, answer)
    failures += [f"circuit {i}: tracing changed the output" for i in answer["traced_changed_output"]]
    return {
        "workload": name, "seed": seed, "metrics": answer["layers"],
        "attempted": len(answer["results"]) + len(WORKED_EXAMPLES), "failures": failures,
        "detail": {"corpus": fingerprint(texts), "spans": spans_path},
    }


def report(record: dict, units: dict[str, str], env: dict) -> dict:
    """Print a readable summary and return the result object."""
    print(f"workload {record['workload']}  seed {record['seed']}")
    for key, unit in units.items():
        print(f"  {key:40s} {record['metrics'][key]:>16.6g} {unit}")
    for failure in record["failures"][:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({"detail": record["detail"], "environment": env}))
    return {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {k: {"value": record["metrics"][k], "unit": u} for k, u in units.items()},
    }


def _exit_on_term(signum: int, frame: object) -> None:
    """Leave through SystemExit, so that the child process being waited for
    is killed and reaped on the way out (see worker and probe.py)."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_term)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "revopt" / "__init__.py").is_file():
        print(f"error: no revopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    probe_metrics: dict[str, float] = {}
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        if args.trace:
            record = measure_traced(name, args.seed)
            if not probe_metrics:  # the probe does not depend on the workload
                started = time.perf_counter()
                probe_metrics = cover_quality(RESULTS)
                env["probe_s"] = time.perf_counter() - started
            record["metrics"].update(probe_metrics)
            print(json.dumps(report(record, PER_LAYER, env)))
        else:
            print(json.dumps(report(measure(name, args.seed, args.seconds), END_TO_END, env)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
