"""Tests of the benchmark itself: its checker, cost table, generators, tracer
and smoke-size runs of every workload.

    python3 -m pytest -q bench/tests
"""
import json
import math
from pathlib import Path

import pytest

import check
import probe
import run
import workloads
from spans import Tracer

import revopt
from revopt import io as rio
from revopt import pipeline

ROOT = Path(__file__).resolve().parents[2]


def _drop_gate(text: str, k: int) -> str:
    lines = text.splitlines()
    gate_lines = [i for i, ln in enumerate(lines) if ln.startswith("t")]
    del lines[gate_lines[k]]
    return "\n".join(lines) + "\n"


def _reported(text: str, out: str) -> dict:
    a, b = check.read_tfc(text), check.read_tfc(out)
    return {"cost_before": check.cost(a), "cost_after": check.cost(b),
            "gates_before": len(a.gates), "gates_after": len(b.gates)}


def test_checker_passes_real_outputs_and_catches_a_dropped_gate():
    texts = [t for t in workloads.first_circuits("fuzz", 7, 64) if t.count("\nt") >= 3]
    for text in texts[:12]:
        out, report = pipeline.optimize(rio.parse_circuit(text))
        out_text = rio.write_circuit(out)
        reported = {"cost_before": report.cost_before, "cost_after": report.cost_after,
                    "gates_before": report.gates_before, "gates_after": report.gates_after}
        assert check.check_output(text, out_text, reported) is None
        if not out.gates:
            continue
        broken = _drop_gate(out_text, len(out.gates) // 2)
        # consistent report, cheaper output: only the simulator can catch it
        assert check.check_output(text, broken, _reported(text, broken)) == (
            "output is not equivalent to input")


def test_checker_catches_cost_rise_and_misreported_cost():
    text = check.WORKED_EXAMPLES[0][1]
    worse = text.replace("END", "t1 a\nt1 a\nEND")
    assert check.check_output(text, worse, _reported(text, worse)).startswith("cost rose")
    lie = dict(_reported(text, text), cost_after=1)
    assert check.check_output(text, text, lie).startswith("reported cost_after")


# (m, all_negative, n, cost): one or more instances of every README table row
README_ROWS = [
    (0, False, 3, 1),
    (1, False, 4, 1), (1, True, 4, 3),
    (2, False, 5, 5), (2, True, 5, 6), (2, True, 3, 6),
    (3, False, 4, 13), (3, True, 4, 15), (7, False, 8, 253), (7, True, 8, 255),
    (3, False, 6, 14), (3, True, 6, 16), (5, False, 10, 38), (5, True, 10, 40),
    (4, False, 6, 56), (4, True, 6, 60), (8, False, 10, 152), (8, True, 10, 156),
]


@pytest.mark.parametrize("m,all_negative,n,expected", README_ROWS)
def test_cost_recount_matches_readme_rows(m, all_negative, n, expected):
    assert check.gate_cost(m, all_negative, n) == expected


def test_cost_recount_matches_revopt_on_every_shape():
    for n in range(1, 13):
        for m in range(n):
            for all_negative in (False, True) if m else (False,):
                g = revopt.mct([(i + 1, not all_negative) for i in range(m)], 0)
                assert check.gate_cost(m, all_negative, n) == revopt.gate_cost(g, n)


def test_generators_are_seeded_and_stratified():
    for name, w in workloads.WORKLOADS.items():
        a = workloads.first_circuits(name, 3, w.block_size)
        assert a == workloads.first_circuits(name, 3, w.block_size)
        assert a != workloads.first_circuits(name, 4, w.block_size)
        cells = set()
        for text in a:
            c = check.read_tfc(text)
            stratum = next(s for s in w.gate_strata if s[0] <= len(c.gates) <= s[1])
            cells.add((c.width, stratum))
            cap = c.width - 1 if w.max_controls is None else w.max_controls
            assert all(m <= cap for *_, m in c.gates)
        assert len(cells) == w.block_size


def test_tracer_restores_the_program_and_nests_spans():
    original = pipeline.ctr_optimize
    tracer = Tracer()
    tracer.install()
    try:
        for _, text, before, after in check.WORKED_EXAMPLES:
            out, report = pipeline.optimize(rio.parse_circuit(text))
            assert (report.cost_before, report.cost_after) == (before, after)
    finally:
        tracer.uninstall()
    assert pipeline.ctr_optimize is original
    seconds, calls, self_seconds = tracer.totals()
    assert calls["pipeline.optimize"] == 2
    assert calls["ctr.ctr_optimize"] >= 2 and calls["ctr.cover_exact"] >= 2
    ids = {s[0] for s in tracer.spans}
    assert all(parent == -1 or parent in ids for *_, parent, _ in tracer.spans)
    for name in seconds:
        assert 0 <= self_seconds[name] <= seconds[name]


def test_probe_chunk_counts():
    worse, greedy, exact, gap, maps = probe._chunk(0, 64)
    assert maps == 64 and 0 <= worse <= maps and greedy >= exact and gap >= 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run(name):
    w = workloads.WORKLOADS[name]
    record = run.measure(name, seed=1, seconds=0, quality_count=w.block_size)
    assert record["failures"] == []
    assert set(record["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in record["metrics"].values())
    assert record["detail"]["corpus"]["circuits"] == w.block_size


def test_smoke_traced_run():
    record = run.measure_traced("long-narrow", seed=1, quality_count=9)
    assert record["failures"] == []
    assert set(run.PER_LAYER) - set(record["metrics"]) == {
        "ctr.greedy_worse_share", "ctr.greedy_cost_mean", "ctr.exact_cost_mean", "ctr.greedy_gap_max"}
    assert record["metrics"]["ctr.cover_greedy_calls"] == 0
    assert record["metrics"]["ctr.cover_exact_calls"] > 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER.items())
    assert [(x["name"], x["why"]) for x in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert math.isclose(max(m["bound"] for m in spec["end_to_end"]),
                        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"))
