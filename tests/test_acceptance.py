"""Acceptance suite: one test per shipping criterion, each printing a
PASS line on success (run with -s to see them).

External benchmark circuits can be dropped into benchmarks/ (or a directory
named by REVOPT_BENCH_DIR) as .tfc files; criterion 7's harness then reports
equivalence and cost deltas for them without asserting specific numbers.
"""
import itertools
import os
import pathlib
import random
import time
from fractions import Fraction

import pytest

from revopt.core import Circuit, commutes, mct, simulate
from revopt.cost import circuit_cost, gate_cost
from revopt.ctr import MOVE_LOOKAHEAD, Kmap, cover_cost, ctr_optimize, minimize_cover
from revopt.io import parse_circuit, write_circuit
from revopt.pipeline import (
    OptimizeConfig,
    improvement_percent,
    improvement_percent_rounded,
    optimize,
)
from revopt.rules import (
    apply_gpr,
    apply_rctr,
    apply_rewrite,
    cancel_not_pairs,
    delete_sweep,
)
from oracles import (
    all_gates,
    oracle_min_cost_by_enumeration,
    oracle_min_cost_layered,
    random_circuit,
)


def _report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_criterion_1_cost_model_table():
    # Toffoli: 5 with >=1 positive control, 6 all-negative
    assert gate_cost(mct([0, (1, False)], 2), 3) == 5
    assert gate_cost(mct([0, 1], 2), 4) == 5
    assert gate_cost(mct([(0, False), (1, False)], 2), 4) == 6
    # negative-control CNOT: 3
    assert gate_cost(mct([(0, False)], 1), 2) == 3
    # 12m - 22 band, +2 all-negative
    for n in (7, 9, 12):
        for m in range(3, -(-n // 2) + 1):  # 3 .. ceil(n/2)
            assert gate_cost(mct(list(range(m)), n - 1), n) == 12 * m - 22
            allneg = mct([(x, False) for x in range(m)], n - 1)
            assert gate_cost(allneg, n) == 12 * m - 22 + 2
    # 24n - 88 at m = n-2 for n >= 7, +4 all-negative
    for n in (7, 8, 10):
        m = n - 2
        assert gate_cost(mct(list(range(m)), n - 1), n) == 24 * n - 88
        allneg = mct([(x, False) for x in range(m)], n - 1)
        assert gate_cost(allneg, n) == 24 * n - 88 + 4
    # 2^n - 3 at m = n-1, +2 all-negative
    for n in (4, 6, 8):
        m = n - 1
        assert gate_cost(mct(list(range(m)), n - 1), n) == 2**n - 3
        allneg = mct([(x, False) for x in range(m)], n - 1)
        assert gate_cost(allneg, n) == 2**n - 3 + 2
    _report("1 cost-model table")


def test_criterion_2_common_target_pair():
    c = Circuit(3).mcx([0, (1, False)], 2).mcx([(0, False), 1], 2)
    assert circuit_cost(c) == 10
    out = ctr_optimize(c)
    assert circuit_cost(out) == 2
    assert simulate(out) == simulate(c)
    _report("2 common-target pair 10 -> 2")


def test_criterion_3_not_sandwich():
    c = Circuit(3).x(0).mcx([0, 1], 2).x(0)
    assert circuit_cost(c) == 7
    out, report = optimize(c, OptimizeConfig(enabled_rules=frozenset({"PR"})))
    assert report.cost_after == 5
    assert simulate(out) == simulate(c)
    _report("3 NOT sandwich 7 -> 5")


def test_criterion_4_rule_soundness_exhaustive():
    # counts only the instances where a rule fired
    started = time.time()
    checked = nots = 0
    for n in (2, 3, 4):
        gates = all_gates(n)
        for g1, g2 in itertools.product(gates, gates):
            c = Circuit(n, (g1, g2))
            base = simulate(c)
            if commutes(g1, g2):
                assert simulate(Circuit(n, (g2, g1))) == base, ("move", g1, g2)
                checked += 1
            for rule in (apply_gpr, apply_rctr):
                r = rule(c, 0)
                if r is not None:
                    assert simulate(apply_rewrite(c, r)) == base, (rule.__name__, g1, g2)
                    checked += 1
            out = delete_sweep(c, MOVE_LOOKAHEAD)
            if out.gates != c.gates:
                assert simulate(out) == base, (out, g1, g2)
                checked += 1
            for d in ("right", "left"):
                out = cancel_not_pairs(c, d)
                if out.gates != c.gates:
                    assert simulate(out) == base, (out, g1, g2)
                    checked += 1
                    nots += 1
        for g in gates:
            c = Circuit(n, (g,))
            r = apply_rctr(c, 0)
            if r is not None:
                assert simulate(apply_rewrite(c, r)) == simulate(c)
                checked += 1
            # NOT passing over every gate, on every line, in both directions:
            # the two NOTs always cancel, so every sandwich is rewritten
            for x in range(n):
                c = Circuit(n, (mct([], x), g, mct([], x)))
                for d in ("right", "left"):
                    out = cancel_not_pairs(c, d)
                    assert len(out.gates) == 1, (d, x, g)
                    assert simulate(out) == simulate(c), (d, x, g)
                    checked += 1
                    nots += 1
    assert checked > 3000
    _report(f"4 rule soundness, {checked} instances ({nots} NOT passing) "
            f"in {time.time()-started:.1f}s")


def test_criterion_5_cover_exactness():
    for cells in range(16):
        got = cover_cost(minimize_cover(Kmap(2, cells)), 2)
        want = oracle_min_cost_by_enumeration(2, cells, max_cubes=5)
        assert got == want, (cells, got, want)
    rng = random.Random(20260823)
    sample = rng.sample(range(256), 210)
    for cells in sample:
        got = cover_cost(minimize_cover(Kmap(3, cells)), 3)
        want = oracle_min_cost_layered(3, cells, max_cubes=7)
        assert got == want, (cells, got, want)
    _report(f"5 cover exactness: 16 maps at v=2, {len(sample)} maps at v=3")


def test_criterion_6_fuzzed_end_to_end():
    rng = random.Random(1234)
    started = time.time()
    for i in range(1000):
        c = random_circuit(rng, max_width=8, max_gates=40)
        out, report = optimize(c)
        assert report.cost_after <= report.cost_before, i
        assert report.equivalence_checked, i
        assert simulate(out) == simulate(c), i
    _report(f"6 fuzz 1000/1000 equivalent, {time.time()-started:.1f}s")


def test_criterion_7_reported_improvements():
    # published cost pairs -> published percentages; the 18 -> 17 row prints
    # 5.5 in the source table, which rounds half-up to 6 here (documented
    # reporting choice: integer percentages)
    assert improvement_percent(18, 17) == Fraction(100, 18)
    assert improvement_percent_rounded(18, 17) == 6
    assert improvement_percent_rounded(195, 131) == 33
    assert improvement_percent_rounded(10, 7) == 30
    assert improvement_percent_rounded(25, 20) == 20
    assert improvement_percent_rounded(214, 136) == 36
    _report("7 reported improvement percentages")


def test_criterion_7_external_benchmark_harness(capsys):
    bench_dir = pathlib.Path(os.environ.get("REVOPT_BENCH_DIR", "benchmarks"))
    files = sorted(bench_dir.glob("*.tfc")) if bench_dir.is_dir() else []
    if not files:
        pytest.skip("no external benchmark circuits supplied")
    for path in files:
        c = parse_circuit(path.read_text())
        out, report = optimize(c)
        equal = simulate(out) == simulate(c) if c.width <= 16 else None
        print(
            f"benchmark {path.name}: cost {report.cost_before} -> "
            f"{report.cost_after}, equivalent={equal}"
        )
        if equal is not None:
            assert equal
    _report(f"7b benchmark harness over {len(files)} circuits")


def test_criterion_8_roundtrip():
    rng = random.Random(42)
    for _ in range(1000):
        c = random_circuit(rng, max_width=10, max_gates=30)
        assert parse_circuit(write_circuit(c)) == c
    _report("8 parse/write round-trip, 1000 circuits")
