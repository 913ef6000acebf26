import hashlib
import random
from fractions import Fraction

import pytest

from revopt.core import Circuit, mct, simulate
from revopt.cost import circuit_cost
from revopt import pipeline
from revopt.io import write_circuit
from revopt.pipeline import (
    OptimizeConfig,
    improvement_percent,
    improvement_percent_rounded,
    optimize,
)
from oracles import random_circuit, sparse_circuit


def test_optimize_not_sandwich_then_ctr():
    # pass-rule cancellation leaves two same-target Toffolis; the common
    # target pass collapses them to one CNOT
    c = (
        Circuit(3)
        .x(0)
        .mcx([0, 1], 2)
        .mcx([(0, False), 1], 2)
        .x(0)
    )
    out, report = optimize(c)
    assert report.cost_before == 12 and report.cost_after == 1
    assert out.gates == (mct([1], 2),)
    assert simulate(out) == simulate(c)
    assert report.equivalence_checked


def test_optimize_already_minimal(monkeypatch):
    priced = []
    monkeypatch.setattr(pipeline, "circuit_cost", lambda c: priced.append(c) or circuit_cost(c))
    c = Circuit(2).x(0)
    out, report = optimize(c)
    assert out is c
    assert report.iterations_run == 1
    assert report.cost_before == report.cost_after == 1
    # every pass returned its input, so only the input itself was priced
    assert len(report.passes) == 4 and not any(p.committed for p in report.passes)
    assert priced == [c]


def test_optimize_example_pair():
    c = Circuit(3).mcx([0, (1, False)], 2).mcx([(0, False), 1], 2)
    out, report = optimize(c)
    assert (report.cost_before, report.cost_after) == (10, 2)


def test_optimize_rule_selection():
    c = Circuit(3).mcx([0, (1, False)], 2).mcx([(0, False), 1], 2)
    _, report = optimize(c, OptimizeConfig(enabled_rules=frozenset({"CTR"})))
    assert report.cost_after == 2
    out, report = optimize(c, OptimizeConfig(enabled_rules=frozenset({"PR"})))
    assert report.cost_after == 10  # nothing for the pass rule to do here
    assert out.gates == c.gates
    # the combined pass is named after the rules that run in it
    for rules, name in (({"GPR"}, "gpr"), ({"CTR"}, "ctr"), ({"GPR", "CTR"}, "gpr+ctr")):
        _, report = optimize(c, OptimizeConfig(enabled_rules=frozenset(rules)))
        assert [p.name for p in report.passes] == [name] * report.iterations_run
    assert {p.name for p in optimize(c)[1].passes} == {"not-cancel", "gpr+ctr", "r-ctr", "delete"}


def test_optimize_max_iterations():
    c = Circuit(3).x(0).mcx([0, 1], 2).x(0)
    _, report = optimize(c, OptimizeConfig(max_iterations=1))
    assert report.iterations_run == 1
    with pytest.raises(ValueError):
        OptimizeConfig(max_iterations=0)
    with pytest.raises(ValueError):
        OptimizeConfig(enabled_rules=frozenset({"BOGUS"}))


def test_optimize_idempotent_at_fixpoint():
    rng = random.Random(10)
    for _ in range(30):
        c = random_circuit(rng, max_width=5, max_gates=15)
        once, r1 = optimize(c)
        twice, r2 = optimize(once)
        assert r2.cost_after == r1.cost_after


def test_optimize_deterministic():
    rng = random.Random(11)
    for _ in range(10):
        c = random_circuit(rng, max_width=6, max_gates=20)
        out1, _ = optimize(c)
        out2, _ = optimize(c)
        assert out1.gates == out2.gates


def test_optimize_monotone_cost():
    rng = random.Random(12)
    for _ in range(30):
        c = random_circuit(rng, max_width=6, max_gates=20)
        _, report = optimize(c)
        assert report.cost_after <= report.cost_before
        for p in report.passes:
            assert p.cost_after <= p.cost_before


def test_optimize_skips_verification_when_asked():
    c = Circuit(3).x(0)
    _, report = optimize(c, OptimizeConfig(verify=False))
    assert not report.equivalence_checked


def test_optimize_wide_circuit_with_one_gate():
    # windows are solved over their own control lines, so a width far beyond
    # the simulation limit costs nothing; it is just not simulated
    out, report = optimize(Circuit(20).cx(3, 17))
    assert out.gates == (mct([3], 17),)
    assert (report.cost_after, report.equivalence_checked) == (1, False)


def test_optimize_sparse_sixteen_lines_verified():
    c = sparse_circuit(random.Random(16), 16, gates=40, max_controls=3)
    out, report = optimize(c)
    assert report.equivalence_checked
    assert report.cost_after == circuit_cost(out) <= circuit_cost(c)
    assert simulate(out) == simulate(c)


def test_improvement_percent():
    assert improvement_percent(214, 136) == Fraction(7800, 214)
    assert improvement_percent_rounded(214, 136) == 36
    assert improvement_percent_rounded(7, 7) == 0
    assert improvement_percent_rounded(10, 7) == 30
    assert improvement_percent_rounded(195, 131) == 33
    assert improvement_percent_rounded(25, 20) == 20
    with pytest.raises(ValueError):
        improvement_percent(0, 0)


def test_optimizer_output_pinned():
    # Exact output on a fixed corpus. A change that moves these numbers
    # changes what the optimizer emits; update them only on purpose.
    rng = random.Random(1234)
    cost = gates = 0
    digest = hashlib.sha256()
    for _ in range(300):
        out, report = optimize(random_circuit(rng, max_width=6, max_gates=30))
        cost += report.cost_after
        gates += report.gates_after
        digest.update(write_circuit(out).encode())
    assert (cost, gates) == (25302, 2393)
    assert digest.hexdigest() == (
        "f8d56fc5fb82319a6f549770dc7cc816cd0d90475e1adb7694642788b4c1aea8"
    )
