import itertools
import random

import pytest

from revopt.core import Circuit, mct, simulate
from revopt.cost import circuit_cost
from revopt.rules import (
    apply_gpr,
    apply_rctr,
    apply_rewrite,
    cancel_not_pairs,
    pass_not,
    try_delete,
    try_move,
)
from oracles import all_gates, random_circuit


def test_try_delete():
    c = Circuit(2).x(0).x(0)
    r = try_delete(c, 0)
    assert r is not None and r.new_gates == ()
    assert apply_rewrite(c, r).gates == ()

    c = Circuit(3).mcx([0, (1, False)], 2).mcx([(1, False), 0], 2)
    assert try_delete(c, 0) is not None

    assert try_delete(Circuit(2).x(0).x(1), 0) is None
    with pytest.raises(IndexError):
        try_delete(Circuit(2).x(0), 0)


def test_try_move():
    c = Circuit(2).x(0).x(1)
    r = try_move(c, 0)
    assert r is not None
    assert apply_rewrite(c, r).gates == (mct([], 1), mct([], 0))

    assert try_move(Circuit(3).cx(0, 1).cx(1, 2), 0) is None


def test_pass_not_toggles_control():
    c = Circuit(3).x(0).mcx([0, 1], 2)
    r = pass_not(c, 0, "right")
    out = apply_rewrite(c, r)
    assert out.gates == (mct([(0, False), 1], 2), mct([], 0))
    assert simulate(out) == simulate(c)


def test_pass_not_over_target_and_free_line():
    c = Circuit(3).x(2).mcx([0, 1], 2)
    out = apply_rewrite(c, pass_not(c, 0, "right"))
    assert out.gates == (mct([0, 1], 2), mct([], 2))

    c = Circuit(4).x(3).mcx([0, 1], 2)
    out = apply_rewrite(c, pass_not(c, 0, "right"))
    assert out.gates == (mct([0, 1], 2), mct([], 3))


def test_pass_not_left():
    c = Circuit(3).mcx([0, 1], 2).x(0)
    r = pass_not(c, 1, "left")
    out = apply_rewrite(c, r)
    assert out.gates == (mct([], 0), mct([(0, False), 1], 2))
    assert simulate(out) == simulate(c)


def test_pass_not_roundtrip_restores():
    rng = random.Random(3)
    for _ in range(50):
        c = random_circuit(rng, max_width=5, max_gates=6)
        nots = [i for i, g in enumerate(c.gates[:-1]) if g.arity == 0]
        for i in nots:
            r = pass_not(c, i, "right")
            moved = apply_rewrite(c, r)
            back = apply_rewrite(moved, pass_not(moved, i + 1, "left"))
            assert back.gates == c.gates


def test_pass_not_not_applicable():
    c = Circuit(3).cx(0, 1).x(2)
    assert pass_not(c, 0, "right") is None
    with pytest.raises(IndexError):
        pass_not(c, 1, "right")
    with pytest.raises(IndexError):
        pass_not(c, 0, "left")


def test_cancel_not_pairs_sandwich():
    c = Circuit(3).x(0).mcx([0, 1], 2).x(0)
    out = cancel_not_pairs(c)
    assert out.gates == (mct([(0, False), 1], 2),)
    assert circuit_cost(c) == 7 and circuit_cost(out) == 5
    assert simulate(out) == simulate(c)


def test_cancel_not_pairs_odd_count():
    c = Circuit(2).x(0)
    assert cancel_not_pairs(c).gates == c.gates


def test_cancel_not_pairs_never_worse():
    rng = random.Random(4)
    for _ in range(200):
        c = random_circuit(rng, max_width=6, max_gates=12)
        out = cancel_not_pairs(c)
        assert circuit_cost(out) <= circuit_cost(c)
        assert simulate(out) == simulate(c)


def test_gpr_basic():
    c = Circuit(3).mcx([0, 1], 2).cx(0, 1)
    r = apply_gpr(c, 0)
    out = apply_rewrite(c, r)
    assert out.gates == (mct([0], 1), mct([0, (1, False)], 2))
    assert simulate(out) == simulate(c)


def test_gpr_reverse_order():
    c = Circuit(3).cx(0, 1).mcx([0, 1], 2)
    out = apply_rewrite(c, apply_gpr(c, 0))
    assert out.gates == (mct([0, (1, False)], 2), mct([0], 1))
    assert simulate(out) == simulate(c)


def test_gpr_other_target_orientation():
    # the smaller gate may target any control line of the bigger gate; this
    # orientation was validated by exhaustive simulation before enabling
    c = Circuit(3).mcx([0, 1], 2).cx(1, 0)
    r = apply_gpr(c, 0)
    assert r is not None
    assert simulate(apply_rewrite(c, r)) == simulate(c)


def test_gpr_rejects_mismatched_shapes():
    # control sets don't nest as required
    c = Circuit(4).mcx([0, 1], 2).cx(3, 1)
    assert apply_gpr(c, 0) is None
    # shared control polarities disagree
    c = Circuit(3).mcx([(0, False), 1], 2).cx(0, 1)
    assert apply_gpr(c, 0) is None


def test_gpr_sound_for_all_enabled_combinations():
    gates = all_gates(3)
    for g1, g2 in itertools.product(gates, gates):
        c = Circuit(3, (g1, g2))
        r = apply_gpr(c, 0)
        if r is not None:
            assert simulate(apply_rewrite(c, r)) == simulate(c)
    # every (toggled-control polarity x order) combination is enabled
    for shared, toggled, big_first in itertools.product([True, False], repeat=3):
        big = mct([(0, shared), (1, toggled)], 2)
        small = mct([(0, shared)], 1)
        c = Circuit(3, (big, small) if big_first else (small, big))
        assert apply_gpr(c, 0) is not None, (shared, toggled, big_first)


def test_rctr_opposite_pair_becomes_not():
    c = Circuit(2).cx(0, 1).cx((0, False), 1)
    r = apply_rctr(c, 0)
    out = apply_rewrite(c, r)
    assert out.gates == (mct([], 1),)
    assert circuit_cost(c) == 4 and circuit_cost(out) == 1
    assert simulate(out) == simulate(c)


def test_rctr_negative_cnot_plus_not():
    c = Circuit(2).cx((0, False), 1).x(1)
    out = apply_rewrite(c, apply_rctr(c, 0))
    assert out.gates == (mct([0], 1),)
    assert circuit_cost(c) == 4 and circuit_cost(out) == 1
    assert simulate(out) == simulate(c)


def test_rctr_single_negative_cnot():
    c = Circuit(2).cx((0, False), 1)
    r = apply_rctr(c, 0)
    out = apply_rewrite(c, r)
    assert out.gates == (mct([0], 1), mct([], 1))
    assert circuit_cost(c) == 3 and circuit_cost(out) == 2
    assert simulate(out) == simulate(c)


def test_rctr_not_applicable():
    assert apply_rctr(Circuit(2).cx(0, 1), 0) is None
    assert apply_rctr(Circuit(3).mcx([0, 1], 2), 0) is None


def test_all_rules_sound_exhaustively_small():
    # every rule application preserves the permutation, for every gate pair
    for n in (2, 3):
        gates = all_gates(n)
        for g1, g2 in itertools.product(gates, gates):
            c = Circuit(n, (g1, g2))
            base = simulate(c)
            for rule in (try_delete, try_move, apply_gpr, apply_rctr):
                r = rule(c, 0)
                if r is not None:
                    assert simulate(apply_rewrite(c, r)) == base, (rule, g1, g2)
            if g1.arity == 0:
                assert simulate(apply_rewrite(c, pass_not(c, 0, "right"))) == base
            if g2.arity == 0:
                assert simulate(apply_rewrite(c, pass_not(c, 1, "left"))) == base
