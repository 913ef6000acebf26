import itertools
import random

from revopt.core import Circuit, commutes, mct, simulate
from revopt.cost import circuit_cost
from revopt.ctr import MOVE_LOOKAHEAD
from revopt.rules import (
    apply_gpr,
    apply_rctr,
    apply_rewrite,
    cancel_not_pairs,
    delete_sweep,
    gpr_sweep,
    not_cancel_sweep,
)
from oracles import all_gates, gpr_sweep_by_candidates, random_circuit


def test_try_delete():
    c = Circuit(2).x(0).x(0)
    assert delete_sweep(c, 0).gates == ()

    c = Circuit(3).mcx([0, (1, False)], 2).mcx([(1, False), 0], 2)
    assert delete_sweep(c, 0).gates == ()

    c = Circuit(2).x(0).x(1)
    assert delete_sweep(c, 0) is c  # nothing cancelled: the input itself
    assert delete_sweep(c, MOVE_LOOKAHEAD) is c


def test_try_move():
    g1, g2 = mct([], 0), mct([], 1)
    assert commutes(g1, g2)
    assert simulate(Circuit(2, (g2, g1))) == simulate(Circuit(2, (g1, g2)))

    assert not commutes(mct([0], 1), mct([1], 2))


def test_pass_not_toggles_control():
    # the NOT turns a negative control positive on its way right: 3+1 -> 1+1
    c = Circuit(2).x(0).cx((0, False), 1)
    out = cancel_not_pairs(c, "right")
    assert out.gates == (mct([0], 1), mct([], 0))
    assert circuit_cost(c) == 4 and circuit_cost(out) == 2
    assert simulate(out) == simulate(c)


def test_pass_not_over_target_and_free_line():
    # a NOT on the target or on a line the gate does not read passes it
    # untouched and meets its twin
    c = Circuit(3).x(2).mcx([0, 1], 2).x(2)
    assert cancel_not_pairs(c, "right").gates == (mct([0, 1], 2),)

    c = Circuit(4).x(3).mcx([0, 1], 2).x(3)
    assert cancel_not_pairs(c, "right").gates == (mct([0, 1], 2),)


def test_pass_not_left():
    # routed left, the NOT makes an all-negative Toffoli mixed: 6+1 -> 1+5
    c = Circuit(3).mcx([(0, False), (1, False)], 2).x(0)
    out = cancel_not_pairs(c, "left")
    assert out.gates == (mct([], 0), mct([0, (1, False)], 2))
    assert circuit_cost(c) == 7 and circuit_cost(out) == 6
    assert simulate(out) == simulate(c)


def test_pass_not_not_applicable():
    # only NOTs move: a circuit whose NOTs already sit at the right end is
    # left as it is
    c = Circuit(3).cx(0, 1).x(2)
    assert cancel_not_pairs(c, "right") is c
    # a routing that changes neither cost nor gate count returns its input
    c = Circuit(3).x(0).mcx([0, 1], 2)
    assert cancel_not_pairs(c, "right") is c


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
    # either the input comes back, or the routing lowers (cost, gate count)
    rng = random.Random(4)
    routed = 0
    for _ in range(200):
        c = random_circuit(rng, max_width=6, max_gates=12)
        for direction in ("right", "left"):
            out = cancel_not_pairs(c, direction)
            if out is not c:
                assert (circuit_cost(out), len(out.gates)) < (circuit_cost(c), len(c.gates))
                routed += 1
            assert simulate(out) == simulate(c)
    assert routed > 50


def test_not_cancel_sweep_tries_left_when_right_does_nothing():
    c = Circuit(3).mcx([(0, False), (1, False)], 2).x(0)
    assert not_cancel_sweep(c) == cancel_not_pairs(c, "left") != c
    c = Circuit(2).x(0).cx((0, False), 1)
    assert not_cancel_sweep(c) == cancel_not_pairs(c, "right") != c
    c = Circuit(3).x(0).mcx([0, 1], 2)
    assert not_cancel_sweep(c) is c


def test_gpr_sweep_matches_candidate_reference():
    # the sweep judges each swap on its neighbourhood; the reference builds
    # and prices the whole candidate circuit, swaps at both ends included
    rng = random.Random(11)
    kept_at = {"first": 0, "last": 0}
    for _ in range(3000):
        c = random_circuit(rng, max_width=5, max_gates=8)
        want, kept = gpr_sweep_by_candidates(c)
        out = gpr_sweep(c)
        assert out == want
        assert (out is c) == (not kept)
        kept_at["first"] += 0 in kept
        kept_at["last"] += len(c.gates) - 2 in kept
    assert min(kept_at.values()) > 20, kept_at


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
            if commutes(g1, g2):
                assert simulate(Circuit(n, (g2, g1))) == base, (g1, g2)
            for rule in (apply_gpr, apply_rctr):
                r = rule(c, 0)
                if r is not None:
                    assert simulate(apply_rewrite(c, r)) == base, (rule, g1, g2)
            assert simulate(delete_sweep(c, MOVE_LOOKAHEAD)) == base
            for direction in ("right", "left"):
                assert simulate(cancel_not_pairs(c, direction)) == base, (direction, g1, g2)


def test_sliding_deletion():
    # g, h, g cancels to h exactly when g slides over h (the moving rule)
    gates = all_gates(3)
    for g, h in itertools.product(gates, gates):
        c = Circuit(3, (g, h, g))
        out = delete_sweep(c, MOVE_LOOKAHEAD)
        assert (out.gates == (h,)) == commutes(g, h), (g, h)
        assert (out is c) == (len(out.gates) == 3), (g, h)
        assert simulate(out) == simulate(c), (g, h)
