import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revopt.core import (
    MAX_SIM_WIDTH,
    Circuit,
    Gate,
    WidthLimitError,
    WidthMismatchError,
    apply_gate,
    commutes,
    equivalent,
    gate_fires,
    matches_spec,
    mct,
    simulate,
)
from oracles import all_gates, naive_simulate, random_circuit, sparse_circuit


def test_gate_validation():
    with pytest.raises(ValueError):
        mct([0], 0)  # target among controls
    with pytest.raises(ValueError):
        Gate(0b1, 0b1, 1)  # line 0 both a positive and a negative control
    with pytest.raises(ValueError):
        Circuit(2).mcx([0, 1], 2)  # line out of range
    # negative line indices
    with pytest.raises(ValueError):
        Circuit(2, (mct([], -1),))
    with pytest.raises(ValueError):
        Circuit(3, (mct([-1], 0),))
    with pytest.raises(ValueError):
        Gate(0, 0, -1)


def test_gate_fires():
    assert gate_fires(mct([], 0), 0b101, 3)  # NOT always fires
    g = mct([0, (1, False)], 2)
    assert gate_fires(g, 0b100, 3)
    assert not gate_fires(g, 0b110, 3)  # b=1 violates negative control
    assert not gate_fires(g, 0b000, 3)


def test_apply_gate():
    assert apply_gate(mct([], 0), 0, 1) == 1
    assert apply_gate(mct([0, 1], 2), 0b110, 3) == 0b111
    assert apply_gate(mct([0, 1], 2), 0b010, 3) == 0b010


def test_apply_gate_involution():
    rng = random.Random(1)
    for _ in range(50):
        c = random_circuit(rng, max_width=5, max_gates=1)
        for g in c.gates:
            for s in range(1 << c.width):
                assert apply_gate(g, apply_gate(g, s, c.width), c.width) == s


def test_simulate_examples():
    assert simulate(Circuit(2)) == (0, 1, 2, 3)
    assert simulate(Circuit(2).cx(0, 1)) == (0, 1, 3, 2)
    assert simulate(Circuit(3).x(0)) == (4, 5, 6, 7, 0, 1, 2, 3)


def test_simulate_matches_naive_oracle():
    rng = random.Random(2)
    for _ in range(30):
        c = random_circuit(rng, max_width=6, max_gates=15)
        assert simulate(c) == naive_simulate(c)
    # every width up to the limit (below 3 lines a bit plane is less than a
    # byte); wide circuits are sparse to keep the oracle quick
    for n in range(1, MAX_SIM_WIDTH + 1):
        for _ in range(4 if n <= 8 else 1):
            c = sparse_circuit(rng, n, gates=12 if n <= 8 else 5, max_controls=n - 1 if n <= 8 else 3)
            assert simulate(c) == naive_simulate(c), c


def test_equivalent_and_spec_at_the_width_limit():
    n = MAX_SIM_WIDTH
    c = sparse_circuit(random.Random(3), n, gates=5, max_controls=3)
    perm = naive_simulate(c)
    assert matches_spec(c, perm)
    assert equivalent(c, c.with_gates(c.gates + (mct([0], 9), mct([0], 9))))
    flipped = c.append(mct([(0, False), 4, 11], n - 1))
    assert not equivalent(c, flipped)
    assert not matches_spec(flipped, perm)


def test_simulate_width_limit():
    with pytest.raises(WidthLimitError):
        simulate(Circuit(17))


def test_equivalent():
    c = Circuit(3).mcx([0, 1], 2)
    assert equivalent(c, c)
    assert equivalent(Circuit(2).x(0).x(0), Circuit(2))
    # the generalized-pass instance, checked by exhaustive simulation
    c1 = Circuit(3).mcx([0, 1], 2).cx(0, 1)
    c2 = Circuit(3).cx(0, 1).mcx([0, (1, False)], 2)
    assert equivalent(c1, c2)
    with pytest.raises(WidthMismatchError):
        equivalent(Circuit(2), Circuit(3))


def test_matches_spec():
    assert matches_spec(Circuit(2), (0, 1, 2, 3))
    assert matches_spec(Circuit(2).cx(0, 1), (0, 1, 3, 2))
    assert not matches_spec(Circuit(3).x(2), (1, 0, 3, 2, 5, 7, 4, 6))
    with pytest.raises(WidthMismatchError):
        matches_spec(Circuit(2), (0, 1))


def test_commutes():
    assert commutes(mct([], 0), mct([], 1))
    assert not commutes(mct([0], 1), mct([1], 2))
    # shared controls and shared target are both fine
    assert commutes(mct([0, 1], 2), mct([(0, False), 1], 2))


def test_commutes_implies_swap_equivalence():
    for n in (2, 3):
        gates = all_gates(n)
        for g1, g2 in itertools.product(gates, gates):
            if commutes(g1, g2):
                a = Circuit(n, (g1, g2))
                b = Circuit(n, (g2, g1))
                assert simulate(a) == simulate(b)


def test_same_function():
    assert mct([0, (1, False)], 2) == mct([(1, False), 0], 2)
    assert mct([0], 1) != mct([(0, False)], 1)
    assert mct([], 0) != mct([], 1)


def test_circuit_names_given_as_a_list_are_a_tuple():
    gates = (mct([0], 1),)
    listed = Circuit(2, gates, ["a", "b"])
    assert listed.names == ("a", "b")
    assert listed == Circuit(2, gates, ("a", "b"))
    assert hash(listed) == hash(Circuit(2, gates, ("a", "b")))
    assert listed.with_gates(()).names == ("a", "b")


@st.composite
def circuits(draw, max_width=5, max_gates=12):
    n = draw(st.integers(1, max_width))
    k = draw(st.integers(0, max_gates))
    gates = []
    for _ in range(k):
        t = draw(st.integers(0, n - 1))
        others = [x for x in range(n) if x != t]
        ctrls = [
            (x, draw(st.booleans()))
            for x in others
            if draw(st.booleans())
        ]
        gates.append(mct(ctrls, t))
    return Circuit(n, tuple(gates))


@given(circuits())
@settings(max_examples=60, deadline=None)
def test_simulate_is_bijection(c):
    p = simulate(c)
    assert sorted(p) == list(range(1 << c.width))


@given(circuits())
@settings(max_examples=60, deadline=None)
def test_reversed_circuit_inverts(c):
    p = simulate(c)
    q = simulate(c.with_gates(tuple(reversed(c.gates))))
    assert all(q[p[i]] == i for i in range(len(p)))


@given(circuits(max_gates=6), circuits(max_gates=6))
@settings(max_examples=60, deadline=None)
def test_concatenation_composes(c1, c2):
    c2 = Circuit(c1.width, tuple(g for g in c2.gates if _fits(g, c1.width)))
    both = c1.with_gates(c1.gates + c2.gates)
    p1, p2 = simulate(c1), simulate(c2)
    assert simulate(both) == tuple(p2[p1[i]] for i in range(len(p1)))


def _fits(g, n):
    return g.target < n and g.controls >> n == 0
