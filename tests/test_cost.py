import itertools

import pytest

from revopt.core import Circuit, mct
from revopt.cost import circuit_cost, gate_cost


def test_not_and_cnot():
    assert gate_cost(mct([], 0), 1) == 1
    assert gate_cost(mct([0], 1), 2) == 1
    assert gate_cost(mct([(0, False)], 1), 2) == 3


def test_toffoli():
    assert gate_cost(mct([0, (1, False)], 2), 3) == 5
    assert gate_cost(mct([0, 1], 2), 5) == 5
    assert gate_cost(mct([(0, False), (1, False)], 2), 4) == 6
    # small-gate row beats the maximal-gate row at n=3
    assert gate_cost(mct([(0, False), (1, False)], 2), 3) == 6


def test_linear_band():
    # 12m - 22 for 3 <= m <= ceil(n/2), +2 when all controls are negative
    assert gate_cost(mct([0, 1, (2, False), 3], 8), 9) == 12 * 4 - 22
    assert gate_cost(mct([(0, False), (1, False), (2, False)], 3), 6) == 12 * 3 - 22 + 2
    assert gate_cost(mct([0, 1, 2], 3), 6) == 14


def test_wide_band():
    # 24m - 40 for ceil(n/2) < m <= n-2; at m = n-2 this equals 24n - 88
    g = mct(list(range(5)), 5)
    assert gate_cost(g, 7) == 24 * 7 - 88 == 24 * 5 - 40 == 80
    g_neg = mct([(x, False) for x in range(5)], 5)
    assert gate_cost(g_neg, 7) == 80 + 4
    assert gate_cost(mct([0, 1, 2, 3], 4), 6) == 24 * 4 - 40


def test_maximal_band():
    g = mct(list(range(7)), 7)
    assert gate_cost(g, 8) == 2**8 - 3 == 253
    g_mixed = mct([(0, False)] + list(range(1, 7)), 7)
    assert gate_cost(g_mixed, 8) == 253
    g_neg = mct([(x, False) for x in range(7)], 7)
    assert gate_cost(g_neg, 8) == 255


def test_invalid_gates():
    with pytest.raises(ValueError):
        gate_cost(mct([0, 1], 2), 2)  # m >= n
    with pytest.raises(ValueError):
        gate_cost(mct([5], 0), 3)  # control outside width


def test_control_permutation_invariance():
    for pols in itertools.product([True, False], repeat=3):
        a = mct(list(zip([0, 1, 2], pols)), 3)
        b = mct(list(zip([2, 0, 1], [pols[2], pols[0], pols[1]])), 3)
        assert gate_cost(a, 6) == gate_cost(b, 6)


def test_polarity_monotonicity():
    # all-negative >= mixed >= all-positive at every (m, n)
    for n in range(3, 10):
        for m in range(1, n):
            allpos = mct(list(range(m)), n - 1)
            mixed = mct([(0, False)] + list(range(1, m)), n - 1)
            allneg = mct([(x, False) for x in range(m)], n - 1)
            assert gate_cost(allneg, n) >= gate_cost(mixed, n) >= gate_cost(allpos, n)


def test_circuit_cost():
    assert circuit_cost(Circuit(3)) == 0
    ex1 = Circuit(3).mcx([0, (1, False)], 2).mcx([(0, False), 1], 2)
    assert circuit_cost(ex1) == 10
    opt = Circuit(3).cx(0, 2).cx(1, 2)
    assert circuit_cost(opt) == 2


def test_removing_a_control_never_raises_cost():
    # controls on lines 0..m-1, the first k negative, target on line n-1;
    # cost does not depend on which lines carry which polarity (see
    # test_control_permutation_invariance), so this covers every mix
    for n in range(1, 17):
        for m in range(1, n):
            for k in range(m + 1):
                polarities = [False] * k + [True] * (m - k)
                g = mct(list(zip(range(m), polarities)), n - 1)
                for drop in {polarities.index(p) for p in (False, True) if p in polarities}:
                    rest = polarities[:drop] + polarities[drop + 1:]
                    smaller = mct(list(zip(range(m - 1), rest)), n - 1)
                    assert gate_cost(smaller, n) <= gate_cost(g, n), (n, m, k, drop)
