"""Quantum-cost model for mixed-polarity multiple-control Toffoli gates.

Cost = number of elementary gates (NOT, CNOT, controlled-V/V+) needed to
realize a gate without auxiliary lines. The table, for a gate with m controls
in a circuit of width n (first matching row wins):

    m = 0                      1
    m = 1                      1  (positive)        3  (negative)
    m = 2                      5  (>=1 positive)    6  (all negative)
    m = n-1                    2^n - 3              +2 if all negative
    3 <= m <= ceil(n/2)        12m - 22             +2 if all negative
    ceil(n/2) < m <= n-2       24m - 40             +4 if all negative

The last band is stated in the literature only at m = n-2 (as 24n - 88,
n >= 7); 24m - 40 is the same expression in m, extended over the whole band.
The small-gate rows always win: an all-negative Toffoli on a 3-line circuit
costs 6, not 2^3 - 3 + 2.
"""
from __future__ import annotations

import math

from .core import Circuit, Gate

#: Per-band constants, exposed for documentation and tests.
NOT_COST = 1
CNOT_POSITIVE_COST = 1
CNOT_NEGATIVE_COST = 3
TOFFOLI_COST = 5
TOFFOLI_ALL_NEGATIVE_COST = 6
LINEAR_BAND_ALL_NEGATIVE_SURCHARGE = 2
WIDE_BAND_ALL_NEGATIVE_SURCHARGE = 4
MAXIMAL_ALL_NEGATIVE_SURCHARGE = 2


def mct_cost(m: int, all_negative: bool, n: int) -> int:
    """Elementary-gate count for a gate with m controls in a circuit of width
    n; all_negative says whether every control is negative (moot at m = 0)."""
    if m == 0:
        return NOT_COST
    if m == 1:
        return CNOT_NEGATIVE_COST if all_negative else CNOT_POSITIVE_COST
    if m == 2:
        return TOFFOLI_ALL_NEGATIVE_COST if all_negative else TOFFOLI_COST
    if m == n - 1:
        return (1 << n) - 3 + (MAXIMAL_ALL_NEGATIVE_SURCHARGE if all_negative else 0)
    if m <= math.ceil(n / 2):
        return 12 * m - 22 + (LINEAR_BAND_ALL_NEGATIVE_SURCHARGE if all_negative else 0)
    # ceil(n/2) < m <= n-2
    return 24 * m - 40 + (WIDE_BAND_ALL_NEGATIVE_SURCHARGE if all_negative else 0)


def gate_cost(g: Gate, n: int) -> int:
    """Elementary-gate count for one gate in a circuit of width n."""
    if (g.controls | 1 << g.target) >> n:
        raise ValueError(f"gate {g} references a line outside width {n}")
    return mct_cost(g.arity, g.pos == 0, n)


def circuit_cost(c: Circuit) -> int:
    """Sum of gate costs; 0 for an empty circuit."""
    return sum(gate_cost(g, c.width) for g in c.gates)
