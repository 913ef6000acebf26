"""Independent oracles used by the test suite.

Everything here is deliberately written from scratch against the gate
semantics (bit lists, no masks) and must not reuse the search code it checks.
"""
from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

from revopt.core import Circuit, Gate, commutes, mct
from revopt.cost import circuit_cost, gate_cost
from revopt.ctr import MOVE_LOOKAHEAD, Cube
from revopt.rules import apply_gpr, apply_rewrite


def naive_apply_gate(g: Gate, bits: list[int]) -> list[int]:
    """Gate semantics on an explicit bit list (index 0 = line 0 = MSB)."""
    for line, bit in enumerate(bits):
        if (g.pos >> line & 1 and bit != 1) or (g.neg >> line & 1 and bit != 0):
            return bits
    out = list(bits)
    out[g.target] ^= 1
    return out


def naive_simulate(c: Circuit) -> tuple[int, ...]:
    n = c.width
    result = []
    for state in range(1 << n):
        bits = [(state >> (n - 1 - i)) & 1 for i in range(n)]
        for g in c.gates:
            bits = naive_apply_gate(g, bits)
        result.append(sum(b << (n - 1 - i) for i, b in enumerate(bits)))
    return tuple(result)


# ---------------------------------------------------------------------------
# exclusive-cover cost oracles


def oracle_cubes(v: int) -> list[tuple[tuple, int, int]]:
    """All cubes over v variables as (spec, cell mask, gate cost).

    spec is a tuple of per-variable values: 1 (fixed one), 0 (fixed zero),
    None (free). Masks are built cell by cell; costs via gate_cost on a
    synthetic gate of width v+1 (target on line 0, controls on 1..v).
    """
    specs = [()]
    for _ in range(v):
        specs = [s + (val,) for s in specs for val in (None, 0, 1)]
    out = []
    for spec in specs:
        mask = 0
        for cell in range(1 << v):
            ok = True
            for j, val in enumerate(spec):
                bit = (cell >> (v - 1 - j)) & 1
                if val is not None and bit != val:
                    ok = False
                    break
            if ok:
                mask |= 1 << cell
        controls = [(j + 1, bool(val)) for j, val in enumerate(spec) if val is not None]
        cost = gate_cost(mct(controls, 0), v + 1)
        out.append((spec, mask, cost))
    return out


def oracle_min_cost_by_enumeration(v: int, target: int, max_cubes: int) -> int:
    """Minimum realization cost by literal subset enumeration (small v only).

    Tries every subset of distinct cubes up to max_cubes, for both the direct
    map and the complemented map plus a trailing NOT (which uses up one slot
    of the bound).
    """
    cubes = oracle_cubes(v)
    full = (1 << (1 << v)) - 1

    def best_direct(goal: int, bound: int) -> int | None:
        best = None
        for r in range(bound + 1):
            for combo in combinations(cubes, r):
                acc = 0
                for _, mask, _ in combo:
                    acc ^= mask
                if acc == goal:
                    cost = sum(c for _, _, c in combo)
                    if best is None or cost < best:
                        best = cost
        return best

    candidates = []
    d = best_direct(target, max_cubes)
    if d is not None:
        candidates.append(d)
    inv = best_direct(target ^ full, max_cubes - 1)
    if inv is not None:
        candidates.append(inv + 1)
    assert candidates, "oracle bound too small to realize the map"
    return min(candidates)


@lru_cache(maxsize=None)
def _layered_tables(v: int, max_cubes: int) -> tuple[dict, dict]:
    """Min cost per residual map, by breadth-first layers of cube count.

    Returns (best within max_cubes cubes, best within max_cubes - 1 cubes);
    the second bound serves inverted covers, whose trailing NOT uses a slot.
    """
    cubes = oracle_cubes(v)
    best: dict[int, int] = {0: 0}
    best_minus1: dict[int, int] = {0: 0}
    frontier = {0: 0}
    for layer in range(1, max_cubes + 1):
        nxt: dict[int, int] = {}
        for mask, cost in frontier.items():
            for _, cm, cc in cubes:
                m2, c2 = mask ^ cm, cost + cc
                if c2 < nxt.get(m2, 1 << 30):
                    nxt[m2] = c2
        for m2, c2 in nxt.items():
            if c2 < best.get(m2, 1 << 30):
                best[m2] = c2
            if layer < max_cubes and c2 < best_minus1.get(m2, 1 << 30):
                best_minus1[m2] = c2
        frontier = nxt
    return best, best_minus1


def oracle_min_cost_layered(v: int, target: int, max_cubes: int) -> int:
    """Same minimum as the subset enumeration, still independent of the
    package's relaxation-table search; tractable for v = 3."""
    best, best_minus1 = _layered_tables(v, max_cubes)
    full = (1 << (1 << v)) - 1
    candidates = []
    if target in best:
        candidates.append(best[target])
    if (target ^ full) in best_minus1:
        candidates.append(best_minus1[target ^ full] + 1)
    assert candidates, "oracle bound too small to realize the map"
    return min(candidates)


# ---------------------------------------------------------------------------
# random inputs


def random_circuit(rng: random.Random, max_width: int = 8, max_gates: int = 40) -> Circuit:
    n = rng.randint(1, max_width)
    gates = []
    for _ in range(rng.randint(0, max_gates)):
        t = rng.randrange(n)
        others = [x for x in range(n) if x != t]
        m = rng.randint(0, len(others))
        gates.append(mct([(x, rng.random() < 0.5) for x in rng.sample(others, m)], t))
    return Circuit(n, tuple(gates))


def sparse_circuit(rng: random.Random, n: int, gates: int, max_controls: int) -> Circuit:
    """`gates` gates on exactly n lines, each with at most max_controls controls."""
    out = []
    for _ in range(gates):
        t = rng.randrange(n)
        others = [x for x in range(n) if x != t]
        m = rng.randint(0, min(max_controls, len(others)))
        out.append(mct([(x, rng.random() < 0.5) for x in rng.sample(others, m)], t))
    return Circuit(n, tuple(out))


def all_gates(n: int) -> list[Gate]:
    """Every gate shape over n lines: each non-target line absent, positive,
    or negative."""
    out = []
    for t in range(n):
        others = [x for x in range(n) if x != t]
        choices = [()]
        for line in others:
            choices = [
                c + (tag,) for c in choices for tag in (None, (line, True), (line, False))
            ]
        for combo in choices:
            out.append(mct([c for c in combo if c is not None], t))
    return out


def cube_from_cells(v: int, m: int) -> Cube | None:
    """The cube covering exactly the cells of m in a v-variable map, or None,
    by walking every set cell of m: the cells must all agree with the lowest
    one outside the variables on which any of them differs from it, and
    there must be 2^(number of such variables) of them."""
    if m == 0:
        return None
    cells = [cell for cell in range(1 << v) if m >> cell & 1]
    base = cells[0]
    span = 0
    for cell in cells:
        span |= cell ^ base
    if len(cells) != 1 << bin(span).count("1"):
        return None
    care = ((1 << v) - 1) & ~span
    return Cube(care, base & care)


def gpr_sweep_by_candidates(c: Circuit) -> tuple[Circuit, list[int]]:
    """The generalized-pass sweep decided on whole candidate circuits: each
    matched swap (from the matcher under test) is applied and kept when the
    candidate costs less, or has more adjacent same-target pairs among the
    gates at i-1 .. i+2. Returns the result and the positions of kept swaps."""
    def pairs(x: Circuit, i: int) -> int:
        return sum(1 for j in (i - 1, i, i + 1)
                   if 0 <= j < len(x.gates) - 1 and x.gates[j].target == x.gates[j + 1].target)

    kept = []
    for i in range(len(c.gates) - 1):
        r = apply_gpr(c, i)
        if r is None:
            continue
        candidate = apply_rewrite(c, r)
        if circuit_cost(candidate) < circuit_cost(c) or pairs(candidate, i) > pairs(c, i):
            c = candidate
            kept.append(i)
    return c, kept


def cluster_by_pairwise_commutes(c: Circuit) -> tuple[tuple[Gate, ...], list[tuple[Gate, ...]]]:
    """Same-target clustering by testing each candidate against every gate it
    would slide over: a gate on the run's target up to MOVE_LOOKAHEAD gates
    past the run joins it when it commutes with all of them. Returns the
    rearranged gates and the runs, left to right."""
    gates = list(c.gates)
    runs = []
    i = 0
    while i < len(gates):
        t = gates[i].target
        end = i + 1
        j = end
        while j < len(gates) and j - end <= MOVE_LOOKAHEAD:
            g = gates[j]
            if g.target == t and all(commutes(gates[k], g) for k in range(end, j)):
                del gates[j]
                gates.insert(end, g)
                end += 1
            j += 1
        runs.append(tuple(gates[i:end]))
        i = end
    return tuple(gates), runs
