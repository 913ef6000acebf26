"""Common-target optimization.

A maximal run of gates sharing a target line realizes, on that target, the
XOR of its gates' control functions. That function depends only on the
window's support -- the union of its gates' control lines, v of them -- and
over those lines it is a Karnaugh map whose 1-cells mark assignments flipping
the target an odd number of times. Re-synthesis picks a set of cubes
(subcubes of the map) whose XOR equals the map -- optionally the complemented
map plus a trailing NOT -- and emits one Toffoli gate per cube, keeping the
result only when it is strictly cheaper. Cubes are priced as gates of the
whole width-n circuit. A window without controls is a NOT parity.

Restricting the map to the support loses nothing: setting an out-of-support
line to 0 in any cover drops the cubes with its positive literal and removes
its negative literals, and removing a control never raises a gate's cost. So
an optimal cover over all n-1 other lines never uses a line outside the
support.

Cover rules: every 1-cell is covered an odd number of times, every 0-cell an
even number of times, cube sizes are powers of two. The search minimizes the
emitted quantum cost, tie-broken by fewer cubes, then fewer control literals.

Exact minimization (v <= 4) runs a shortest-path relaxation over residual
maps: state = remaining cell-parity vector, edges = XOR-ing in one of the 3^v
cubes, edge weight = the cube's gate cost. Viewing the 2^(2^v) table as an
array with one axis of length 2 per cell, XOR-ing a cube's cell mask into the
index reverses that cube's axes, so one edge relaxes the whole table as
`min(table, flipped table + weight)`; rounds repeat until nothing changes.
The exact path solves the map alone, never its complement: the all-free
cube is an edge of every table and is a NOT on the target, priced exactly as
the complement's trailing NOT, so dist[m] <= dist[m ^ full] + weight(NOT).
A table depends on n only through the costs of its cubes, and the cost table
is not monotone in n (a 4-control gate costs 29 at n = 5, 56 at n = 6 and 26
from n = 7 on), so tables are keyed by that cost profile: seven tables serve
every width. Each keeps its (up to 2^16) distances as an `array('q')`: 8
bytes an entry, where a list of Python ints takes 40.

Larger maps use greedy peeling of the highest uncovered cell plus pairwise
cube merging. The peel candidates are the cubes whose highest cell is that
cell (free variables drawn from its 1-bits); each is ranked on its cell mask
and cost alone, by integer arithmetic, and only the winner becomes a Cube.
Two cubes merge when their XOR is one cube, which their (care, value) masks
decide without building cells.

A window's decision -- its kept replacement, or none -- depends only on the
circuit width n and the window's gates, so `ctr_optimize` records it in a
memo keyed by (n, window gates). The caller owns the memo: `optimize` makes
one per call and drops it on return, so the fixpoint's later iterations,
which meet mostly unchanged windows, solve each window once.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .core import Circuit, Gate, mask_lines, mct
from .cost import gate_cost, mct_cost

_WEIGHT_CUBE = 1 << 12   # cube-count tie-break field
_WEIGHT_COST = 1 << 24   # cost field (dominant)
_EXACT_HARD_CAP = 4      # 2^(2^v) residual-map table is infeasible past this

#: How many gates past the end of a same-target run the moving rule looks for
#: another gate on that target (also the reach of the pipeline's delete sweep).
MOVE_LOOKAHEAD = 16


@dataclass(frozen=True)
class Window:
    """A contiguous run of same-target gates inside a (rearranged) circuit."""

    target: int
    width: int                       # n, the circuit's line count
    var_order: tuple[int, ...]       # support: the gates' control lines, index order
    gates: tuple[Gate, ...]


@dataclass(frozen=True)
class Kmap:
    """Parity function over the 2^vars control-space cells.

    cells is a bitmask: bit i = value of cell i, where cell indices assign
    var_order[0] the most significant bit (variable j is cell bit vars-1-j).
    width is the line count n of the circuit whose gates the cubes become;
    it defaults to vars + 1, a map over every line but the target.
    """

    vars: int
    cells: int
    width: int = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.vars < 0:
            raise ValueError(f"a map needs vars >= 0, got {self.vars}")
        if self.cells < 0 or self.cells.bit_length() > 1 << self.vars:
            raise ValueError(f"cells out of range for a {self.vars}-variable map")
        if self.width is None:
            object.__setattr__(self, "width", self.vars + 1)
        if self.width <= self.vars:
            raise ValueError(f"a {self.vars}-variable map needs width > {self.vars}")


@dataclass(frozen=True)
class Cube:
    """A subcube of the map: the variables set in `care` are pinned to their
    bits in `value`, the rest are free.

    Both masks use the cell convention of Kmap (variable j is bit v-1-j);
    value has no bits outside care. Covers 2^(v-|care|) cells.
    """

    care: int
    value: int

    def mask(self, v: int) -> int:
        """Bitmask of covered cells in a v-variable map."""
        m = 1 << self.value
        free = ((1 << v) - 1) ^ self.care
        while free:
            low = free & -free
            m |= m << low
            free ^= low
        return m


@dataclass(frozen=True)
class Cover:
    """Cubes whose XOR (complemented when inverted) equals a map; the
    inverted flag costs one trailing NOT on the target."""

    cubes: tuple[Cube, ...]
    inverted: bool = False


def cube_cost(cube: Cube, n: int) -> int:
    """Quantum cost of the gate this cube emits in a width-n circuit."""
    return mct_cost(cube.care.bit_count(), cube.value == 0, n)


def cover_cost(cv: Cover, v: int) -> int:
    """Total emitted quantum cost of a cover of a v-variable map in a width
    v+1 circuit, including the trailing NOT when inverted."""
    return sum(cube_cost(q, v + 1) for q in cv.cubes) + (1 if cv.inverted else 0)


# ---------------------------------------------------------------------------
# window extraction


def cluster_common_targets(c: Circuit) -> tuple[Circuit, list[Window]]:
    """Rearrange the circuit (moving rule only) to maximize same-target runs.

    Returns the equivalent rearranged circuit -- c itself when no gate
    moved -- and its complete left-to-right partition into same-target
    windows (length-1 windows included).

    A gate on the run's target t moves back to the run when it commutes with
    every gate it would slide over: none of their targets is its control (a
    running mask of the skipped targets), and none of them has t as a
    control. The first skipped gate controlled by t blocks every later move,
    so the scan stops there.
    """
    gates = list(c.gates)
    moved = False
    i = 0
    windows: list[Window] = []
    while i < len(gates):
        t = gates[i].target
        end = i + 1
        j = end
        skipped = 0  # targets of the gates between the run and j
        while j < len(gates) and j - end <= MOVE_LOOKAHEAD:
            g = gates[j]
            if g.target == t and not g.controls & skipped:
                del gates[j]
                gates.insert(end, g)
                moved |= j != end
                end += 1
            elif g.controls >> t & 1:
                break
            else:
                skipped |= 1 << g.target
            j += 1
        run = tuple(gates[i:end])
        support = 0
        for g in run:
            support |= g.pos | g.neg
        windows.append(Window(t, c.width, mask_lines(support), run))
        i = end
    return (c.with_gates(gates) if moved else c), windows


def build_kmap(w: Window) -> Kmap:
    """XOR of the window gates' control-cube indicators over var_order."""
    v = len(w.var_order)
    cells = 0
    for g in w.gates:
        care = value = 0
        for j, line in enumerate(w.var_order):
            if g.controls >> line & 1:
                care |= 1 << (v - 1 - j)
                value |= (g.pos >> line & 1) << (v - 1 - j)
        cells ^= Cube(care, value).mask(v)
    return Kmap(v, cells, w.width)


# ---------------------------------------------------------------------------
# exact minimization: relaxation over residual maps


def _all_cubes(v: int) -> list[Cube]:
    # base-3 digit j of the code: 0 = variable j free, 1 = pinned to 1, 2 = to 0
    cubes = []
    for code in range(3**v):
        care = value = 0
        x = code
        for j in range(v):
            x, r = divmod(x, 3)
            if r:
                care |= 1 << (v - 1 - j)
                if r == 1:
                    value |= 1 << (v - 1 - j)
        cubes.append(Cube(care, value))
    return cubes


def _cube_weight(cube: Cube, n: int) -> int:
    # lexicographic (cost, cubes, literals) packed into one integer
    return cube_cost(cube, n) * _WEIGHT_COST + _WEIGHT_CUBE + cube.care.bit_count()


@lru_cache(maxsize=None)
def _exact_tables(v: int, n: int):
    """The exact table for v-variable maps at width n, shared by every width
    whose cubes cost the same: keyed by the (mixed, all-negative) cube cost
    per literal count 0..v."""
    return _relaxed_table(tuple((mct_cost(m, False, n), mct_cost(m, True, n))
                                for m in range(v + 1)))


@lru_cache(maxsize=None)
def _relaxed_table(profile: tuple[tuple[int, int], ...]):
    """Min packed weight of a cover for every possible v-variable map, with
    v = len(profile) - 1 and cubes priced by the profile."""
    v = len(profile) - 1
    cubes = _all_cubes(v)
    edges = []
    for q in cubes:
        m = q.care.bit_count()
        edges.append((q.mask(v), profile[m][q.value == 0] * _WEIGHT_COST + _WEIGHT_CUBE + m))
    cells = 1 << v
    dist = np.full(1 << cells, 1 << 60, dtype=np.int64)
    dist[0] = 0
    grid = dist.reshape((2,) * cells)  # axis k is bit cells-1-k of the index
    while True:
        before = dist.copy()
        for mask, w in edges:
            axes = tuple(k for k in range(cells) if mask >> (cells - 1 - k) & 1)
            np.minimum(grid, np.flip(grid, axes) + w, out=grid)
        if np.array_equal(before, dist):
            return cubes, edges, array("q", dist.tobytes())


def _exact_solve(v: int, n: int, target: int) -> list[Cube]:
    cubes, edges, dist = _exact_tables(v, n)
    out: list[Cube] = []
    m = target
    while m:
        for q, (mask, w) in zip(cubes, edges):
            if dist[m ^ mask] + w == dist[m]:
                out.append(q)
                m ^= mask
                break
        else:  # pragma: no cover - dist table always admits a step
            raise RuntimeError("cover reconstruction failed")
    return out


# ---------------------------------------------------------------------------
# heuristic minimization: peel the highest uncovered cell


def _xor_cube(a: Cube, b: Cube) -> Cube | None:
    """The cube covering exactly the cells of a XOR b, if one exists. Two
    distinct cubes XOR to a cube only when both pin the same variables and
    differ in the value of one (the XOR frees it), or when one is the other
    with one more variable pinned (the XOR is the other half)."""
    diff = a.value ^ b.value
    if a.care == b.care:
        if diff and not diff & (diff - 1):
            return Cube(a.care ^ diff, a.value & ~diff)
        return None
    if b.care.bit_count() < a.care.bit_count():
        a, b = b, a
    extra = a.care ^ b.care
    if a.care & ~b.care or extra & (extra - 1) or diff & a.care:
        return None
    return Cube(b.care, b.value ^ extra)


def _greedy_solve(v: int, n: int, target: int) -> tuple[list[Cube], int]:
    residual = target
    picked: list[Cube] = []
    while residual:
        # peel candidates: the cubes whose highest cell is `top`, i.e. fixed
        # variables take top's values, free ones range over top's 1-bits
        top = residual.bit_length() - 1
        ones = [1 << b for b in reversed(range(v)) if top >> b & 1]
        # keep enumeration bounded on huge maps
        sizes = range(len(ones) + 1) if len(ones) <= 12 else (0, 1, len(ones))
        best = None
        for r in sizes:
            cost = mct_cost(v - r, r == len(ones), n)  # same for every r-subset
            for free in combinations(ones, r):
                m = 1 << top
                for b in free:
                    m |= m >> b
                # (-gain, cube cost, fixed literals); gain = cells fixed - cells broken
                key = ((1 << r) - 2 * (residual & m).bit_count(), cost, v - r)
                if best is None or key < best[0]:
                    best = (key, free, m)
        _, free, m = best
        care = ((1 << v) - 1) ^ sum(free)
        picked.append(Cube(care, top & care))
        residual ^= m
    # pairwise merge: replace two cubes by one when their XOR is a cube
    improved = True
    while improved:
        improved = False
        for a, b in combinations(range(len(picked)), 2):
            if picked[a] == picked[b]:
                picked = [q for i, q in enumerate(picked) if i not in (a, b)]
                improved = True
                break
            merged = _xor_cube(picked[a], picked[b])
            if merged is not None and cube_cost(merged, n) < cube_cost(
                picked[a], n
            ) + cube_cost(picked[b], n):
                picked = [q for i, q in enumerate(picked) if i not in (a, b)]
                picked.append(merged)
                improved = True
                break
    weight = sum(_cube_weight(q, n) for q in picked)
    return picked, weight


def minimize_cover(k: Kmap, exact_threshold: int = 4) -> Cover:
    """Cheapest cover found for the map.

    Exact for k.vars <= min(exact_threshold, 4), on the map itself: every
    exact table has the all-free cube, a NOT on the target, as an edge, so
    the complement's cover plus a trailing NOT is never cheaper than the
    direct one. Greedy above that, trying both the direct and the
    complemented (inverted + trailing NOT) realization. Cubes are priced as
    gates of a k.width-line circuit.
    """
    v, n = k.vars, k.width
    if v < 1:
        raise ValueError("maps need at least one variable; runs without controls are a NOT parity")
    if v <= min(exact_threshold, _EXACT_HARD_CAP):
        return Cover(tuple(_exact_solve(v, n, k.cells)))
    full = (1 << (1 << v)) - 1
    direct, w_direct = _greedy_solve(v, n, k.cells)
    inv, w_inv = _greedy_solve(v, n, k.cells ^ full)
    w_inv += _WEIGHT_COST + _WEIGHT_CUBE  # the trailing NOT
    if w_inv < w_direct:
        return Cover(tuple(inv), inverted=True)
    return Cover(tuple(direct), inverted=False)


def cover_to_gates(cv: Cover, w: Window) -> list[Gate]:
    """One gate per cube (controls = the cube's fixed literals), plus a NOT
    on the target when the cover realizes the complemented map."""
    v = len(w.var_order)
    gates = []
    for q in cv.cubes:
        pos = neg = 0
        for j, line in enumerate(w.var_order):
            bit = 1 << (v - 1 - j)
            if q.value & bit:
                pos |= 1 << line
            elif q.care & bit:
                neg |= 1 << line
        gates.append(Gate(pos, neg, w.target))
    if cv.inverted:
        gates.append(mct([], w.target))
    return gates


def ctr_optimize(c: Circuit, memo: dict | None = None) -> Circuit:
    """Re-synthesize every same-target window, keeping strict cost wins only.

    memo maps (width, window gates) to the kept replacement, or None for a
    window kept as it is; a caller passes one dict to calls on related
    circuits so that each window is decided once. Returns the rearranged
    circuit itself (c when nothing moved) when no window was replaced.
    """
    if memo is None:
        memo = {}
    rearranged, windows = cluster_common_targets(c)
    n = c.width
    out: list[Gate] = []
    replaced = False
    for w in windows:
        key = (n, w.gates)
        if key in memo:
            new = memo[key]
        else:
            if w.var_order:
                new = tuple(cover_to_gates(minimize_cover(build_kmap(w)), w))
            else:  # NOTs only
                new = (mct([], w.target),) * (len(w.gates) % 2)
            old_cost = sum(gate_cost(g, n) for g in w.gates)
            if sum(gate_cost(g, n) for g in new) >= old_cost:
                new = None
            memo[key] = new
        if new is None:
            out.extend(w.gates)
        else:
            out.extend(new)
            replaced = True
    return rearranged.with_gates(out) if replaced else rearranged
