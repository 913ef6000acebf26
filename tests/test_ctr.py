import hashlib
import random
from itertools import combinations

import numpy as np
import pytest

from revopt.core import Circuit, Gate, mct, simulate
from revopt.cost import circuit_cost, gate_cost
from revopt.ctr import (
    MOVE_LOOKAHEAD,
    Cover,
    Cube,
    Kmap,
    _WEIGHT_COST,
    _WEIGHT_CUBE,
    _all_cubes,
    _exact_tables,
    _xor_cube,
    build_kmap,
    cluster_common_targets,
    cover_cost,
    cover_to_gates,
    ctr_optimize,
    cube_cost,
    minimize_cover,
)
from oracles import (
    cluster_by_pairwise_commutes,
    cube_from_cells,
    oracle_min_cost_by_enumeration,
    oracle_min_cost_layered,
    random_circuit,
)


def kmap_of_cover(cv: Cover, v: int) -> int:
    full = (1 << (1 << v)) - 1
    acc = 0
    for q in cv.cubes:
        acc ^= q.mask(v)
    return acc ^ (full if cv.inverted else 0)


def test_cube_masks():
    # v=2, var 0 = MSB of the cell index
    assert Cube(0, 0).mask(2) == 0b1111
    assert Cube(0b10, 0b10).mask(2) == 0b1100  # var 0 = 1
    assert Cube(0b01, 0b00).mask(2) == 0b0101  # var 1 = 0
    assert Cube(0b11, 0b11).mask(2) == 0b1000  # var 0 = var 1 = 1
    # every cube at v = 1..4 against a cell-by-cell enumeration
    for v in range(1, 5):
        for care in range(1 << v):
            for value in range(1 << v):
                if value & ~care:
                    continue
                want = sum(1 << cell for cell in range(1 << v) if cell & care == value)
                assert Cube(care, value).mask(v) == want, (v, care, value)


def test_kmap_rejects_out_of_range_input():
    # checked on construction, so no solver ever sees (and loops on) such a map
    for vars_, cells in ((5, -3), (2, -1), (2, 16), (-1, 0)):
        with pytest.raises(ValueError):
            Kmap(vars_, cells)
    with pytest.raises(ValueError):
        Kmap(3, 1, 3)  # three control lines and a target need four lines
    assert Kmap(2, 15).cells == 15 and Kmap(0, 1).cells == 1
    assert Kmap(2, 15).width == 3 and Kmap(2, 15, 9).width == 9


def test_extract_windows_simple():
    c = Circuit(3).cx(0, 2).cx(1, 2)
    ws = cluster_common_targets(c)[1]
    assert len(ws) == 1
    assert ws[0].target == 2 and len(ws[0].gates) == 2


def test_extract_windows_move_assisted():
    # the NOT(b) in the middle commutes with neither neighbour's controls? it
    # commutes with cx(a;c) and is a control of cx(b';c), so merging must
    # happen by sliding the NOT out left
    c = Circuit(3).cx(0, 2).x(1).cx((1, False), 2)
    rearranged, ws = cluster_common_targets(c)
    assert simulate(rearranged) == simulate(c)
    targets = [w.target for w in ws]
    sizes = [len(w.gates) for w in ws]
    # cannot merge: NOT(b) does not commute with cx(b';c)
    assert sizes == [1, 1, 1] or 2 not in sizes
    assert targets.count(2) == 2


def test_extract_windows_merges_over_commuting_gate():
    c = Circuit(4).cx(0, 2).x(3).cx(1, 2)
    rearranged, ws = cluster_common_targets(c)
    assert simulate(rearranged) == simulate(c)
    assert any(w.target == 2 and len(w.gates) == 2 for w in ws)


def test_extract_windows_no_merge_across_targets():
    c = Circuit(3).mcx([0, 1], 2).cx(2, 1)
    ws = cluster_common_targets(c)[1]
    assert [w.target for w in ws] == [2, 1]


def test_cluster_reach_is_move_lookahead():
    # a gate on the run's target joins it from exactly MOVE_LOOKAHEAD gates on
    for skipped, joins in ((MOVE_LOOKAHEAD, True), (MOVE_LOOKAHEAD + 1, False)):
        # CNOTs between lines 1 and 2, alternating direction: none of them moves
        middle = tuple(mct([2 - k % 2], 1 + k % 2) for k in range(skipped))
        c = Circuit(3, (mct([], 0),) + middle + (mct([], 0),))
        rearranged, ws = cluster_common_targets(c)
        assert (len(ws[0].gates) == 2) == joins
        assert (rearranged is c) == (not joins)  # nothing moved: the input itself


def _small_gate(rng: random.Random, target: int, lines: list[int]) -> Gate:
    m = rng.randint(0, min(2, len(lines)))
    return mct([(x, rng.random() < 0.5) for x in rng.sample(lines, m)], target)


def _few_targets(rng: random.Random) -> Circuit:
    """Up to 60 gates of at most 2 controls on at most 3 targets: many moves."""
    n = rng.randint(2, 8)
    targets = rng.sample(range(n), min(n, 3))
    gates = []
    for _ in range(rng.randint(0, 60)):
        t = rng.choice(targets)
        gates.append(_small_gate(rng, t, [x for x in range(n) if x != t]))
    return Circuit(n, tuple(gates))


def _lookahead_probe(rng: random.Random) -> Circuit:
    """A gate, MOVE_LOOKAHEAD or MOVE_LOOKAHEAD + 1 gates on other targets
    (most of them commuting with it), then gates on its target."""
    n = rng.randint(3, 8)
    t = rng.randrange(n)
    others = [x for x in range(n) if x != t]
    free = [x for x in others if rng.random() < 0.5]  # lines the later t-gates use
    middle = []
    for _ in range(MOVE_LOOKAHEAD + rng.randint(0, 1)):
        target = rng.choice([x for x in others if x not in free] or others)
        lines = [x for x in range(n) if x != target and (x != t or rng.random() < 0.05)]
        middle.append(_small_gate(rng, target, lines))
    tail = [_small_gate(rng, t, free) for _ in range(rng.randint(1, 3))]
    return Circuit(n, (_small_gate(rng, t, free),) + tuple(middle) + tuple(tail))


def test_cluster_matches_pairwise_commutes():
    # the running mask of skipped targets decides exactly what testing the
    # candidate against every skipped gate decides
    rng = random.Random(17)
    moved = probes_joined = 0
    for k in range(2400):
        if k % 3 == 0:
            c = random_circuit(rng, max_width=8, max_gates=60)
        elif k % 3 == 1:
            c = _few_targets(rng)
        else:
            c = _lookahead_probe(rng)
        want_gates, want_runs = cluster_by_pairwise_commutes(c)
        rearranged, ws = cluster_common_targets(c)
        assert rearranged.gates == want_gates, k
        assert [w.gates for w in ws] == want_runs, k
        assert [w.target for w in ws] == [run[0].target for run in want_runs], k
        assert (rearranged is c) == (want_gates == c.gates), k
        moved += want_gates != c.gates
        probes_joined += k % 3 == 2 and len(want_runs[0]) > 1
    assert moved > 600 and probes_joined > 100, (moved, probes_joined)


def test_build_kmap_xor_of_cubes():
    c = Circuit(3).mcx([0, (1, False)], 2).mcx([(0, False), 1], 2)
    w = cluster_common_targets(c)[1][0]
    k = build_kmap(w)
    assert k.vars == 2
    assert k.cells == 0b0110  # a XOR b: cells 01 and 10

    # a lone NOT has no control lines: a map over no variables, one 1-cell
    w = cluster_common_targets(Circuit(3).x(2))[1][0]
    assert w.var_order == () and build_kmap(w) == Kmap(0, 1, 3)

    w = cluster_common_targets(Circuit(3).cx(0, 2).cx(0, 2))[1][0]
    assert build_kmap(w) == Kmap(1, 0, 3)

    # the map spans the window's support, not every other line
    w = cluster_common_targets(Circuit(6).cx(4, 2).x(2).mcx([(1, False), 4], 2))[1][0]
    assert w.var_order == (1, 4)
    # e XOR 1 XOR (NOT b AND e) over cells (b, e) is 0 only at b = e = 1
    assert build_kmap(w) == Kmap(2, 0b0111, 6)


def test_build_kmap_vars_is_support_size():
    rng = random.Random(4)
    for _ in range(60):
        c = random_circuit(rng, max_width=9, max_gates=10)
        for w in cluster_common_targets(c)[1]:
            support = 0
            for g in w.gates:
                support |= g.controls
            k = build_kmap(w)
            assert k.vars == support.bit_count() == len(w.var_order)
            assert k.width == c.width
            assert w.var_order == tuple(sorted(w.var_order))


def test_build_kmap_matches_window_simulation():
    rng = random.Random(5)
    for _ in range(30):
        c = random_circuit(rng, max_width=5, max_gates=6)
        for w in cluster_common_targets(c)[1]:
            k = build_kmap(w)
            v = len(w.var_order)
            sub = Circuit(c.width, w.gates)
            perm = simulate(sub)
            for cell in range(1 << v):
                state = 0
                for j, line in enumerate(w.var_order):
                    if (cell >> (v - 1 - j)) & 1:
                        state |= 1 << (c.width - 1 - line)
                flipped = perm[state] != state
                assert flipped == bool((k.cells >> cell) & 1)


def test_minimize_cover_xor_function():
    cv = minimize_cover(Kmap(2, 0b0110))
    assert not cv.inverted
    assert sorted((q.care, q.value) for q in cv.cubes) == [(0b01, 0b01), (0b10, 0b10)]
    assert cover_cost(cv, 2) == 2


def test_minimize_cover_all_ones():
    cv = minimize_cover(Kmap(2, 0b1111))
    assert not cv.inverted and len(cv.cubes) == 1
    assert cv.cubes[0].care.bit_count() == 0


def test_minimize_cover_inverted_nand():
    # NOT(a AND b AND c): 7 ones. The winning realization is the full
    # three-control minterm gate plus a NOT on the target, reached either as
    # the inverted single-cube cover or as the direct cover with a full-map
    # cube; both emit the same two gates at cost 14.
    k = Kmap(3, 0b11111111 ^ 0b10000000)
    cv = minimize_cover(k)
    assert kmap_of_cover(cv, 3) == k.cells
    assert cover_cost(cv, 3) == 14
    minterm = Cube(0b111, 0b111)
    if cv.inverted:
        assert list(cv.cubes) == [minterm]
    else:
        assert sorted(q.care.bit_count() for q in cv.cubes) == [0, 3]
        assert minterm in cv.cubes


def test_minimize_cover_single_negative_literal():
    # not-a on one variable: positive CNOT + NOT (cost 2, whether written as
    # the inverted cover or via a full-map cube) beats the direct negative
    # literal {a-} (cost 3)
    cv = minimize_cover(Kmap(1, 0b01))
    assert kmap_of_cover(cv, 1) == 0b01
    assert cover_cost(cv, 1) == 2
    assert Cube(0b1, 0b1) in cv.cubes


def test_minimize_cover_empty():
    cv = minimize_cover(Kmap(2, 0))
    assert cv.cubes == () and not cv.inverted
    with pytest.raises(ValueError):
        minimize_cover(Kmap(0, 0))


def test_minimize_cover_invariants():
    # every 1-cell covered odd times, every 0-cell even times
    rng = random.Random(6)
    for v in (1, 2, 3, 4):
        for _ in range(20):
            cells = rng.randrange(1 << (1 << v))
            cv = minimize_cover(Kmap(v, cells))
            assert kmap_of_cover(cv, v) == cells


def test_minimize_cover_heuristic_sound():
    rng = random.Random(7)
    for v in (5, 6):
        for _ in range(10):
            cells = rng.randrange(1 << (1 << v))
            cv = minimize_cover(Kmap(v, cells))
            assert kmap_of_cover(cv, v) == cells


def test_greedy_covers_pinned():
    # Exact greedy choices: every 3-variable map and seeded maps at v = 4..8,
    # all on the greedy path. Update the digest only on purpose.
    digest = hashlib.sha256()
    for cells in range(256):
        digest.update(repr(minimize_cover(Kmap(3, cells), exact_threshold=2)).encode())
    rng = random.Random(2024)
    for v, count in ((4, 300), (5, 200), (6, 100), (7, 40), (8, 15)):
        for _ in range(count):
            k = Kmap(v, rng.randrange(1 << (1 << v)))
            digest.update(repr(minimize_cover(k, exact_threshold=3)).encode())
    assert digest.hexdigest() == (
        "e32fed4e16f076cb6714c057e4c6ecb7d45059071d473b03ff8d7c8d12a028ed"
    )


def test_xor_cube_matches_cell_walk():
    # every ordered pair of cubes, identical ones included
    for v in range(1, 5):
        cubes = _all_cubes(v)
        for a in cubes:
            for b in cubes:
                want = cube_from_cells(v, a.mask(v) ^ b.mask(v))
                assert _xor_cube(a, b) == want, (v, a, b)


def _cost_at(cv: Cover, n: int) -> int:
    return sum(cube_cost(q, n) for q in cv.cubes) + cv.inverted


def _spread(cells: int, s: int, positions: list[int], v: int) -> int:
    """A map over s variables as a v-variable map that ignores the others;
    positions[j] is the full-map variable of support variable j."""
    out = 0
    for cell in range(1 << v):
        sub = 0
        for j, var in enumerate(positions):
            sub |= (cell >> (v - 1 - var) & 1) << (s - 1 - j)
        out |= (cells >> sub & 1) << cell
    return out


def test_support_map_costs_the_same_as_the_full_map():
    # For every width n = 2..5, every proper subset S of the other n-1 lines
    # and every function over S: the best cover over S costs the same as the
    # best cover over all n-1 lines, both priced at width n. (An empty S is
    # a NOT parity: cost 0 or 1.)
    checked = 0
    for n in range(2, 6):
        v = n - 1
        for s in range(v):
            for positions in combinations(range(v), s):
                for cells in range(1 << (1 << s)):
                    full = minimize_cover(Kmap(v, _spread(cells, s, list(positions), v), n))
                    want = cover_cost(full, v)  # a full map is priced at width v + 1 = n
                    got = _cost_at(minimize_cover(Kmap(s, cells, n)), n) if s else cells
                    assert got == want, (n, positions, cells)
                    checked += 1
    # per n: the sum over s of C(n-1, s) supports times 2^(2^s) functions
    assert checked == 2 + (2 + 8) + (2 + 12 + 48) + (2 + 16 + 96 + 1024)


def test_kmap_width_prices_the_cover():
    # one 4-control minterm: its gate costs 29 at width 5, 56 at 6 and 26
    # from 7 on, so the exact table depends on the width
    cells = 1 << 15
    for n, cost in ((5, 29), (6, 56), (7, 26), (12, 26)):
        cv = minimize_cover(Kmap(4, cells, n))
        assert cv == Cover((Cube(0b1111, 0b1111),))
        assert _cost_at(cv, n) == cost
    # widths whose cubes cost the same share a table: seven serve them all
    tables = {id(_exact_tables(v, n)) for n in range(2, 40) for v in range(1, min(n, 5))}
    assert len(tables) == 7


def test_exact_covers_never_need_the_complement():
    # the all-free cube is a NOT at the trailing NOT's weight, so no map's
    # complement plus a NOT beats the map itself: minimize_cover solves
    # exact maps once, direct
    not_weight = _WEIGHT_COST + _WEIGHT_CUBE
    checked = 0
    for v in range(1, 5):
        for n in range(v + 1, 12):
            dist = np.frombuffer(_exact_tables(v, n)[2], dtype=np.int64)
            # the index of m ^ full is full - m: the table reversed
            assert (dist <= dist[::-1] + not_weight).all(), (v, n)
            checked += len(dist)
            cells = range(1 << (1 << v)) if v < 4 else random.Random(n).sample(range(1 << 16), 300)
            assert not any(minimize_cover(Kmap(v, m, n)).inverted for m in cells), (v, n)
    assert checked == 460_984


def test_exact_matches_enumeration_oracle_v2():
    for cells in range(16):
        cv = minimize_cover(Kmap(2, cells))
        got = cover_cost(cv, 2)
        want = oracle_min_cost_by_enumeration(2, cells, max_cubes=5)
        assert got == want, (cells, got, want)


def test_exact_matches_layered_oracle_v3_sample():
    rng = random.Random(8)
    seen = {rng.randrange(256) for _ in range(60)}
    for cells in seen:
        cv = minimize_cover(Kmap(3, cells))
        assert cover_cost(cv, 3) == oracle_min_cost_layered(3, cells, max_cubes=7)


def test_cover_to_gates():
    c = Circuit(3).mcx([0, (1, False)], 2).mcx([(0, False), 1], 2)
    w = cluster_common_targets(c)[1][0]
    cv = minimize_cover(build_kmap(w))
    gates = cover_to_gates(cv, w)
    assert sorted((g.controls & -g.controls).bit_length() - 1 for g in gates) == [0, 1]
    assert all(g.target == 2 for g in gates)

    full = Cover((Cube(0, 0),), inverted=False)
    assert cover_to_gates(full, w) == [mct([], 2)]

    inv = Cover((Cube(0b111, 0b111),), inverted=True)
    w4 = cluster_common_targets(Circuit(5).mcx([0, 2], 3).mcx([(4, False)], 3))[1][0]
    assert w4.var_order == (0, 2, 4)
    gates = cover_to_gates(inv, w4)
    assert gates == [mct([0, 2, 4], 3), mct([], 3)]


def test_ctr_optimize_example_pair():
    c = Circuit(3).mcx([0, (1, False)], 2).mcx([(0, False), 1], 2)
    out = ctr_optimize(c)
    assert circuit_cost(c) == 10 and circuit_cost(out) == 2
    assert simulate(out) == simulate(c)


def test_ctr_optimize_cancels_repeated_terms():
    g = mct([0, 1, 2], 3)
    c = Circuit(4, (g, mct([0], 3), g))
    out = ctr_optimize(c)
    assert out.gates == (mct([0], 3),)
    assert simulate(out) == simulate(c)


def test_ctr_optimize_keeps_minimal_window():
    c = Circuit(3).cx(0, 2).cx(1, 2)
    assert cluster_common_targets(c)[0] is c
    assert ctr_optimize(c) is c  # nothing moved or improved: the input itself


def test_ctr_optimize_returns_the_rearranged_circuit():
    # a gate moved but no window got cheaper: the rearranged circuit comes back
    c = Circuit(4).cx(0, 2).x(3).cx(1, 2)
    rearranged = cluster_common_targets(c)[0]
    assert rearranged.gates != c.gates
    assert ctr_optimize(c) == rearranged


def test_ctr_memo_matches_a_fresh_memo():
    rng = random.Random(21)
    circuits = [random_circuit(rng, max_width=6, max_gates=20) for _ in range(300)]
    want = [ctr_optimize(c) for c in circuits]
    memo: dict = {}
    assert [ctr_optimize(c, memo) for c in circuits] == want
    windows = len(memo)
    # a second round decides every window from the memo alone
    assert [ctr_optimize(c, memo) for c in circuits] == want
    assert len(memo) == windows
    assert any(new is not None for new in memo.values())
    assert any(new is None for new in memo.values())


def test_ctr_memo_keys_on_width():
    # a 4-control gate costs 29 at n = 5 and 56 at n = 6: this window is
    # resynthesized at width 5 and kept as it is at width 6
    window = (Gate(0b0110, 0b0001, 4), Gate(0b1000, 0b0111, 4))
    c5, c6 = Circuit(5, window), Circuit(6, window)
    fresh5 = ctr_optimize(c5)
    assert circuit_cost(fresh5) < circuit_cost(c5) and ctr_optimize(c6) is c6
    for order in ((c5, c6), (c6, c5)):
        memo: dict = {}
        for c in order:
            assert ctr_optimize(c, memo) == (fresh5 if c is c5 else c6)


def test_ctr_optimize_never_worse():
    rng = random.Random(9)
    for _ in range(100):
        c = random_circuit(rng, max_width=6, max_gates=12)
        out = ctr_optimize(c)
        assert circuit_cost(out) <= circuit_cost(c)
        assert simulate(out) == simulate(c)


def test_ctr_optimize_width_one():
    c = Circuit(1).x(0).x(0).x(0)
    out = ctr_optimize(c)
    assert out.gates == (mct([], 0),)
