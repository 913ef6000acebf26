"""Local rewrite rules: deletion, moving, NOT-pass, generalized pass, and the
restricted common-target identities.

Every rule is a partial rewrite: given a circuit and a position it either
returns a RewriteResult (a replacement for a small window of gates) or None.
Applied rewrites always preserve the simulated permutation; the test suite
checks this exhaustively at small widths.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import Circuit, Gate, commutes, mct
from .cost import circuit_cost


@dataclass(frozen=True)
class RewriteResult:
    """Replacement gates for the half-open window [start, end) of a circuit."""

    new_gates: tuple[Gate, ...]
    window: tuple[int, int]
    rule_name: str


def apply_rewrite(c: Circuit, r: RewriteResult) -> Circuit:
    start, end = r.window
    return c.with_gates(c.gates[:start] + r.new_gates + c.gates[end:])


def _check_pair_index(c: Circuit, i: int) -> None:
    if i < 0 or i + 1 >= len(c.gates):
        raise IndexError(f"no adjacent pair at index {i} in a {len(c.gates)}-gate circuit")


def try_delete(c: Circuit, i: int) -> RewriteResult | None:
    """Cancel two adjacent gates with identical function."""
    _check_pair_index(c, i)
    if c.gates[i] == c.gates[i + 1]:
        return RewriteResult((), (i, i + 2), "delete")
    return None


def try_move(c: Circuit, i: int) -> RewriteResult | None:
    """Swap two adjacent gates when the moving rule allows it."""
    _check_pair_index(c, i)
    g1, g2 = c.gates[i], c.gates[i + 1]
    if commutes(g1, g2):
        return RewriteResult((g2, g1), (i, i + 2), "move")
    return None


def pass_not(c: Circuit, i: int, direction: str = "right") -> RewriteResult | None:
    """Pass the NOT gate at index i over its neighbor in `direction`.

    If the NOT's line is a control of the neighbor, that control's polarity is
    toggled; otherwise (the line is free or is the neighbor's target) the two
    gates simply swap.
    """
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    if i < 0 or i >= len(c.gates):
        raise IndexError(f"index {i} out of range")
    ni = i + 1 if direction == "right" else i - 1
    if ni < 0 or ni >= len(c.gates):
        raise IndexError(f"NOT at {i} has no neighbor to the {direction}")
    g = c.gates[i]
    if g.arity != 0:
        return None
    nb = c.gates[ni]
    nb = nb.toggled(nb.controls & 1 << g.target)
    if direction == "right":
        return RewriteResult((nb, g), (i, i + 2), "pass")
    return RewriteResult((g, nb), (i - 1, i + 1), "pass")


def cancel_not_pairs(c: Circuit, direction: str = "right") -> Circuit:
    """Route every NOT toward one end of the circuit and cancel pairs.

    Sweeps once in `direction`, carrying the parity of pending NOTs per line:
    each non-NOT gate passed has the polarity of its controls on odd-parity
    lines toggled (the pass rule); leftover odd parities re-emit one NOT at
    the sweep's end. The result is kept only if its cost does not increase
    (polarity toggles can make gates dearer).
    """
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    parity = 0  # mask of lines with an odd number of pending NOTs
    body: list[Gate] = []
    order = c.gates if direction == "right" else reversed(c.gates)
    for g in order:
        if g.arity == 0:
            parity ^= 1 << g.target
            continue
        body.append(g.toggled(g.controls & parity))
    leftovers = [mct([], line) for line in range(parity.bit_length()) if parity >> line & 1]
    if direction == "right":
        new_gates = body + leftovers
    else:
        body.reverse()
        new_gates = leftovers + body
    candidate = c.with_gates(new_gates)
    if circuit_cost(candidate) <= circuit_cost(c):
        return candidate
    return c


def _gpr_match(g1: Gate, g2: Gate) -> tuple[Gate, Gate, bool] | None:
    """Find the (big, small, big_first) structure of a generalized-pass pair:
    big's controls are small's, with the same polarities, plus small's target."""
    for big, small, big_first in ((g1, g2, True), (g2, g1, False)):
        t = 1 << small.target
        if big.controls & t and big.pos & ~t == small.pos and big.neg & ~t == small.neg:
            return big, small, big_first
    return None


def apply_gpr(c: Circuit, i: int) -> RewriteResult | None:
    """Generalized pass rule: swap a gate with a one-smaller gate whose
    control set it extends by the smaller gate's target, toggling that
    control's polarity. Shared controls must agree in polarity.
    """
    _check_pair_index(c, i)
    m = _gpr_match(c.gates[i], c.gates[i + 1])
    if m is None:
        return None
    big, small, big_first = m
    big2 = big.toggled(1 << small.target)
    new = (small, big2) if big_first else (big2, small)
    return RewriteResult(new, (i, i + 2), "gpr")


def apply_rctr(c: Circuit, i: int) -> RewriteResult | None:
    """Restricted common-target identities on a shared target line t:

    1. CNOT(x+;t) next to CNOT(x-;t) (either order)  ->  NOT(t)
    2. CNOT(x-;t) next to NOT(t) (either order)      ->  CNOT(x+;t)
    3. CNOT(x-;t) alone                              ->  CNOT(x+;t), NOT(t)
    """
    if i < 0 or i >= len(c.gates):
        raise IndexError(f"index {i} out of range")
    g1 = c.gates[i]
    g2 = c.gates[i + 1] if i + 1 < len(c.gates) else None

    if g2 is not None and g1.target == g2.target:
        t = g1.target
        if g1.arity == 1 and g1.controls == g2.controls and g1.pos != g2.pos:
            return RewriteResult((mct([], t),), (i, i + 2), "r-ctr")
        pair = sorted((g1, g2), key=lambda g: g.arity)
        if pair[0].arity == 0 and pair[1].arity == 1 and pair[1].neg:
            return RewriteResult((Gate(pair[1].neg, 0, t),), (i, i + 2), "r-ctr")

    if g1.arity == 1 and g1.neg:
        new = (Gate(g1.neg, 0, g1.target), mct([], g1.target))
        return RewriteResult(new, (i, i + 1), "r-ctr")
    return None
