"""Local rewrite rules: NOT passing, move-assisted deletion, the generalized
pass, and the restricted common-target identities.

Matchers look at one position: `apply_gpr` and `apply_rctr` return a
RewriteResult (replacement gates for a small window) or None, and
`apply_rewrite` splices one in. The moving rule's condition is
`core.commutes`.

Each rule the pipeline runs has one whole-circuit sweep here, named after
its `--rules` name:

    pr             not_cancel_sweep (cancel_not_pairs right, else left)
    gpr            gpr_sweep
    rctr           rctr_sweep
    delete, move   delete_sweep (move: slide over commuting gates)

`cancel_not_pairs` prices its routing as it goes and returns it only when
it lowers (cost, gate count), the test the pipeline commits by; otherwise it
returns its input, which is how `not_cancel_sweep` knows to try the left.
Every sweep returns its input itself when it changes nothing, and the
pipeline does not price such a pass.

(`ctr` is `ctr.ctr_optimize`.) Every rewrite preserves the simulated
permutation; the test suite checks this exhaustively at small widths.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import Circuit, Gate, commutes, mct
from .cost import NOT_COST, gate_cost


@dataclass(frozen=True)
class RewriteResult:
    """Replacement gates for the half-open window [start, end) of a circuit."""

    new_gates: tuple[Gate, ...]
    window: tuple[int, int]


def apply_rewrite(c: Circuit, r: RewriteResult) -> Circuit:
    start, end = r.window
    return c.with_gates(c.gates[:start] + r.new_gates + c.gates[end:])


def _window_delta(c: Circuit, r: RewriteResult) -> int:
    """Cost change of applying r, priced on the gates it replaces."""
    start, end = r.window
    n = c.width
    return (sum(gate_cost(g, n) for g in r.new_gates)
            - sum(gate_cost(g, n) for g in c.gates[start:end]))


def cancel_not_pairs(c: Circuit, direction: str = "right") -> Circuit:
    """Route every NOT toward one end of the circuit and cancel pairs.

    Sweeps once in `direction`, carrying the parity of pending NOTs per line:
    each non-NOT gate passed has the polarity of its controls on odd-parity
    lines toggled (the pass rule); leftover odd parities re-emit one NOT at
    the sweep's end. The cost change is added up while routing: -1 per NOT
    consumed, +1 per NOT re-emitted, and the price change of each toggled
    gate. The routed circuit is returned only when it lowers (cost, gate
    count), the pipeline's own commit test; otherwise c itself is returned.
    """
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    n = c.width
    parity = 0  # mask of lines with an odd number of pending NOTs
    delta = 0
    body: list[Gate] = []
    order = c.gates if direction == "right" else reversed(c.gates)
    for g in order:
        if g.arity == 0:
            parity ^= 1 << g.target
            delta -= NOT_COST
            continue
        flip = g.controls & parity
        if flip:
            toggled = g.toggled(flip)
            delta += gate_cost(toggled, n) - gate_cost(g, n)
            g = toggled
        body.append(g)
    leftovers = [mct([], line) for line in range(parity.bit_length()) if parity >> line & 1]
    delta += NOT_COST * len(leftovers)
    if direction == "right":
        new_gates = body + leftovers
    else:
        body.reverse()
        new_gates = leftovers + body
    if (delta, len(new_gates)) < (0, len(c.gates)):
        return c.with_gates(new_gates)
    return c


def not_cancel_sweep(c: Circuit) -> Circuit:
    """NOT passing: cancel_not_pairs to the right, or to the left when the
    right routing does not lower (cost, gate count)."""
    out = cancel_not_pairs(c, "right")
    return out if out is not c else cancel_not_pairs(c, "left")


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
    if i < 0 or i + 1 >= len(c.gates):
        raise IndexError(f"no adjacent pair at index {i} in a {len(c.gates)}-gate circuit")
    m = _gpr_match(c.gates[i], c.gates[i + 1])
    if m is None:
        return None
    big, small, big_first = m
    big2 = big.toggled(1 << small.target)
    new = (small, big2) if big_first else (big2, small)
    return RewriteResult(new, (i, i + 2))


def _same_target_pairs(gates: tuple[Gate, ...]) -> int:
    """Adjacent same-target pairs in a run of gates."""
    return sum(a.target == b.target for a, b in zip(gates, gates[1:]))


def gpr_sweep(c: Circuit) -> Circuit:
    """Apply generalized-pass swaps that either cut cost immediately or pull
    same-target gates next to each other for the common-target pass. A swap
    is judged on the gates it touches and their two neighbours; only kept
    swaps are spliced in."""
    for i in range(len(c.gates) - 1):
        r = apply_gpr(c, i)
        if r is None:
            continue
        lo = max(i - 1, 0)
        before = c.gates[lo:i + 3]
        after = c.gates[lo:i] + r.new_gates + c.gates[i + 2:i + 3]
        if _window_delta(c, r) < 0 or _same_target_pairs(after) > _same_target_pairs(before):
            c = apply_rewrite(c, r)
    return c


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
            return RewriteResult((mct([], t),), (i, i + 2))
        pair = sorted((g1, g2), key=lambda g: g.arity)
        if pair[0].arity == 0 and pair[1].arity == 1 and pair[1].neg:
            return RewriteResult((Gate(pair[1].neg, 0, t),), (i, i + 2))

    if g1.arity == 1 and g1.neg:
        new = (Gate(g1.neg, 0, g1.target), mct([], g1.target))
        return RewriteResult(new, (i, i + 1))
    return None


def rctr_sweep(c: Circuit) -> Circuit:
    """Apply every restricted common-target identity that lowers cost."""
    i = 0
    while i < len(c.gates):
        r = apply_rctr(c, i)
        if r is not None and _window_delta(c, r) < 0:
            c = apply_rewrite(c, r)
            continue
        i += 1
    return c


def delete_sweep(c: Circuit, lookahead: int) -> Circuit:
    """Cancel identical gate pairs; a gate slides over up to `lookahead`
    gates it commutes with (the moving rule) to meet its twin. Returns c
    itself when nothing cancelled."""
    gates = list(c.gates)
    i = 0
    while i < len(gates):
        gi = gates[i]
        k = i + 1
        hit = False
        while k < len(gates) and k - i <= lookahead + 1:
            if gi == gates[k]:
                del gates[k]
                del gates[i]
                hit = True
                break
            if not commutes(gi, gates[k]):
                break
            k += 1
        if not hit:
            i += 1
    return c.with_gates(gates) if len(gates) < len(c.gates) else c
