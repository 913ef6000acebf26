"""Optimization driver: runs rule passes to a cost-guarded fixpoint.

Pass order per iteration: NOT cancellation, generalized-pass + common-target
resynthesis, restricted common-target peephole, move-assisted deletion sweep.
A pass commits only if it strictly lowers cost, or keeps cost while dropping
gates; the generalized-pass sweep is guarded jointly with the common-target
pass that follows it, since its swaps are cost-neutral on their own and only
pay off by clustering same-target gates.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import MAX_SIM_WIDTH, Circuit, commutes, simulate
from .cost import circuit_cost, gate_cost
from .ctr import MOVE_LOOKAHEAD, ctr_optimize
from .rules import apply_gpr, apply_rctr, apply_rewrite, cancel_not_pairs

ALL_RULES = frozenset({"PR", "GPR", "RCTR", "CTR", "DELETE", "MOVE"})


@dataclass(frozen=True)
class OptimizeConfig:
    enabled_rules: frozenset[str] = ALL_RULES
    max_iterations: int = 32
    verify: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        unknown = self.enabled_rules - ALL_RULES
        if unknown:
            raise ValueError(f"unknown rules: {sorted(unknown)}")


@dataclass
class PassDelta:
    name: str
    cost_before: int
    cost_after: int
    gates_before: int
    gates_after: int
    committed: bool


@dataclass
class OptimizeReport:
    cost_before: int
    cost_after: int
    gates_before: int
    gates_after: int
    iterations_run: int
    equivalence_checked: bool
    passes: list[PassDelta] = field(default_factory=list)


def improvement_percent(before: int, after: int) -> Fraction:
    """Exact relative cost improvement, in percent."""
    if before <= 0:
        raise ValueError("cost before optimization must be positive")
    return Fraction(100 * (before - after), before)


def improvement_percent_rounded(before: int, after: int) -> int:
    """improvement_percent rounded half-up to an integer (report style)."""
    return int(improvement_percent(before, after) + Fraction(1, 2))


def _committable(candidate: Circuit, current: Circuit) -> bool:
    cc, oc = circuit_cost(candidate), circuit_cost(current)
    if cc < oc:
        return True
    return cc == oc and len(candidate.gates) < len(current.gates)


def _not_cancel_pass(c: Circuit) -> Circuit:
    out = cancel_not_pairs(c, "right")
    if circuit_cost(out) >= circuit_cost(c) and len(out.gates) >= len(c.gates):
        left = cancel_not_pairs(c, "left")
        if _committable(left, out):
            return left
    return out


def _gpr_sweep(c: Circuit) -> Circuit:
    """Apply generalized-pass swaps that either cut cost immediately or pull
    same-target gates next to each other for the common-target pass."""
    for i in range(len(c.gates) - 1):
        r = apply_gpr(c, i)
        if r is None:
            continue
        candidate = apply_rewrite(c, r)
        if circuit_cost(candidate) < circuit_cost(c):
            c = candidate
            continue
        before_adj = _adjacent_same_target(c, i)
        if _adjacent_same_target(candidate, i) > before_adj:
            c = candidate
    return c


def _adjacent_same_target(c: Circuit, i: int) -> int:
    count = 0
    for j in (i - 1, i, i + 1):
        if 0 <= j < len(c.gates) - 1 and c.gates[j].target == c.gates[j + 1].target:
            count += 1
    return count


def _rctr_peephole(c: Circuit) -> Circuit:
    i = 0
    while i < len(c.gates):
        r = apply_rctr(c, i)
        if r is not None:
            start, end = r.window
            old = sum(gate_cost(g, c.width) for g in c.gates[start:end])
            new = sum(gate_cost(g, c.width) for g in r.new_gates)
            if new < old:
                c = apply_rewrite(c, r)
                continue
        i += 1
    return c


def _delete_sweep(c: Circuit, lookahead: int) -> Circuit:
    """Cancel identical gate pairs, bubbling over commuting gates in between."""
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
    return c.with_gates(gates)


def optimize(c: Circuit, cfg: OptimizeConfig | None = None) -> tuple[Circuit, OptimizeReport]:
    cfg = cfg or OptimizeConfig()
    rules = cfg.enabled_rules
    report = OptimizeReport(
        cost_before=circuit_cost(c),
        cost_after=circuit_cost(c),
        gates_before=len(c.gates),
        gates_after=len(c.gates),
        iterations_run=0,
        equivalence_checked=False,
    )

    def _gpr_ctr_pass(current: Circuit) -> Circuit:
        cand = _gpr_sweep(current) if "GPR" in rules else current
        if "CTR" in rules:
            cand = ctr_optimize(cand)
        return cand

    sequence: list = []
    if "PR" in rules:
        sequence.append(("not-cancel", _not_cancel_pass))
    if "GPR" in rules or "CTR" in rules:
        sequence.append(("gpr+ctr" if "GPR" in rules else "ctr", _gpr_ctr_pass))
    if "RCTR" in rules:
        sequence.append(("r-ctr", _rctr_peephole))
    if "DELETE" in rules:
        lookahead = MOVE_LOOKAHEAD if "MOVE" in rules else 0
        sequence.append(("delete", lambda cur: _delete_sweep(cur, lookahead)))

    current = c
    for _ in range(cfg.max_iterations):
        report.iterations_run += 1
        iter_start_cost = circuit_cost(current)
        for name, fn in sequence:
            candidate = fn(current)
            delta = PassDelta(
                name=name,
                cost_before=circuit_cost(current),
                cost_after=circuit_cost(candidate),
                gates_before=len(current.gates),
                gates_after=len(candidate.gates),
                committed=_committable(candidate, current),
            )
            if delta.committed:
                current = candidate
            else:
                delta.cost_after = delta.cost_before
                delta.gates_after = delta.gates_before
            report.passes.append(delta)
        if circuit_cost(current) >= iter_start_cost:
            break

    if cfg.verify and c.width <= MAX_SIM_WIDTH:
        if simulate(current) != simulate(c):  # pragma: no cover - rules are sound
            raise RuntimeError("optimization changed circuit function")
        report.equivalence_checked = True
    report.cost_after = circuit_cost(current)
    report.gates_after = len(current.gates)
    return current, report
