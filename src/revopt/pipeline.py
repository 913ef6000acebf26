"""Optimization driver: runs rule passes to a cost-guarded fixpoint.

The rules themselves live in `rules` (and `ctr` for common-target
resynthesis); this module only orders and guards them. Pass order per
iteration: NOT cancellation, generalized-pass + common-target resynthesis,
restricted common-target peephole, move-assisted deletion sweep.

A pass commits only if it lowers (cost, gate count): strictly lower cost, or
the same cost with fewer gates. The generalized-pass sweep is guarded jointly
with the common-target pass that follows it, since its swaps are
cost-neutral on their own and only pay off by clustering same-target gates.
A pass that changes nothing returns its input, which is not priced; any
other output is priced once, and that price is carried forward. One
`optimize` call keeps one common-target window memo (see `ctr_optimize`),
so a window met again in a later pass or iteration is not solved again.

The fixpoint stops after the first iteration that does not lower cost, even
if that iteration committed passes that only removed gates.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import MAX_SIM_WIDTH, Circuit, simulate
from .cost import circuit_cost
from .ctr import MOVE_LOOKAHEAD, ctr_optimize
from .rules import delete_sweep, gpr_sweep, not_cancel_sweep, rctr_sweep

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


def optimize(c: Circuit, cfg: OptimizeConfig | None = None) -> tuple[Circuit, OptimizeReport]:
    cfg = cfg or OptimizeConfig()
    rules = cfg.enabled_rules
    current, cost = c, circuit_cost(c)
    report = OptimizeReport(
        cost_before=cost,
        cost_after=cost,
        gates_before=len(c.gates),
        gates_after=len(c.gates),
        iterations_run=0,
        equivalence_checked=False,
    )

    memo: dict = {}

    def _gpr_ctr_pass(current: Circuit) -> Circuit:
        cand = gpr_sweep(current) if "GPR" in rules else current
        if "CTR" in rules:
            cand = ctr_optimize(cand, memo)
        return cand

    sequence: list = []
    if "PR" in rules:
        sequence.append(("not-cancel", not_cancel_sweep))
    gpr_ctr = "+".join(r.lower() for r in ("GPR", "CTR") if r in rules)
    if gpr_ctr:
        sequence.append((gpr_ctr, _gpr_ctr_pass))
    if "RCTR" in rules:
        sequence.append(("r-ctr", rctr_sweep))
    if "DELETE" in rules:
        lookahead = MOVE_LOOKAHEAD if "MOVE" in rules else 0
        sequence.append(("delete", lambda cur: delete_sweep(cur, lookahead)))

    for _ in range(cfg.max_iterations):
        report.iterations_run += 1
        iter_start_cost = cost
        for name, fn in sequence:
            candidate = fn(current)
            gates = len(current.gates)
            if candidate is current:
                report.passes.append(PassDelta(name, cost, cost, gates, gates, False))
                continue
            new_cost = circuit_cost(candidate)
            if (new_cost, len(candidate.gates)) < (cost, gates):
                report.passes.append(PassDelta(name, cost, new_cost, gates,
                                               len(candidate.gates), True))
                current, cost = candidate, new_cost
            else:
                report.passes.append(PassDelta(name, cost, cost, gates, gates, False))
        if cost >= iter_start_cost:
            break

    if cfg.verify and c.width <= MAX_SIM_WIDTH:
        if simulate(current) != simulate(c):  # pragma: no cover - rules are sound
            raise RuntimeError("optimization changed circuit function")
        report.equivalence_checked = True
    report.cost_after = cost
    report.gates_after = len(current.gates)
    return current, report
