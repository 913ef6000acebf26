"""Independent output check: the benchmark's own TFC reader, bit-level
simulator and cost table. Nothing here imports revopt, so a defect in the
program's simulator or cost model cannot hide a defect in its optimizer.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

_GATE = re.compile(r"^[tT](\d+)\s+(.*)$")

# (name, TFC text, cost before, cost after under the default optimize):
# the paper's common-target pair and NOT sandwich.
WORKED_EXAMPLES = (
    ("common-target-pair", ".v a,b,c\nBEGIN\nt3 a,b',c\nt3 a',b,c\nEND\n", 10, 2),
    ("not-sandwich", ".v a,b,c\nBEGIN\nt1 a\nt3 a,b,c\nt1 a\nEND\n", 7, 5),
)


@dataclass(frozen=True)
class Tfc:
    width: int
    # (positive-control mask, negative-control mask, target mask, control count)
    gates: tuple[tuple[int, int, int, int], ...]


def read_tfc(text: str) -> Tfc:
    """Read the TFC subset the benchmark generates and revopt writes."""
    index: dict[str, int] = {}
    raw_gates: list[tuple[list[tuple[int, bool]], int]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.upper() in ("BEGIN", "END"):
            continue
        if line.startswith(".v "):
            index = {name.strip(): i for i, name in enumerate(line[3:].split(","))}
            continue
        if line.startswith("."):
            continue
        m = _GATE.match(line)
        if m is None:
            raise ValueError(f"not a gate line: {line!r}")
        ops = [s.strip() for s in m.group(2).split(",")]
        if len(ops) != int(m.group(1)):
            raise ValueError(f"operand count mismatch: {line!r}")
        controls = [(index[op.rstrip("'")], not op.endswith("'")) for op in ops[:-1]]
        raw_gates.append((controls, index[ops[-1]]))
    n = len(index)
    gates = []
    for controls, target in raw_gates:
        pos = neg = 0
        for line, positive in controls:
            bit = 1 << (n - 1 - line)  # line 0 is the most significant bit
            if positive:
                pos |= bit
            else:
                neg |= bit
        gates.append((pos, neg, 1 << (n - 1 - target), len(controls)))
    return Tfc(n, tuple(gates))


def permutation(c: Tfc) -> list[int]:
    """Image of every input state, gates applied left to right."""
    states = list(range(1 << c.width))
    for pos, neg, tgt, _ in c.gates:
        care = pos | neg
        states = [s ^ tgt if s & care == pos else s for s in states]
    return states


def gate_cost(m: int, all_negative: bool, n: int) -> int:
    """The README cost table: m controls in a width-n circuit, first row wins."""
    if m == 0:
        return 1
    if m == 1:
        return 3 if all_negative else 1
    if m == 2:
        return 6 if all_negative else 5
    if m == n - 1:
        return 2**n - 3 + (2 if all_negative else 0)
    if m <= math.ceil(n / 2):
        return 12 * m - 22 + (2 if all_negative else 0)
    return 24 * m - 40 + (4 if all_negative else 0)


def cost(c: Tfc) -> int:
    return sum(gate_cost(m, m > 0 and pos == 0, c.width) for pos, _, _, m in c.gates)


def check_output(in_text: str, out_text: str, reported: dict) -> str | None:
    """Why the output is wrong, or None when it passes.

    `reported` holds the program's cost_before, cost_after, gates_before and
    gates_after for this circuit.
    """
    a, b = read_tfc(in_text), read_tfc(out_text)
    if a.width != b.width:
        return f"width changed {a.width} -> {b.width}"
    recount = {
        "cost_before": cost(a),
        "cost_after": cost(b),
        "gates_before": len(a.gates),
        "gates_after": len(b.gates),
    }
    for key, value in recount.items():
        if reported[key] != value:
            return f"reported {key} {reported[key]} but recount gives {value}"
    if recount["cost_after"] > recount["cost_before"]:
        return f"cost rose {recount['cost_before']} -> {recount['cost_after']}"
    if permutation(a) != permutation(b):
        return "output is not equivalent to input"
    return None
