"""Text formats: circuits (TFC-style with apostrophe negatives) and
permutation specs.

Circuit grammar, line-oriented, '#' starts a comment:

    .v a,b,c          # line names, first name = most significant bit
    .i a,b,c          # optional, validated against .v and otherwise ignored
    .o a,b,c          # optional, same
    BEGIN
    t3 a,b',c         # k operands; last is the target; x' = negative control
    t1 a              # NOT(a)
    END

Permutation specs are parenthesized lists, e.g. "(1,0,3,2,5,7,4,6)": entry i
is the output state for input state i, MSB-first.
"""
from __future__ import annotations

import re

from .core import Circuit, Gate


class ParseError(ValueError):
    """Malformed circuit or spec text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


_GATE_RE = re.compile(r"^[tT](\d+)\s+(.*)$")


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text; one leading UTF-8 byte-order mark is ignored."""
    text = text.removeprefix("\ufeff")
    names: tuple[str, ...] | None = None
    index: dict[str, int] = {}
    gates: list[Gate] = []
    in_body = False
    saw_begin = saw_end = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if saw_end:
            raise ParseError("content after END", lineno)
        upper = line.upper()
        if upper == "BEGIN":
            if names is None:
                raise ParseError("BEGIN before .v header", lineno)
            if saw_begin:
                raise ParseError("duplicate BEGIN", lineno)
            saw_begin = in_body = True
            continue
        if upper == "END":
            if not saw_begin:
                raise ParseError("END without BEGIN", lineno)
            saw_end, in_body = True, False
            continue
        if line.startswith("."):
            key, _, rest = line.partition(" ")
            items = [s.strip() for s in rest.split(",") if s.strip()]
            if key == ".v":
                if names is not None:
                    raise ParseError("duplicate .v header", lineno)
                if not items:
                    raise ParseError(".v header lists no lines", lineno)
                if len(set(items)) != len(items):
                    raise ParseError(".v header repeats a line name", lineno)
                for item in items:
                    if item.endswith("'"):
                        raise ParseError(f"line name {item!r} ends in \"'\"", lineno)
                names = tuple(items)
                index = {name: i for i, name in enumerate(names)}
            elif key in (".i", ".o"):
                if names is None:
                    raise ParseError(f"{key} before .v header", lineno)
                for item in items:
                    if item not in index:
                        raise ParseError(f"unknown line name {item!r} in {key}", lineno)
            else:
                raise ParseError(f"unknown directive {key!r}", lineno)
            continue
        if not in_body:
            raise ParseError(f"gate statement outside BEGIN/END: {line!r}", lineno)

        m = _GATE_RE.match(line)
        if m is None:
            raise ParseError(f"unparsable gate statement: {line!r}", lineno)
        k = int(m.group(1))
        operands = [s.strip() for s in m.group(2).split(",") if s.strip()]
        if len(operands) != k:
            raise ParseError(
                f"t{k} expects {k} operands, got {len(operands)}", lineno
            )
        if k == 0:
            raise ParseError("gate needs at least a target operand", lineno)
        seen: set[str] = set()
        pos = neg = 0
        for i, op in enumerate(operands):
            negative = op.endswith("'")
            name = op[:-1] if negative else op
            if name not in index:
                raise ParseError(f"unknown line name {name!r}", lineno)
            if name in seen:
                raise ParseError(f"duplicate operand {name!r}", lineno)
            seen.add(name)
            if i == k - 1:  # the target
                if negative:
                    raise ParseError("target operand cannot be negated", lineno)
                gates.append(Gate(pos, neg, index[name]))
            elif negative:
                neg |= 1 << index[name]
            else:
                pos |= 1 << index[name]

    if names is None:
        raise ParseError("missing .v header")
    if not saw_begin:
        raise ParseError("missing BEGIN")
    if not saw_end:
        raise ParseError("missing END")
    return Circuit(len(names), tuple(gates), names)


def write_circuit(c: Circuit) -> str:
    """Canonical text form: controls sorted by line index, LF line ends."""
    lines = [f".v {','.join(c.names)}", "BEGIN"]
    for g in c.gates:
        ops = [
            name + ("" if g.pos >> line & 1 else "'")
            for line, name in enumerate(c.names)
            if g.controls >> line & 1
        ]
        ops.append(c.names[g.target])
        lines.append(f"t{len(ops)} {','.join(ops)}")
    lines.append("END")
    return "\n".join(lines) + "\n"


def parse_spec(text: str) -> tuple[int, ...]:
    """Parse a parenthesized permutation, e.g. "(1,0,3,2,5,7,4,6)"."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    try:
        entries = tuple(int(tok) for tok in s.split(",")) if s.strip() else ()
    except ValueError as e:
        raise ParseError(f"spec entries must be integers: {e}") from None
    size = len(entries)
    if size < 2 or size & (size - 1):
        raise ParseError(f"spec length {size} is not a power of two >= 2")
    if any(x < 0 or x >= size for x in entries):
        raise ParseError(f"spec entries must lie in [0, {size})")
    if len(set(entries)) != size:
        raise ParseError("spec repeats an entry (not a permutation)")
    return entries
