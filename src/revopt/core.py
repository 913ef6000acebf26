"""Core IR for reversible circuits built from multiple-control Toffoli gates.

A circuit is an ordered list of gates over n named lines. Each gate flips its
target bit iff every control matches its polarity (positive = 1, negative = 0).

Two bit conventions:

- Gate masks: bit ``1 << line`` of ``Gate.pos``/``Gate.neg`` marks a positive
  or negative control on that line, so a gate needs no circuit width.
- State integers: the line with index 0, i.e. the first declared line, is the
  MOST significant bit. A permutation spec like (1,0,3,2,...) therefore reads
  with the first line as the high bit. ``_state_masks`` turns a gate's line
  masks into state masks for ``apply_gate`` and ``gate_fires``; ``simulate``
  works per line instead, on bit planes indexed by state.

Gates are applied in list order: gates[0] acts first.
"""
from __future__ import annotations

import string
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Union

import numpy as np

# Hard cap on simulation width: permutations are materialized as 2^n arrays.
MAX_SIM_WIDTH = 16


class WidthLimitError(Exception):
    """Circuit too wide to simulate exhaustively."""


class WidthMismatchError(Exception):
    """Two circuits (or a circuit and a spec) disagree on width."""


@dataclass(frozen=True)
class Gate:
    """One C^mNOT gate: positive and negative control masks plus a target line."""

    pos: int
    neg: int
    target: int

    def __post_init__(self):
        if min(self.pos, self.neg, self.target) < 0:
            raise ValueError(f"gate references a negative line: {self}")
        if self.pos & self.neg:
            raise ValueError(f"gate controls reference a line twice: {self}")
        if self.controls >> self.target & 1:
            raise ValueError(f"gate target {self.target} is also a control line")

    @property
    def controls(self) -> int:
        """Mask of all control lines, either polarity."""
        return self.pos | self.neg

    @property
    def arity(self) -> int:
        """Number of controls (m); 0 = NOT, 1 = CNOT, 2 = Toffoli."""
        return (self.pos | self.neg).bit_count()

    def toggled(self, lines: int) -> "Gate":
        """Copy of this gate with the polarity of the controls in `lines` flipped."""
        return Gate(self.pos ^ lines, self.neg ^ lines, self.target)


# one control: a line (positive) or a (line, positive) pair
LineSpec = Union[int, tuple[int, bool]]


def mct(controls: Iterable[LineSpec], target: int) -> Gate:
    """Build a gate from loose control specs.

    Each control may be an int (positive control on that line) or a
    (line, positive: bool) pair.
    """
    pos = neg = 0
    for c in controls:
        line, positive = (c, True) if isinstance(c, int) else c
        if positive:
            pos |= 1 << line
        else:
            neg |= 1 << line
    return Gate(pos, neg, target)


def _default_names(n: int) -> tuple[str, ...]:
    if n <= 26:
        return tuple(string.ascii_lowercase[:n])
    return tuple(f"x{i}" for i in range(n))


def _bad_name(name: str) -> bool:
    # names that io.write_circuit could not write back in a form
    # io.parse_circuit reads as the same name
    return (not name or name != name.strip() or len(name.splitlines()) > 1
            or "," in name or "#" in name or name.endswith("'"))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over `width` named lines. Immutable."""

    width: int
    gates: tuple[Gate, ...] = ()
    names: tuple[str, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("circuit width must be >= 1")
        object.__setattr__(self, "names", _default_names(self.width) if self.names is None
                           else tuple(self.names))
        if len(self.names) != self.width or len(set(self.names)) != self.width:
            raise ValueError("line names must be unique, one per line")
        if any(map(_bad_name, self.names)):
            raise ValueError("line names must be one non-empty line without outer "
                             "blanks, ',' or '#', and must not end in \"'\"")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if (g.controls | 1 << g.target) >> self.width:
                raise ValueError(f"gate {g} references a line outside width {self.width}")

    # -- builder helpers (return new circuits; handy in tests) --------------

    def append(self, g: Gate) -> "Circuit":
        return Circuit(self.width, self.gates + (g,), self.names)

    def x(self, target: int) -> "Circuit":
        return self.append(mct([], target))

    def cx(self, control: LineSpec, target: int) -> "Circuit":
        return self.append(mct([control], target))

    def mcx(self, controls: Iterable[LineSpec], target: int) -> "Circuit":
        return self.append(mct(controls, target))

    def with_gates(self, gates: Iterable[Gate]) -> "Circuit":
        return Circuit(self.width, tuple(gates), self.names)

    def __len__(self) -> int:
        return len(self.gates)


def _reflect(mask: int, n: int) -> int:
    """Mirror the low n bits of mask: bit i becomes bit n-1-i."""
    return int(f"{mask:0{n}b}"[::-1], 2)


def _state_masks(g: Gate, n: int) -> tuple[int, int, int]:
    """The gate's (pos, neg, target) masks over width-n state integers."""
    return _reflect(g.pos, n), _reflect(g.neg, n), 1 << (n - 1 - g.target)


def gate_fires(g: Gate, state: int, n: int) -> bool:
    """True iff every positive control reads 1 and every negative control reads 0."""
    pos, neg, _ = _state_masks(g, n)
    return (state & pos) == pos and (state & neg) == 0


def apply_gate(g: Gate, state: int, n: int) -> int:
    """Flip the target bit of `state` iff the gate fires. Self-inverse."""
    pos, neg, tgt = _state_masks(g, n)
    return state ^ tgt if (state & pos) == pos and (state & neg) == 0 else state


def simulate(c: Circuit) -> tuple[int, ...]:
    """Full permutation realized by the circuit: entry i = image of input state i.

    Runs on bit planes: one int per line whose bit i is that line's value in
    state i, so line l's starting plane repeats 2^(n-1-l) zeros and as many
    ones. A gate ANDs its control planes (complemented for negative controls)
    into a fire plane and XORs that into its target's plane; only the final
    planes are unpacked into state integers.
    """
    n = c.width
    if n > MAX_SIM_WIDTH:
        raise WidthLimitError(f"cannot simulate width {n} (limit {MAX_SIM_WIDTH})")
    size = 1 << n
    full = (1 << size) - 1
    planes = []
    for line in range(n):
        # one run of 2p states, doubled up to all of them (a closed form by
        # big-int division takes a hundred times longer at 16 lines)
        p = 1 << (n - 1 - line)
        plane, span = (1 << p) - 1 << p, 2 * p
        while span < size:
            plane |= plane << span
            span *= 2
        planes.append(plane)
    for g in c.gates:
        fire = full
        for line in mask_lines(g.pos):
            fire &= planes[line]
        for line in mask_lines(g.neg):
            fire &= full ^ planes[line]
        planes[g.target] ^= fire
    nbytes = (size + 7) // 8
    bits = np.unpackbits(
        np.frombuffer(b"".join(x.to_bytes(nbytes, "little") for x in planes), np.uint8)
        .reshape(n, nbytes), axis=1, count=size, bitorder="little")
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    return tuple((weights @ bits).tolist())


@lru_cache(maxsize=1 << 12)
def mask_lines(mask: int) -> tuple[int, ...]:
    """The lines a line mask marks, lowest first."""
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


def equivalent(c1: Circuit, c2: Circuit) -> bool:
    if c1.width != c2.width:
        raise WidthMismatchError(f"widths differ: {c1.width} vs {c2.width}")
    return simulate(c1) == simulate(c2)


def matches_spec(c: Circuit, perm: tuple[int, ...]) -> bool:
    """True iff the circuit realizes the given output permutation."""
    if len(perm) != (1 << c.width):
        raise WidthMismatchError(
            f"spec length {len(perm)} does not match width {c.width} (need {1 << c.width})"
        )
    return simulate(c) == tuple(perm)


def commutes(g1: Gate, g2: Gate) -> bool:
    """Syntactic moving-rule condition: neither target is a control of the other.

    Sufficient but not necessary for semantic commutation; kept syntactic on
    purpose (same-target runs are handled by the common-target pass).
    """
    return not (g2.controls >> g1.target & 1 or g1.controls >> g2.target & 1)
