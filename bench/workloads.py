"""Seeded circuit generators for the benchmark workloads.

Each workload is an endless stream of TFC texts drawn from one
``random.Random`` seeded by the workload name and ``--seed``. The stream is
cut into blocks; every block holds exactly one circuit for each pair of
(width, gate-count stratum), in a seeded order, with the exact gate count
drawn uniformly inside its stratum. Inside a circuit, the control counts
0..cap occur equally often (within one) in a seeded order. Stratifying the
properties that set a circuit's run time and cost keeps a run's mix, and so
its throughput and cost totals, from drifting with the seed. Otherwise each
gate is drawn the way the fuzz test of the acceptance suite draws it: a
uniform target, uniform control lines and a fair coin for polarity.

The program under test only ever sees the generated text.
"""
from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    widths: tuple[int, ...]
    gate_strata: tuple[tuple[int, int], ...]  # inclusive (low, high) gate counts
    max_controls: int | None                  # None: up to width - 1
    quality_blocks: int                       # blocks every run completes
    # Latency tail percentile: the highest with at least ten circuits beyond
    # it in a 30 s run on a 2-core x86 box. It is fixed so that faster code,
    # which only adds circuits, is not measured at a higher percentile.
    tail_percentile: int

    @property
    def block_size(self) -> int:
        return len(self.widths) * len(self.gate_strata)

    @property
    def quality_count(self) -> int:
        return self.quality_blocks * self.block_size


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fuzz",
            "acceptance fuzz shape, widths 1-8 and up to 40 dense gates: "
            "greedy covers of 5-7-variable maps take most of the time",
            widths=tuple(range(1, 9)),
            gate_strata=((0, 4), (5, 9), (10, 14), (15, 19), (20, 24), (25, 29),
                         (30, 34), (35, 40)),
            max_controls=None,
            quality_blocks=4,
            tail_percentile=98,
        ),
        Workload(
            "sparse-wide",
            "widths 9-11, 8-16 gates of at most 3 controls: maps of 2^(n-1) "
            "cells make greedy covers and simulation grow with width",
            widths=(9, 10, 11),
            gate_strata=((8, 10), (11, 13), (14, 16)),
            max_controls=3,
            quality_blocks=4,
            tail_percentile=80,
        ),
        Workload(
            "long-narrow",
            "widths 3-5, 100-400 gates: every map has at most 4 variables, so "
            "greedy covers never run and cost recounts and rule sweeps dominate",
            widths=(3, 4, 5),
            gate_strata=((100, 149), (150, 199), (200, 249), (250, 299), (300, 349),
                         (350, 400)),
            max_controls=None,
            quality_blocks=5,
            tail_percentile=95,
        ),
    )
}


def circuit_text(width: int, gates: list[tuple[list[tuple[int, bool]], int]]) -> str:
    """TFC text over lines a, b, c, ...; controls are (line, positive) pairs."""
    names = string.ascii_lowercase[:width]
    lines = [f".v {','.join(names)}", "BEGIN"]
    for controls, target in gates:
        ops = [names[line] + ("" if positive else "'") for line, positive in sorted(controls)]
        ops.append(names[target])
        lines.append(f"t{len(ops)} {','.join(ops)}")
    lines.append("END")
    return "\n".join(lines) + "\n"


def _random_circuit(rng: random.Random, width: int, num_gates: int, max_controls: int | None) -> str:
    cap = width - 1 if max_controls is None else min(max_controls, width - 1)
    # control counts cycle through 0..cap from a random start, then shuffle:
    # uniform per gate, and balanced within the circuit
    start = rng.randrange(cap + 1)
    counts = [(start + k) % (cap + 1) for k in range(num_gates)]
    rng.shuffle(counts)
    gates = []
    for m in counts:
        target = rng.randrange(width)
        others = [x for x in range(width) if x != target]
        gates.append(([(x, rng.random() < 0.5) for x in rng.sample(others, m)], target))
    return circuit_text(width, gates)


def blocks(name: str, seed: int) -> Iterator[list[str]]:
    """Endless stream of stratified blocks of TFC texts for one workload."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    cells = [(width, stratum) for width in w.widths for stratum in w.gate_strata]
    while True:
        order = cells[:]
        rng.shuffle(order)
        yield [
            _random_circuit(rng, width, rng.randint(low, high), w.max_controls)
            for width, (low, high) in order
        ]


def first_circuits(name: str, seed: int, count: int) -> list[str]:
    """The first `count` circuits of a workload's stream."""
    return list(itertools.islice(itertools.chain.from_iterable(blocks(name, seed)), count))
