"""Machine-speed reference for the benchmark's timings.

On a shared virtual machine the speed of a whole 30 s run drifts by up to a
third, which no regression bound can absorb. The benchmark therefore times a
small fixed piece of work -- its own TFC reader and simulator on fixed
circuits, never revopt -- every half second inside the process being
measured, and scales that process's times to the speed at which this
reference takes NOMINAL_S. Raw times are reported beside the scaled ones.
"""
from __future__ import annotations

import gc
import time

from check import permutation, read_tfc
from workloads import first_circuits

# The reference's time on an idle 2.1 GHz Xeon, 2-vCPU virtual machine.
NOMINAL_S = 0.003
EVERY_S = 0.5

_TEXTS = first_circuits("long-narrow", 0, 2)
_CIRCUITS = [read_tfc(t) for t in first_circuits("fuzz", 0, 24)]


def sample() -> float:
    """Seconds the reference work takes now; the collector is paused so that
    the measured program's heap does not slow the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for text in _TEXTS:
            read_tfc(text)
        for c in _CIRCUITS:
            permutation(c)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(samples: list[float]) -> float:
    """How much slower than nominal the machine ran: mean sample / NOMINAL_S."""
    return sum(samples) / len(samples) / NOMINAL_S
