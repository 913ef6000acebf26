"""Quantum-cost optimization of reversible circuits built from
multiple-control Toffoli gates with positive and negative controls."""

from .core import (
    MAX_SIM_WIDTH,
    Circuit,
    Gate,
    WidthLimitError,
    WidthMismatchError,
    apply_gate,
    commutes,
    equivalent,
    gate_fires,
    matches_spec,
    mct,
    simulate,
)
from .cost import circuit_cost, gate_cost
from .ctr import (
    Cover,
    Cube,
    Kmap,
    Window,
    build_kmap,
    cover_to_gates,
    ctr_optimize,
    minimize_cover,
)
from .io import ParseError, parse_circuit, parse_spec, write_circuit
from .pipeline import (
    OptimizeConfig,
    OptimizeReport,
    improvement_percent,
    improvement_percent_rounded,
    optimize,
)
from .rules import (
    RewriteResult,
    apply_gpr,
    apply_rctr,
    apply_rewrite,
    cancel_not_pairs,
)

__all__ = [
    "MAX_SIM_WIDTH",
    "Circuit",
    "Cover",
    "Cube",
    "Gate",
    "Kmap",
    "OptimizeConfig",
    "OptimizeReport",
    "ParseError",
    "RewriteResult",
    "WidthLimitError",
    "WidthMismatchError",
    "Window",
    "apply_gate",
    "apply_gpr",
    "apply_rctr",
    "apply_rewrite",
    "build_kmap",
    "cancel_not_pairs",
    "circuit_cost",
    "commutes",
    "cover_to_gates",
    "ctr_optimize",
    "equivalent",
    "gate_cost",
    "gate_fires",
    "improvement_percent",
    "improvement_percent_rounded",
    "matches_spec",
    "mct",
    "minimize_cover",
    "optimize",
    "parse_circuit",
    "parse_spec",
    "simulate",
    "write_circuit",
]
