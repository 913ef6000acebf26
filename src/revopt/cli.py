"""Command-line front end.

    revopt cost FILE
    revopt equiv FILE1 FILE2
    revopt equiv FILE --spec "(1,0,3,2,5,7,4,6)"
    revopt sim FILE --all | --state BITS
    revopt optimize FILE [--rules pr,gpr,ctr,rctr,delete,move|all]
                         [--max-iter N] [--no-verify] [--out FILE]
                         [--report text|json]

FILE may be '-' for stdin. Exit codes: 0 success / equivalent,
1 not equivalent, 2 usage or parse error, 3 simulation width limit exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys

from .core import Circuit, WidthLimitError, WidthMismatchError, apply_gate, simulate
from .cost import circuit_cost
from .io import ParseError, parse_circuit, parse_spec, write_circuit
from .pipeline import (
    ALL_RULES,
    OptimizeConfig,
    improvement_percent_rounded,
    optimize,
)

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def _read_circuit(path: str) -> Circuit:
    text = sys.stdin.read() if path == "-" else open(path, encoding="utf-8").read()
    return parse_circuit(text)


def _cmd_cost(args) -> int:
    c = _read_circuit(args.file)
    print(f"gates={len(c.gates)} cost={circuit_cost(c)}")
    return EXIT_OK


def _cmd_equiv(args) -> int:
    if (args.file2 is None) == (args.spec is None):
        print("equiv needs either a second file or --spec", file=sys.stderr)
        return EXIT_USAGE
    c1 = _read_circuit(args.file1)
    p1 = simulate(c1)
    if args.spec is not None:
        p2 = parse_spec(args.spec)
        if len(p2) != len(p1):
            raise WidthMismatchError(
                f"spec length {len(p2)} does not match circuit width {c1.width}"
            )
    else:
        c2 = _read_circuit(args.file2)
        if c2.width != c1.width:
            raise WidthMismatchError(f"widths differ: {c1.width} vs {c2.width}")
        p2 = simulate(c2)
    for i, (a, b) in enumerate(zip(p1, p2)):
        if a != b:
            print(f"not equivalent: first differing input state {i} "
                  f"({i:0{c1.width}b})")
            return EXIT_NOT_EQUIVALENT
    print("equivalent")
    return EXIT_OK


def _cmd_sim(args) -> int:
    c = _read_circuit(args.file)
    if args.all:
        print("(" + ",".join(str(x) for x in simulate(c)) + ")")
        return EXIT_OK
    bits = args.state
    if len(bits) != c.width or set(bits) - {"0", "1"}:
        print(f"--state needs a {c.width}-bit binary string", file=sys.stderr)
        return EXIT_USAGE
    state = int(bits, 2)
    for g in c.gates:
        state = apply_gate(g, state, c.width)
    print(f"{state:0{c.width}b}")
    return EXIT_OK


def _parse_rules(spec: str) -> frozenset[str]:
    names = [s.strip().upper() for s in spec.split(",") if s.strip()]
    if not names:
        raise ValueError("no rules given")
    rules = frozenset(names)
    unknown = rules - ALL_RULES - {"ALL"}
    if unknown:
        raise ValueError(f"unknown rules: {','.join(sorted(unknown)).lower()}")
    return ALL_RULES if "ALL" in rules else rules


def _cmd_optimize(args) -> int:
    c = _read_circuit(args.file)
    try:
        rules = _parse_rules(args.rules)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    cfg = OptimizeConfig(
        enabled_rules=rules,
        max_iterations=args.max_iter,
        verify=not args.no_verify,
    )
    opt, report = optimize(c, cfg)
    text = write_circuit(opt)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)

    imp = (
        improvement_percent_rounded(report.cost_before, report.cost_after)
        if report.cost_before > 0
        else 0
    )
    if args.report == "json":
        payload = {
            "cost_before": report.cost_before,
            "cost_after": report.cost_after,
            "gates_before": report.gates_before,
            "gates_after": report.gates_after,
            "improvement_percent": imp,
            "iterations": report.iterations_run,
            "equivalence_checked": report.equivalence_checked,
            "passes": [
                {
                    "name": p.name,
                    "cost_before": p.cost_before,
                    "cost_after": p.cost_after,
                    "gates_before": p.gates_before,
                    "gates_after": p.gates_after,
                    "committed": p.committed,
                }
                for p in report.passes
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"cost_before={report.cost_before} cost_after={report.cost_after} "
            f"improvement={imp}% gates_before={report.gates_before} "
            f"gates_after={report.gates_after} iterations={report.iterations_run} "
            f"verified={'yes' if report.equivalence_checked else 'no'}"
        )
        for p in report.passes:
            if p.committed:
                print(f"  pass {p.name}: cost {p.cost_before} -> {p.cost_after}, "
                      f"gates {p.gates_before} -> {p.gates_after}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revopt",
        description="Quantum-cost optimization of mixed-polarity Toffoli circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cost", help="print gate count and quantum cost")
    p.add_argument("file")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("equiv", help="check two circuits (or circuit vs spec)")
    p.add_argument("file1")
    p.add_argument("file2", nargs="?")
    p.add_argument("--spec", help='permutation spec, e.g. "(1,0,3,2,5,7,4,6)"')
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("sim", help="simulate one state or the full permutation")
    p.add_argument("file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--state", help="input state as a binary string (line 0 = MSB)")
    g.add_argument("--all", action="store_true", help="print the full permutation")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("optimize", help="optimize a circuit and report")
    p.add_argument("file")
    p.add_argument("--rules", default="all",
                   help="comma list of pr,gpr,ctr,rctr,delete,move, or all")
    p.add_argument("--max-iter", type=int, default=32)
    p.add_argument("--no-verify", action="store_true",
                   help="skip the simulation equivalence check")
    p.add_argument("--out", help="write the optimized circuit here (default stdout)")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_optimize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, WidthMismatchError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except WidthLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
