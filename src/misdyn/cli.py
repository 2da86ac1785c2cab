"""Command line front end.

Subcommands: parse, simulate, sweep, clock, baker, lift. All randomness
flows from one seeded generator, so a fixed seed reproduces outputs
byte for byte.
"""

import argparse
import random
import sys

from . import analysis, constructions, digraph, parsing, system
from .rational import format_rational, parse_rational


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _parse_x0(text):
    parts = [p for p in text.replace(",", " ").split() if p]
    return system.SimplexVector(parse_rational(p) for p in parts)


def cmd_parse(args):
    graphs = digraph.read_sequence_text(_read(args.input))
    tree = parsing.parse(graphs)
    dump = tree.dump()
    if args.dump:
        _write(args.dump, dump)
    else:
        sys.stdout.write(dump)
    if args.dot:
        _write(args.dot, tree.to_dot())
    print(f"leaves={tree.length} depth={tree.depth()}")
    return 0


def cmd_simulate(args):
    sys_ = system.read_mis_config(_read(args.input))
    if args.delta is not None:
        sys_ = sys_.with_delta(parse_rational(args.delta))
    x0 = _parse_x0(args.x0)
    if args.mode == "dyadic":
        # Lossy arithmetic: report the trace-level verdict only; the
        # exactness-based certificates need exact rationals.
        trace = system.orbit(
            sys_, x0, args.horizon, mode="dyadic", dyadic_bits=args.dyadic_bits
        )
        if trace.verdict.status == system.EXACT_PERIODIC:
            summary = (
                f"verdict=periodic transient={trace.verdict.transient} "
                f"period={trace.verdict.period}"
            )
        else:
            summary = "verdict=unresolved"
        if trace.inexact:
            summary += " inexact=1"
    else:
        verdict, trace = analysis.detect_period(
            sys_,
            x0,
            args.horizon,
            mode=args.mode,
            bit_cap=args.bit_cap,
            return_trace=True,
        )
        bits = [f"verdict={verdict.status}"]
        if verdict.transient is not None:
            bits.append(f"transient={verdict.transient}")
        if verdict.period is not None:
            bits.append(f"period={verdict.period}")
        if verdict.tau_block is not None:
            bits.append(f"tau={format_rational(verdict.tau_block)}")
        summary = " ".join(bits)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="\n") as fh:
            system.write_trace_csv(trace, fh, exact=not args.decimal)
    print(summary)
    return 0


def cmd_sweep(args):
    sys_ = system.read_mis_config(_read(args.input))
    least = 2 if args.include_endpoints else 1
    if args.grid_points < least:
        raise ValueError(f"--grid-points must be at least {least}")
    if args.include_endpoints:
        inner = analysis.interior_grid(sys_.omega, args.grid_points - 2)
        grid = [-sys_.omega] + inner + [sys_.omega]
    else:
        grid = analysis.interior_grid(sys_.omega, args.grid_points)
    rng = random.Random(args.seed)
    samples = [
        system.sample_simplex(rng, sys_.n, denominator=args.denominator)
        for _ in range(args.samples)
    ]
    report = analysis.delta_sweep(sys_, grid, samples, args.horizon)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        report.write_csv(fh)
    print(
        f"cells={len(report.entries)} resolved={report.resolved_fraction():.4f} "
        f"unresolved={report.unresolved_fraction():.4f}"
    )
    return 0


def cmd_clock(args):
    if args.trace_steps < 1:
        raise ValueError("--trace-steps must be at least 1")
    verdict = constructions.measure_clock_period(args.levels, args.horizon)
    if args.trace:
        sys_, x0 = constructions.build_clock(args.levels)
        trace = system.orbit(sys_, x0, min(args.horizon, args.trace_steps))
        with open(args.trace, "w", encoding="utf-8", newline="\n") as fh:
            system.write_trace_csv(trace, fh, exact=not args.decimal)
    if verdict.status == analysis.EXACT_PERIODIC:
        print(f"period={verdict.period} transient={verdict.transient}")
    else:
        print(f"unresolved horizon={args.horizon}")
    return 0


def cmd_baker(args):
    sys_, sampler = constructions.build_baker()
    if args.delta is not None:
        sys_ = sys_.with_delta(parse_rational(args.delta))
    if args.x0:
        x0 = _parse_x0(args.x0)
    else:
        x0 = sampler(random.Random(args.seed))
    trace = system.orbit(sys_, x0, args.steps, mode="capped", bit_cap=args.bit_cap)
    lines = ["step,cell,z\n"]
    for t, (cell, state) in enumerate(zip(trace.itinerary, trace.states)):
        cell_txt = "D" if cell is system.ON_DISCONTINUITY else str(cell)
        _, z = constructions.baker_coordinates(state)
        z_txt = format_rational(z) if not args.decimal else repr(float(z))
        lines.append(f"{t},{cell_txt},{z_txt}\n")
    _write(args.out, "".join(lines))
    print(f"steps={len(trace.itinerary)} out={args.out}")
    return 0


def cmd_lift(args):
    a, b, xi, threshold = system.read_lift_config(_read(args.input))
    lifted = system.kronecker_variance_lift(a, b, xi, threshold)
    _write(args.out, system.write_mis_config(lifted))
    print(f"n={lifted.n} out={args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="misdyn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a digraph sequence into its tree")
    p.add_argument("input")
    p.add_argument("--dump", help="write the indented tree dump here")
    p.add_argument("--dot", help="write a DOT rendering here")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("simulate", help="simulate a system config")
    p.add_argument("input")
    p.add_argument("--x0", required=True, help="comma separated rationals")
    p.add_argument("--horizon", type=int, default=10_000)
    p.add_argument("--delta", help="override the config delta")
    p.add_argument("--trace", help="write a step/cell/state CSV here")
    p.add_argument("--decimal", action="store_true", help="CSV as floats")
    p.add_argument("--mode", choices=("exact", "capped", "dyadic"), default="capped")
    p.add_argument("--bit-cap", type=int, default=system.DEFAULT_BIT_CAP)
    p.add_argument("--dyadic-bits", type=int, default=53)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="delta sweep with period verdicts")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--grid-points", type=int, default=64)
    p.add_argument("--include-endpoints", action="store_true")
    p.add_argument("--samples", type=int, default=4)
    p.add_argument("--denominator", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, default=10_000)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("clock", help="measure the stacked clock period")
    p.add_argument("--levels", type=int, default=0)
    p.add_argument("--horizon", type=int, default=10_000)
    p.add_argument("--trace", help="write a trace CSV here")
    p.add_argument("--trace-steps", type=int, default=256)
    p.add_argument("--decimal", action="store_true")
    p.set_defaults(func=cmd_clock)

    p = sub.add_parser("baker", help="run the chaotic five-state system")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--x0", help="explicit start (comma separated rationals)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta")
    p.add_argument("--out", required=True)
    p.add_argument("--decimal", action="store_true")
    p.add_argument("--bit-cap", type=int, default=system.DEFAULT_BIT_CAP)
    p.set_defaults(func=cmd_baker)

    p = sub.add_parser("lift", help="lift a variance-threshold pair of matrices")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lift)

    return parser


def main(argv=None):
    """Run one subcommand. Every failure it reports ends as one `error:`
    line on stderr and a nonzero exit code: 3 when no cell matches a
    state, 4 past the bit cap, 2 for bad input or an unreadable file."""
    argv = sys.argv[1:] if argv is None else list(argv)
    while "--delta" in argv[:-1]:  # argparse reads a value like -1/8 as an option
        i = argv.index("--delta")
        argv[i : i + 2] = [f"--delta={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except system.NoCellMatch as exc:
        error, code = exc, 3
    except system.BitSizeExceeded as exc:
        error, code = exc, 4
    except (ValueError, OSError) as exc:
        error, code = exc, 2
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
