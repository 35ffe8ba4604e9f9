"""Command line front end.

Every subcommand prints either human-readable text or machine-readable
JSON/CSV and exits 0 only when the run's internal checks pass: identity
mismatches, unexpected cycles, cycle-scan starts left undecided, a `seq`
chain that runs out of its step budget before reaching 1, sweep failures
and coverage gaps all exit 1. Usage problems, including values the
library rejects, cannot index or cannot hold in memory, and a stdout
that is closed or full exit 2 with a one-line error. Output for a given
configuration is stable byte-for-byte except for wall-time fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterable

from . import __version__
from .core import DEFAULT_MAX_STEPS, _require_positive_int, chain_product, trajectory
from .counting import totals
from .inverse import SubsetTag, generate_table, inverse_bfs, table_to_csv, uniqueness_check
from .ranges import iterate_ranges
from .verify import (
    assumption_bold_values,
    cross_check_totals,
    cycle_scan,
    render_assumption_table,
    reproduce_assumption_table,
    verify_forward,
)

USAGE_ERROR = 2
CHECK_FAILED = 1


def _write_lines(lines: Iterable[str]) -> None:
    # formatted in full before the first byte goes out, so that a value too
    # long to print leaves stdout empty rather than cut short
    sys.stdout.write("".join(line + "\n" for line in lines))


def _cmd_seq(args: argparse.Namespace) -> int:
    t = trajectory(args.start, args.max_steps)
    steps = len(t.values) - 1
    info = {
        "start": t.start,
        "terminated": t.terminated,
        "steps": steps,
        "even_steps": t.even_steps,
        "odd_steps": t.odd_steps,
        "peak": t.peak,
        "values": list(t.values),
    }
    if steps:
        prod = chain_product(t)
        info["chain_product"] = f"{prod.numerator}/{prod.denominator}"
    if args.format == "json":
        print(json.dumps(info))
    else:
        print(" -> ".join(str(v) for v in t.values))
        print(
            f"steps={steps} even={t.even_steps} odd={t.odd_steps} "
            f"peak={t.peak} terminated={t.terminated}"
        )
        if "chain_product" in info:
            print(f"chain product = {info['chain_product']}")
    if not t.terminated:
        print(f"chain from {t.start} did not reach 1 within max_steps={args.max_steps}",
              file=sys.stderr)
        return CHECK_FAILED
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    tag = SubsetTag.EVEN_POWER if args.subset == "even" else SubsetTag.ODD_POWER
    table = generate_table(tag, args.rows, args.cols)
    if args.format == "csv":
        sys.stdout.write(table_to_csv(table))
    elif args.format == "json":
        print(json.dumps(table.to_dict()))
    else:
        xs = [r.x for r in table.rows[0][1]]
        lines = ["n2\\x  " + "  ".join(str(x) for x in xs)]
        for n2, recs in table.rows:
            cells = [f"{r.n1}{'' if r.generates else '*'}" for r in recs]
            lines.append(f"{n2}:  " + "  ".join(cells))
        lines.append("(* marks numbers that generate nothing further: n1 divisible by 3)")
        _write_lines(lines)
    return 0


def _cmd_totals(args: argparse.Namespace) -> int:
    _require_positive_int(args.kmax, "kmax", minimum=2)
    reports = [totals(k) for k in range(2, args.kmax + 1)]
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports]))
    else:
        _write_lines(
            f"kN={r.k_n} N={r.n} To={r.t_odd} Te={r.t_even} T={r.t_total} "
            f"brute={r.brute_count} [{'ok' if r.identity_holds else 'MISMATCH'}]"
            for r in reports
        )
    return 0 if all(r.identity_holds for r in reports) else CHECK_FAILED


def _cmd_range_iter(args: argparse.Namespace) -> int:
    trace = iterate_ranges(args.start, args.iters)
    if args.format == "json":
        sys.stdout.write(trace.to_jsonl())
    else:
        lines = [
            f"N={s.n} pN={s.p_n} No={s.n_odd} Ne={s.n_even} "
            f"-> {s.chosen} (growth {s.growth:+d})"
            for s in trace.states
        ]
        if trace.stalled:
            lines.append(f"stalled at index {trace.stall_index}")
        _write_lines(lines)
    unexpected_stall = trace.stalled and trace.states[trace.stall_index].p_n > 3
    return CHECK_FAILED if unexpected_stall else 0


def _cmd_verify_forward(args: argparse.Namespace) -> int:
    report = verify_forward(args.bound, args.max_steps, args.shards)
    if args.format == "json":
        print(json.dumps(report.to_dict()))
    else:
        print(
            f"bound={report.bound} verified={report.verified} "
            f"failures={len(report.failures)} max_steps_used={report.max_steps_used} "
            f"shards={report.shards} wall_time={report.wall_time:.3f}s"
        )
        for start, reason in report.failures[:20]:
            print(f"  FAIL {start}: {reason}")
    return 0 if report.ok else CHECK_FAILED


def _cmd_verify_inverse(args: argparse.Namespace) -> int:
    report = inverse_bfs(args.bound, args.value_cap, args.x_max)
    if args.format == "json":
        print(json.dumps(report.to_dict()))
    else:
        print(
            f"bound={report.bound} cap={report.value_cap} xmax={report.x_max} "
            f"reached={len(report.reached)} unreached={len(report.unreached)} "
            f"expanded={report.nodes_expanded}"
        )
        print("note: the pair (n2=1, x=2) maps 1 to itself and is never expanded")
        if report.unreached:
            missing = sorted(report.unreached)
            print(f"unreached: {missing[:20]}{' ...' if len(missing) > 20 else ''}")
    return 0 if not report.unreached else CHECK_FAILED


def _cmd_cycle_scan(args: argparse.Namespace) -> int:
    report = cycle_scan(args.bound, args.max_steps)
    cycles = report.cycles
    undecided = ""
    if report.undecided:
        first = ", ".join(str(n) for n in report.undecided[:10])
        more = " ..." if len(report.undecided) > 10 else ""
        undecided = (
            f"{len(report.undecided)} start(s) undecided within "
            f"max_steps={args.max_steps}: {first}{more}"
        )
        print(undecided, file=sys.stderr)
    if args.format == "json":
        print(json.dumps([{"members": list(c.values[:-1])} for c in cycles]))
    else:
        for c in cycles:
            print(" -> ".join(str(v) for v in c.values))
        print(f"{len(cycles)} cycle(s) found")
        if undecided:
            print(undecided)
    return 0 if report.ok else CHECK_FAILED


def _cmd_assumption_table(args: argparse.Namespace) -> int:
    rows = reproduce_assumption_table(args.start)
    if args.format == "json":
        bold = assumption_bold_values(args.start)
        out = []
        for r in rows:
            d = r.to_dict()
            d["bold"] = [v in bold for v in r.values]
            out.append(d)
        print(json.dumps(out))
    else:
        sys.stdout.write(render_assumption_table(rows, args.start))
    return 0


def _cmd_cross_check(args: argparse.Namespace) -> int:
    entries = cross_check_totals(args.kmax)
    if args.format == "json":
        print(json.dumps([e.to_dict() for e in entries]))
    else:
        for e in entries:
            t = e.totals
            mark = "ok" if e.counts_match else "MISMATCH"
            print(
                f"kN={t.k_n} N={t.n} T={t.t_total} brute={t.brute_count} "
                f"root={e.root_row_count} opow={e.opow_count} epow={e.epow_count} [{mark}]"
            )
    return 0 if all(e.counts_match for e in entries) else CHECK_FAILED


def _cmd_uniqueness(args: argparse.Namespace) -> int:
    report = uniqueness_check(args.bound)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "bound": report.bound,
                    "records_checked": report.records_checked,
                    "violations": [
                        {"n1": n1, "sources": [list(s) for s in srcs]}
                        for n1, srcs in report.violations
                    ],
                }
            )
        )
    else:
        print(f"bound={report.bound} records={report.records_checked} "
              f"violations={len(report.violations)}")
    if report.records_checked != report.records_expected:
        print(f"records checked: {report.records_checked}, expected {report.records_expected}", file=sys.stderr)
    return 0 if report.ok else CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared afterwards.

    Parsing only reads the parser: each call's values live in its own
    Namespace, and the handlers look the library functions up when they
    run. So every main() call in a process can share this one object.
    """
    parser = argparse.ArgumentParser(
        prog="collatzkit",
        description="Collatz chains, inverse predecessor tables, counting "
        "identities, range recurrence and brute-force cross-checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, choices=("text", "json")) -> None:
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("seq", help="walk one forward chain")
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    add_format(p)
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("tables", help="predecessor tables for one residue class")
    p.add_argument("--class", dest="subset", choices=("even", "odd"), required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    add_format(p, ("text", "json", "csv"))
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("totals", help="closed-form totals vs brute count")
    p.add_argument("--kmax", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_totals)

    p = sub.add_parser("range-iter", help="iterate the range recurrence")
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_range_iter)

    p = sub.add_parser("verify-forward", help="descent sweep over odd starts")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    p.add_argument("--shards", type=int, default=None)
    add_format(p)
    p.set_defaults(func=_cmd_verify_forward)

    p = sub.add_parser("verify-inverse", help="inverse expansion coverage")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--value-cap", type=int, required=True)
    p.add_argument("--x-max", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_verify_inverse)

    p = sub.add_parser("cycle-scan", help="scan for closed chains")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    add_format(p)
    p.set_defaults(func=_cmd_cycle_scan)

    p = sub.add_parser("assumption-table", help="demonstration rows for a range")
    p.add_argument("--start", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_assumption_table)

    p = sub.add_parser("cross-check", help="totals vs per-class record counts")
    p.add_argument("--kmax", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_cross_check)

    p = sub.add_parser("uniqueness", help="collision scan of the inverse map")
    p.add_argument("--bound", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_uniqueness)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, TypeError, OverflowError, OSError) as exc:
        # the library rejects a value the parser let through, or one too
        # large for the machine to index, or stdout is closed or full
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # what stdout still holds goes to devnull, not to a traceback at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return USAGE_ERROR
    except MemoryError:  # its message is empty, so name the cause here
        print("error: out of memory: a value is too large for this machine", file=sys.stderr)
        return USAGE_ERROR
