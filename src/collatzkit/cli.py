"""Command line front end.

Every subcommand prints either human-readable text or machine-readable
JSON/CSV and exits 0 only when the run's internal checks pass: identity
mismatches, unexpected cycles, cycle-scan starts left undecided, a `seq`
chain that runs out of its step budget before reaching 1, sweep failures
and coverage gaps all exit 1. Usage problems, including values the
library rejects, cannot index or cannot hold in memory, and a stdout
that is closed or full exit 2 with a one-line error. Output for a given
configuration is stable byte-for-byte except for wall-time fields.

Each handler `_cmd_*` returns `(ok, lines)`: whether the run's checks
passed, and its stdout lines, without their newlines. A handler writes
only its notes, to stderr. `main` alone writes stdout, in one call once
every line is formatted, so that a value too long to print leaves stdout
empty rather than cut short, and a stdout that takes only part of it
raises; and `main` alone turns `ok` into the exit code.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys

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

Output = tuple[bool, list[str]]


def _cmd_seq(args: argparse.Namespace) -> Output:
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
        lines = [json.dumps(info)]
    else:
        lines = [
            " -> ".join(str(v) for v in t.values),
            f"steps={steps} even={t.even_steps} odd={t.odd_steps} peak={t.peak} terminated={t.terminated}",
        ]
        if steps:
            lines.append(f"chain product = {info['chain_product']}")
    if not t.terminated:
        print(f"chain from {t.start} did not reach 1 within max_steps={args.max_steps}", file=sys.stderr)
    return t.terminated, lines


def _cmd_tables(args: argparse.Namespace) -> Output:
    tag = SubsetTag.EVEN_POWER if args.subset == "even" else SubsetTag.ODD_POWER
    table = generate_table(tag, args.rows, args.cols)
    if args.format == "csv":
        return True, table_to_csv(table).splitlines()
    if args.format == "json":
        return True, [json.dumps(table.to_dict())]
    lines = ["n2\\x  " + "  ".join(str(r.x) for r in table.rows[0][1])]
    for n2, recs in table.rows:
        lines.append(f"{n2}:  " + "  ".join(f"{r.n1}{'' if r.generates else '*'}" for r in recs))
    lines.append("(* marks numbers that generate nothing further: n1 divisible by 3)")
    return True, lines


def _cmd_totals(args: argparse.Namespace) -> Output:
    _require_positive_int(args.kmax, "kmax", minimum=2)
    reports = [totals(k) for k in range(2, args.kmax + 1)]
    ok = all(r.identity_holds for r in reports)
    if args.format == "json":
        return ok, [json.dumps([r.to_dict() for r in reports])]
    return ok, [
        f"kN={r.k_n} N={r.n} To={r.t_odd} Te={r.t_even} T={r.t_total} "
        f"brute={r.brute_count} [{'ok' if r.identity_holds else 'MISMATCH'}]"
        for r in reports
    ]


def _cmd_range_iter(args: argparse.Namespace) -> Output:
    trace = iterate_ranges(args.start, args.iters)
    ok = not (trace.stalled and trace.states[trace.stall_index].p_n > 3)
    if args.format == "json":
        return ok, trace.to_jsonl().splitlines()
    lines = [
        f"N={s.n} pN={s.p_n} No={s.n_odd} Ne={s.n_even} -> {s.chosen} (growth {s.growth:+d})"
        for s in trace.states
    ]
    if trace.stalled:
        lines.append(f"stalled at index {trace.stall_index}")
    return ok, lines


def _cmd_verify_forward(args: argparse.Namespace) -> Output:
    report = verify_forward(args.bound, args.max_steps, args.shards)
    if args.format == "json":
        return report.ok, [json.dumps(report.to_dict())]
    return report.ok, [
        f"bound={report.bound} verified={report.verified} "
        f"failures={len(report.failures)} max_steps_used={report.max_steps_used} "
        f"shards={report.shards} wall_time={report.wall_time:.3f}s",
        *(f"  FAIL {start}: {reason}" for start, reason in report.failures[:20]),
    ]


def _cmd_verify_inverse(args: argparse.Namespace) -> Output:
    report = inverse_bfs(args.bound, args.value_cap, args.x_max)
    ok = not report.unreached
    if args.format == "json":
        return ok, [json.dumps(report.to_dict())]
    lines = [
        f"bound={report.bound} cap={report.value_cap} xmax={report.x_max} "
        f"reached={report.reached_count} unreached={len(report.unreached)} expanded={report.nodes_expanded}",
        "note: the pair (n2=1, x=2) maps 1 to itself and is never expanded",
    ]
    if report.unreached:
        lines.append(f"unreached: {list(report.unreached[:20])}{' ...' if len(report.unreached) > 20 else ''}")
    return ok, lines


def _cmd_cycle_scan(args: argparse.Namespace) -> Output:
    report = cycle_scan(args.bound, args.max_steps)
    undecided = []
    if report.undecided:
        first = ", ".join(str(n) for n in report.undecided[:10])
        more = " ..." if len(report.undecided) > 10 else ""
        undecided = [f"{len(report.undecided)} start(s) undecided within max_steps={args.max_steps}: {first}{more}"]
        print(undecided[0], file=sys.stderr)
    if args.format == "json":
        return report.ok, [json.dumps([{"members": list(c.values[:-1])} for c in report.cycles])]
    return report.ok, [
        *(" -> ".join(str(v) for v in c.values) for c in report.cycles),
        f"{len(report.cycles)} cycle(s) found",
        *undecided,
    ]


def _cmd_assumption_table(args: argparse.Namespace) -> Output:
    rows = reproduce_assumption_table(args.start)
    if args.format == "text":
        return True, render_assumption_table(rows, args.start).splitlines()
    bold = assumption_bold_values(args.start)
    return True, [json.dumps([{**r.to_dict(), "bold": [v in bold for v in r.values]} for r in rows])]


def _cmd_cross_check(args: argparse.Namespace) -> Output:
    entries = cross_check_totals(args.kmax)
    ok = all(e.counts_match for e in entries)
    if args.format == "json":
        return ok, [json.dumps([e.to_dict() for e in entries])]
    return ok, [
        f"kN={e.totals.k_n} N={e.totals.n} T={e.totals.t_total} brute={e.totals.brute_count} "
        f"root={e.root_row_count} opow={e.opow_count} epow={e.epow_count} "
        f"[{'ok' if e.counts_match else 'MISMATCH'}]"
        for e in entries
    ]


def _cmd_uniqueness(args: argparse.Namespace) -> Output:
    report = uniqueness_check(args.bound)
    if args.format == "json":
        violations = [{"n1": n1, "sources": [list(s) for s in srcs]} for n1, srcs in report.violations]
        out = {"bound": report.bound, "records_checked": report.records_checked, "violations": violations}
        lines = [json.dumps(out)]
    else:
        lines = [f"bound={report.bound} records={report.records_checked} violations={len(report.violations)}"]
    if report.records_checked != report.records_expected:
        print(f"records checked: {report.records_checked}, expected {report.records_expected}", file=sys.stderr)
    return report.ok, lines


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

    def add(name, func, help, required=(), defaults=None):
        # one subcommand: its required int flags, then its int flags with
        # defaults, then --format
        p = sub.add_parser(name, help=help)
        for flag in required:
            p.add_argument(flag, type=int, required=True)
        for flag, default in (defaults or {}).items():
            p.add_argument(flag, type=int, default=default)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)

    budget = {"--max-steps": DEFAULT_MAX_STEPS}
    add("seq", _cmd_seq, "walk one forward chain", ["--start"], budget)
    p = sub.add_parser("tables", help="predecessor tables for one residue class")
    p.add_argument("--class", dest="subset", choices=("even", "odd"), required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_tables)
    add("totals", _cmd_totals, "closed-form totals vs brute count", ["--kmax"])
    add("range-iter", _cmd_range_iter, "iterate the range recurrence", ["--start", "--iters"])
    add("verify-forward", _cmd_verify_forward, "descent sweep over odd starts", ["--bound"],
        {**budget, "--shards": None})
    add("verify-inverse", _cmd_verify_inverse, "inverse expansion coverage",
        ["--bound", "--value-cap", "--x-max"])
    add("cycle-scan", _cmd_cycle_scan, "scan for closed chains", ["--bound"], budget)
    add("assumption-table", _cmd_assumption_table, "demonstration rows for a range", ["--start"])
    add("cross-check", _cmd_cross_check, "totals vs per-class record counts", ["--kmax"])
    add("uniqueness", _cmd_uniqueness, "collision scan of the inverse map", ["--bound"])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ok, lines = args.func(args)
        text = "".join(line + "\n" for line in lines)
        raw = getattr(sys.stdout, "buffer", None)
        if isinstance(raw, io.RawIOBase):
            # unbuffered (python -u, PYTHONUNBUFFERED): a raw write may take
            # only part of the text, and TextIOWrapper.write drops the rest
            # unsaid, so the bytes go to the raw file until it takes all or raises
            data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
            while data:
                taken = raw.write(data)
                if not taken:
                    raise BlockingIOError("stdout took no bytes")
                data = data[taken:]
        else:
            sys.stdout.write(text)
        sys.stdout.flush()
        return 0 if ok else CHECK_FAILED
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
