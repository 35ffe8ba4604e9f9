"""Checks of one job's exit code and output.

Each check compares against the literal oracles or against a property the
method must have, never against stored output. A check returns None when
the job's result is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import oracles

USAGE_ERROR = 2
CHECK_FAILED = 1
# starts whose literal descent is checked against max_steps_used, per sweep
SAMPLE_LARGE, SAMPLE_SMALL = 2000, 200


class Checker:
    """Checks results, caching oracle work per job so that repeated rounds
    cost one oracle pass."""

    def __init__(self, seed: int):
        self.seed = seed
        self._chain_caps: dict[int, list[tuple[int, int, int]]] = {}
        self._walks: dict[int, list[int]] = {}
        self._verdicts: dict[tuple, str | None] = {}

    def check(self, argv: tuple[str, ...], code: int, out: str) -> str | None:
        key = (argv, code, sweep_report(argv[0], out))
        if key not in self._verdicts:
            opts = {k[2:]: v for k, v in zip(argv[1::2], argv[2::2])}
            try:
                self._verdicts[key] = _CHECKS[argv[0]](self, opts, code, out)
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                self._verdicts[key] = f"unreadable output ({type(exc).__name__}: {exc})"
        return self._verdicts[key]

    def odd_chain_caps(self, bound: int) -> list[tuple[int, int, int]]:
        if bound not in self._chain_caps:
            self._chain_caps[bound] = [(n, *oracles.odd_chain_caps(n)) for n in range(1, bound + 1, 2)]
        return self._chain_caps[bound]

    def walk(self, start: int) -> list[int]:
        if start not in self._walks:
            self._walks[start] = oracles.walk(start)
        return self._walks[start]

    def sample(self, bound: int, size: int) -> list[int]:
        rng = random.Random(f"{self.seed}:{bound}")
        return [rng.randrange(1, bound + 1, 2) for _ in range(size)]


def sweep_report(command: str, out: str) -> str:
    """The output without the fields that may differ between runs of one
    sweep: wall_time, and shards, which the report echoes."""
    if command != "verify-forward":
        return out
    try:
        data = json.loads(out)
    except ValueError:
        return out
    if isinstance(data, dict):
        data.pop("wall_time", None)
        data.pop("shards", None)
    return json.dumps(data, sort_keys=True)


def _expect_code(code: int, want: int) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


def _int(opts: dict, name: str, default: int | None = None) -> int:
    return int(opts[name]) if name in opts else default


def check_seq(c: Checker, opts: dict, code: int, out: str) -> str | None:
    start, max_steps = _int(opts, "start"), _int(opts, "max-steps", 100_000)
    if start < 1 or max_steps < 1:
        return _expect_code(code, USAGE_ERROR)
    if code != 0:
        return _expect_code(code, 0)
    d = json.loads(out)
    values = c.walk(start)
    if d["values"] != values:
        return f"seq {start}: values differ from the literal walk"
    steps = values[:-1]
    if (d["steps"], d["even_steps"], d["odd_steps"]) != (
        len(steps), sum(v % 2 == 0 for v in steps), sum(v % 2 for v in steps)
    ):
        return f"seq {start}: step counts disagree with the values"
    if d["peak"] != max(values) or d["terminated"] is not True:
        return f"seq {start}: peak or termination wrong"
    if start > 1 and Fraction(d["chain_product"]) != Fraction(1, start):
        return f"seq {start}: chain product {d['chain_product']} is not 1/{start}"
    return None


def check_verify_forward(c: Checker, opts: dict, code: int, out: str) -> str | None:
    bound, max_steps = _int(opts, "bound"), _int(opts, "max-steps", 100_000)
    shards = _int(opts, "shards", 1)
    if bound < 1 or max_steps < 1 or shards < 1:
        return _expect_code(code, USAGE_ERROR)
    record, record_count = oracles.record_start(bound)
    if record_count > max_steps:
        return _expect_code(code, CHECK_FAILED)
    if code != 0:
        return _expect_code(code, 0)
    d = json.loads(out)
    if d["bound"] != bound or d["verified"] != (bound + 1) // 2 or d["failures"]:
        return f"verify-forward {bound}: verified {d['verified']} with {len(d['failures'])} failures"
    used = d["max_steps_used"]
    if used != oracles.descent_count(record):
        return f"verify-forward {bound}: max_steps_used {used}, record start {record} needs {record_count}"
    for n in c.sample(bound, SAMPLE_LARGE if bound > 100_000 else SAMPLE_SMALL):
        if oracles.descent_count(n) > used:
            return f"verify-forward {bound}: start {n} needs more than max_steps_used {used}"
    return None


def check_verify_inverse(c: Checker, opts: dict, code: int, out: str) -> str | None:
    bound, cap, x_max = _int(opts, "bound"), _int(opts, "value-cap"), _int(opts, "x-max")
    if bound < 1 or cap < bound or x_max < 1:
        return _expect_code(code, USAGE_ERROR)
    gaps = [n for n, peak, run in c.odd_chain_caps(bound) if peak > cap or run > x_max]
    if (err := _expect_code(code, CHECK_FAILED if gaps else 0)):
        return err
    d = json.loads(out)
    if d["unreached"] != gaps:
        return f"verify-inverse {bound}/{cap}/{x_max}: unreached differs from the forward oracle's {len(gaps)} gaps"
    if d["reached_count"] + d["unreached_count"] != oracles.odd_count(1, bound) or d["unreached_count"] != len(gaps):
        return f"verify-inverse {bound}/{cap}/{x_max}: reached + unreached do not cover the odds"
    return None


def check_cycle_scan(c: Checker, opts: dict, code: int, out: str) -> str | None:
    bound, max_steps = _int(opts, "bound"), _int(opts, "max-steps", 100_000)
    if bound < 1 or max_steps < 1:
        return _expect_code(code, USAGE_ERROR)
    # a start whose walk outlasts the budget is undecided, so the scan must fail
    undecided = oracles.record_start(bound)[1] > max_steps
    if (err := _expect_code(code, CHECK_FAILED if undecided else 0)):
        return err
    cycles = [cyc["members"] for cyc in json.loads(out)]
    for members in cycles:
        if any(oracles.step(a) != b for a, b in zip(members, members[1:] + members[:1])):
            return f"cycle-scan {bound}: {members} is not a cycle"
    if not undecided and cycles != [[1, 4, 2]]:
        return f"cycle-scan {bound}: cycles {cycles}, expected only [1, 4, 2]"
    return None


def check_tables(c: Checker, opts: dict, code: int, out: str) -> str | None:
    rows, cols = _int(opts, "rows"), _int(opts, "cols")
    if rows < 1 or cols < 1:
        return _expect_code(code, USAGE_ERROR)
    if code != 0:
        return _expect_code(code, 0)
    d = json.loads(out)
    if len(d["rows"]) != rows or any(len(r["records"]) != cols for r in d["rows"]):
        return f"tables {rows}x{cols}: wrong shape"
    for row in d["rows"]:
        for rec in row["records"]:
            n1, n2, x = rec["n1"], rec["n2"], rec["x"]
            if n2 != row["n2"] or 3 * n1 + 1 != n2 << x or rec["generates"] != (n1 % 3 != 0):
                return f"tables: bad cell n2={n2} x={x} n1={n1}"
    return None


def _check_totals_rows(rows: list[dict], kmax: int) -> str | None:
    if [r["kN"] for r in rows] != list(range(2, kmax + 1)):
        return f"rows for k = {[r['kN'] for r in rows]}, expected 2..{kmax}"
    for r in rows:
        n = (4 ** r["kN"] - 1) // 3
        if r["N"] != n or r["T"] != oracles.odd_count(1, n) or r["identityHolds"] is not True:
            return f"k={r['kN']}: T={r['T']} but [1, {n}] holds {oracles.odd_count(1, n)} odds"
    return None


def check_totals(c: Checker, opts: dict, code: int, out: str) -> str | None:
    kmax = _int(opts, "kmax")
    if kmax < 2:
        return _expect_code(code, USAGE_ERROR)
    return _expect_code(code, 0) or _check_totals_rows(json.loads(out), kmax)


def check_cross_check(c: Checker, opts: dict, code: int, out: str) -> str | None:
    kmax = _int(opts, "kmax")
    if kmax < 2:
        return _expect_code(code, USAGE_ERROR)
    if (err := _expect_code(code, 0) or _check_totals_rows(rows := json.loads(out), kmax)):
        return err
    for r in rows:
        if r["rootRowCount"] + r["opowCount"] + r["epowCount"] != oracles.odd_count(1, r["N"]):
            return f"cross-check k={r['kN']}: class counts do not sum to the odds of [1, {r['N']}]"
    return None


def check_range_iter(c: Checker, opts: dict, code: int, out: str) -> str | None:
    start, iters = _int(opts, "start"), _int(opts, "iters")
    if start < 3 or start % 2 == 0 or iters < 1:
        return _expect_code(code, USAGE_ERROR)
    if code != 0:
        return _expect_code(code, 0)
    states = [json.loads(line) for line in out.splitlines()]
    n = start
    for i, s in enumerate(states):
        if s["n"] != n or s["p_n"] != (n + 1) // 2:
            return f"range-iter {start}: state {i} does not continue the chain"
        if s["chosen"] > s["n_odd"] or s["chosen"] > s["n_even"] or s["growth"] != s["chosen"] - n:
            return f"range-iter {start}: state {i} does not choose the smaller candidate"
        if s["growth"] <= 0:
            if s["p_n"] > 3:
                return f"range-iter {start}: stall at p={s['p_n']} > 3"
            return None if i == len(states) - 1 else f"range-iter {start}: ran on past a stall"
        n = s["chosen"]
    return None if len(states) == iters else f"range-iter {start}: {len(states)} states, expected {iters}"


def check_uniqueness(c: Checker, opts: dict, code: int, out: str) -> str | None:
    bound = _int(opts, "bound")
    if bound < 1:
        return _expect_code(code, USAGE_ERROR)
    if code != 0:
        return _expect_code(code, 0)
    d = json.loads(out)
    # every odd n1 >= 3 has exactly one (n2, x) with 3*n1 + 1 = 2^x * n2
    if d["violations"] or d["records_checked"] != oracles.odd_count(1, bound) - 1:
        return f"uniqueness {bound}: {d['records_checked']} records, {len(d['violations'])} violations"
    return None


def check_assumption_table(c: Checker, opts: dict, code: int, out: str) -> str | None:
    n0 = _int(opts, "start")
    if n0 < 3 or n0 % 2 == 0:
        return _expect_code(code, USAGE_ERROR)
    if code != 0:
        return _expect_code(code, 0)
    claimed: list[int] = []
    for row in json.loads(out):
        values = row["values"]
        if row["start"] != 1 and values[0] != row["start"]:
            return f"assumption-table {n0}: row {row['start']} does not begin at its start"
        prev = row["start"]
        for v in values if row["start"] == 1 else values[1:]:
            if oracles.step(prev) != v:
                return f"assumption-table {n0}: row {row['start']} breaks the step rule at {prev}"
            prev = v
        claimed += row["new_odds"]
    if sorted(claimed) != list(range(1, n0 + 1, 2)):
        return f"assumption-table {n0}: new_odds do not partition the odds of [1, {n0}]"
    return None


_CHECKS = {
    "seq": check_seq,
    "verify-forward": check_verify_forward,
    "verify-inverse": check_verify_inverse,
    "cycle-scan": check_cycle_scan,
    "tables": check_tables,
    "totals": check_totals,
    "cross-check": check_cross_check,
    "range-iter": check_range_iter,
    "uniqueness": check_uniqueness,
    "assumption-table": check_assumption_table,
}
