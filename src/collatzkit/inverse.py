"""Inverse predecessor recurrence over the odd numbers.

An odd n1 is a predecessor of odd n2 when 3*n1 + 1 = 2^x * n2 for some
x >= 1, i.e. n1 = (2^x * n2 - 1) / 3 with the division exact. Exactness
splits the odd numbers into three residue classes mod 6:

  n2 = 3j       no solutions at all (these numbers are leaves),
  n2 = 6i + 1   solutions exactly at even x (n2 = 1 included),
  n2 = 6i - 1   solutions exactly at odd x.

The pair (n2, x) = (1, 2) maps 1 onto itself through the terminal cycle;
it is a legitimate table cell but is excluded from tree expansion.

Every odd n1 has exactly one parent, its odd successor, since x must be
the 2-adic valuation of 3*n1 + 1. With the self pair excluded, expansion
from 1 is therefore a tree: inverse_bfs walks it with a plain stack and
needs no visited set, and any split of the open stack gives parts that
share no node, so the walk runs in budgeted rounds, pooled when large.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import _pool, _require_odd, _require_positive_int

SELF_ITERATION = (1, 2)
# A round deals the open stack into WALK_PARTS parts per worker, each
# walking at most WALK_BUDGET nodes; part i goes to worker i % workers. At
# cap 9,038,141 (2,683,277 nodes) that is 16 pooled rounds: 0.23 s against
# 0.41 s in-process on 2 cores (Python 3.11.7, medians of 9). Measured in
# one session, 1 to 4 parts per worker at budgets of 10,000 to 100,000 all
# took 0.20-0.25 s there and one unbudgeted round 0.36-0.39 s; at cap 1e6,
# budgets of 10,000 and 25,000 took 27-34 ms against 33-46 ms at 50,000 and
# more. Any split made once leaves one core with most of the work: cut at
# a breadth-first frontier of 10,490 nodes, one subtree still holds 39% of
# the tree.
WALK_BUDGET = 25_000
WALK_PARTS = 4


class SubsetTag(enum.Enum):
    MULTIPLE_OF_THREE = "multiple-of-three"
    EVEN_POWER = "even-power"
    ODD_POWER = "odd-power"


@dataclass(frozen=True)
class SubsetClass:
    """Residue class of an odd number, with its 6i+-1 index when it has one."""

    tag: SubsetTag
    index: int | None = None


def classify(n: int) -> SubsetClass:
    """Residue class of odd n: n mod 6 decides, index is the i in 6i+-1."""
    _require_odd(n)
    r = n % 6
    if r == 3:
        return SubsetClass(SubsetTag.MULTIPLE_OF_THREE)
    if r == 1:
        i = (n - 1) // 6
        return SubsetClass(SubsetTag.EVEN_POWER, i if i > 0 else None)
    return SubsetClass(SubsetTag.ODD_POWER, (n + 1) // 6)


@dataclass(frozen=True)
class PredecessorRecord:
    """One exact solution n1 = (2^x * n2 - 1) / 3."""

    n2: int
    x: int
    n1: int

    @property
    def n1_class(self) -> SubsetClass:
        return classify(self.n1)

    @property
    def generates(self) -> bool:
        return self.n1 % 3 != 0

    def to_dict(self) -> dict:
        c = classify(self.n1)
        return {
            "n2": self.n2,
            "x": self.x,
            "n1": self.n1,
            "class": c.tag.value,
            "index": c.index,
            "generates": self.generates,
        }


def _records(rows: Iterable[int], n1_cap: int) -> Iterator[tuple[int, int, int]]:
    """The one predecessor-row walk: (n2, x, n1) for every record of the
    odd rows n2 with n1 <= n1_cap, row by row and ascending in x, from the
    smallest admissible x in steps of 2. The self pair (1, 2) is included;
    a multiple of 3 has no row."""
    cap = 3 * n1_cap + 1
    for n2 in rows:
        r = n2 % 3
        if not r:
            continue
        x = 3 - r
        m = n2 << x
        while m <= cap:
            yield n2, x, (m - 1) // 3
            m <<= 2
            x += 2


def _row(n2: int, x_max: int) -> Iterator[tuple[int, int, int]]:
    # x <= x_max is the same as n1 <= ((n2 << x_max) - 1) // 3, n1 rising with x
    return _records((n2,), ((n2 << x_max) - 1) // 3)


def predecessor_of(n2: int, x: int) -> PredecessorRecord | None:
    """The predecessor record for (n2, x), or None when 2^x * n2 != 1 mod 3.

    (1, 2) is returned as a record (it is a real solution, n1 = 1) but is
    skipped by predecessors() so tree expansion never loops on it.
    """
    _require_odd(n2, "n2")
    _require_positive_int(x, "x")
    if (pow(2, x, 3) * n2) % 3 != 1:
        return None
    return PredecessorRecord(n2, x, ((n2 << x) - 1) // 3)


def predecessors(n2: int, x_max: int) -> list[PredecessorRecord]:
    """All records for n2 with x <= x_max, ascending in x, self-pair excluded."""
    _require_odd(n2, "n2")
    _require_positive_int(x_max, "x_max")
    return [PredecessorRecord(*rec) for rec in _row(n2, x_max) if rec[:2] != SELF_ITERATION]


@dataclass(frozen=True)
class PredecessorTable:
    """Rows of predecessor records for one residue class, as in the tables
    of solving numbers: one row per n2, one column per admissible x."""

    subset: SubsetTag
    rows: tuple[tuple[int, tuple[PredecessorRecord, ...]], ...]

    def to_dict(self) -> dict:
        return {
            "subset": self.subset.value,
            "rows": [
                {"n2": n2, "records": [r.to_dict() for r in recs]}
                for n2, recs in self.rows
            ],
        }


def generate_table(tag: SubsetTag, row_count: int, col_count: int) -> PredecessorTable:
    """Tabulate records for the first row_count rows and col_count exponents.

    Even-power rows run n2 = 1, 7, 13, 19, ... (1 belongs to this class);
    odd-power rows run n2 = 5, 11, 17, ... A record whose n1 is a multiple
    of three is a dead end (generates=False): the grey cells.
    """
    _require_positive_int(row_count, "row_count")
    _require_positive_int(col_count, "col_count")
    if tag is SubsetTag.MULTIPLE_OF_THREE:
        raise ValueError("multiples of three have no predecessor rows")
    if tag is SubsetTag.EVEN_POWER:
        row_values = [1] + [6 * i + 1 for i in range(1, row_count)]
        x_max = 2 * col_count
    else:
        row_values = [6 * i - 1 for i in range(1, row_count + 1)]
        x_max = 2 * col_count - 1
    rows = tuple((n2, tuple(PredecessorRecord(*rec) for rec in _row(n2, x_max))) for n2 in row_values)
    return PredecessorTable(subset=tag, rows=rows)


def table_to_csv(table: PredecessorTable) -> str:
    """Flat CSV dump, row-major: n2, x, n1, class, generates."""
    lines = ["n2,x,n1,class,generates"]
    for _, recs in table.rows:
        for r in recs:
            flag = "true" if r.generates else "false"
            lines.append(f"{r.n2},{r.x},{r.n1},{r.n1_class.tag.value},{flag}")
    return "\n".join(lines) + "\n"


def _count_records_by_class(ns: list[int], part: int, parts: int) -> list[tuple[int, int, int]]:
    # for each n of ns, the records with n1 <= n by row class: row n2=1
    # (self pair included), rows 6i-1, rows 6i+1 (n2 > 1); the brute side
    # of the totals check. Only the rows rows[part::parts] of each class
    # are counted, so the parts 0..parts-1 of one n sum to its whole count.
    return [
        (
            _count_rows(range(1, 2)[part::parts], 2, cap),
            _count_rows(range(5, (cap >> 1) + 1, 6)[part::parts], 1, cap),
            _count_rows(range(7, (cap >> 2) + 1, 6)[part::parts], 2, cap),
        )
        for cap in [3 * n + 1 for n in ns]
    ]


def _count_rows(rows: range, x: int, cap: int) -> int:
    # The row walk of _records, written out: counting through _records
    # measured about 3.5x slower for k = 2..12 (1.8-2.1 s vs 0.5 s).
    count = 0
    for n2 in rows:
        m = n2 << x
        while m <= cap:
            count += 1
            m <<= 2
    return count


@dataclass(frozen=True)
class UniquenessReport:
    bound: int
    records_checked: int
    violations: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    @property
    def records_expected(self) -> int:
        # every odd n1 in (1, bound] has exactly one record, its odd successor's
        return (self.bound + 1) // 2 - 1

    @property
    def ok(self) -> bool:
        return not self.violations and self.records_checked == self.records_expected


def _columns(bound: int) -> Iterator[tuple[int, int, slice]]:
    """The records with n1 <= bound, self pair excluded, one column per x:
    (n2, x, sl) where sl, with its start and step set, picks the indices
    n1 >> 1 of a one-byte-per-odd array and its k-th index is the record
    of row n2 + 6k.

    Column x holds the rows n2 = 6i + 5 (odd x) or 6i + 1 (even x), and
    n1 = 2^(x+1)*i + (2^x*n2 - 1)/3 steps by 2^x in that array. Column 2
    starts at row 7, past the self pair (1, 2). No record has n1 <= bound
    once 2^x > 3*bound + 1.
    """
    x = 1
    while 1 << x <= 3 * bound + 1:
        n2 = 5 if x & 1 else 7 if x == 2 else 1
        yield n2, x, slice(((n2 << x) - 1) // 3 >> 1, None, 1 << x)
        x += 1


# a saturating +1 on a seen-byte: 0 -> 1, anything else -> 2 (a collision)
_BUMP = bytes([1] + [2] * 255)


def uniqueness_check(bound: int) -> UniquenessReport:
    """Scan every record with n1 <= bound for two sources of the same n1.

    Distinct (n2, x) pairs can never produce the same n1 (both n2 odd, so
    2^(x1-x2) = n2_2/n2_1 forces x1 = x2); this enumerates and checks
    instead of trusting the argument. Every n1 is odd, so one seen-byte per
    odd number up to bound counts how often each n1 is produced, a column
    of records (see _columns) at a time in strided slice operations, so no
    Python code runs per record. Only when some byte passes 1
    are the sources of each colliding n1 gathered, ascending in n2 as the
    rows run.
    """
    _require_positive_int(bound, "bound")
    seen = bytearray((bound + 1) // 2)
    count = 0
    for _, _, sl in _columns(bound):
        # a column in two interleaved halves: the copy and its translation
        # together stay within one column, bound/4 bytes at x = 1
        for start in (sl.start, sl.start + sl.step):
            half = slice(start, sl.stop, 2 * sl.step)
            column = seen[half]
            count += len(column)
            seen[half] = column.translate(_BUMP)
    indices = range(len(seen))
    violations = []
    j = seen.find(2)
    while j >= 0:
        sources = sorted(
            (n2 + 6 * indices[sl].index(j), x)
            for n2, x, sl in _columns(bound)
            if j in indices[sl]
        )
        violations.append((2 * j + 1, tuple(sources)))
        j = seen.find(2, j + 1)
    return UniquenessReport(bound=bound, records_checked=count, violations=tuple(violations))


@dataclass(frozen=True)
class CoverageReport:
    """Which odd numbers <= bound the inverse tree walk from 1 visited.

    The inverse tree is infinite, so the walk is truncated explicitly: no
    value above value_cap is ever pushed and no exponent above x_max is
    tried. Anything unreached may simply be a truncation artifact.
    nodes_expanded counts every value of the truncated tree, those above
    bound included.
    """

    bound: int
    value_cap: int
    x_max: int
    reached: frozenset[int]
    unreached: frozenset[int]
    nodes_expanded: int

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "value_cap": self.value_cap,
            "x_max": self.x_max,
            "reached_count": len(self.reached),
            "unreached_count": len(self.unreached),
            "unreached": sorted(self.unreached),
            "nodes_expanded": self.nodes_expanded,
        }


def _walk(stack: list[int], bound: int, value_cap: int, x_max: int, budget: int) -> tuple[int, list[int], list[int]]:
    """Expand nodes of the truncated tree off `stack`, depth first, until
    it runs empty or `budget` nodes are expanded. The budget is checked at
    each pop: from a popped node the walk follows first children down to a
    leaf without pushing them, so a call may expand a few more.

    Returns (nodes expanded, the expanded values <= bound, the stack left).
    """
    hits = []
    expanded = 0
    while stack and expanded < budget:
        n2 = stack.pop()
        while True:
            expanded += 1
            if n2 <= bound:
                hits.append(n2)
            r = n2 % 3
            if not r:
                break
            # the row walk of _records, inline: a generator per node measured
            # about 2x slower here; n1 = (2^x * n2 - 1) / 3 grows as 4*n1 + 1
            x = 3 - r
            first = ((n2 << x) - 1) // 3
            if first > value_cap or x > x_max:
                break
            n1 = 4 * first + 1
            x += 2
            while n1 <= value_cap and x <= x_max:
                stack.append(n1)
                n1 = 4 * n1 + 1
                x += 2
            n2 = first
    return expanded, hits, stack


def inverse_bfs(bound: int, value_cap: int, x_max: int) -> CoverageReport:
    """Depth-first inverse expansion from 1 under the two caps.

    The name is historical: the walk is depth first, since the order in
    which the tree is visited changes none of the report. It runs in
    rounds: each deals the open stack into WALK_PARTS interleaved parts per
    worker, each part walks at most WALK_BUDGET nodes, and what the parts
    leave open is the next round's stack. The rounds run on _pool, sized
    by the value cap, and each round's hits are marked as it returns.
    """
    _require_positive_int(bound, "bound")
    _require_positive_int(value_cap, "value_cap", minimum=bound)
    _require_positive_int(x_max, "x_max")
    # No visited set: the odd n1 has exactly one parent, its odd successor
    # (3*n1 + 1) / 2^x with x = v2(3*n1 + 1), because the forward map is a
    # function. Skipping the self pair (1, 2) leaves 1 without a parent, so
    # what is reached from 1 is a tree and no value is reached twice, and
    # the parts of a round share no node.
    reached = bytearray((bound + 1) // 2)  # odd v <= bound at index v >> 1
    walk = functools.partial(_walk, bound=bound, value_cap=value_cap, x_max=x_max, budget=WALK_BUDGET)
    expanded = 0
    # the root 1, expanded here so that the first round has parts to deal;
    # its row skips the self pair (1, 2), the only record with n1 = 1
    results = [(1, [1], [n1 for _, x, n1 in _records((1,), value_cap) if 2 < x <= x_max])]
    with _pool(None, value_cap) as (workers, run):
        parts = WALK_PARTS * workers
        while results:
            stack = []
            for n, hits, left in results:
                expanded += n
                for v in hits:
                    reached[v >> 1] = 1
                stack += left
            results = run(walk, [stack[s::parts] for s in range(min(parts, len(stack)))]) if stack else []
    return CoverageReport(
        bound=bound,
        value_cap=value_cap,
        x_max=x_max,
        reached=frozenset(2 * i + 1 for i, hit in enumerate(reached) if hit),
        unreached=frozenset(2 * i + 1 for i, hit in enumerate(reached) if not hit),
        nodes_expanded=expanded,
    )
