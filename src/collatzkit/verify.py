"""Brute-force oracles: forward sweeps, cycle scans, table reproduction.

The forward sweep confirms an odd start n by descent: once the chain
drops below n, induction over the smaller (already confirmed) starts
finishes the job. Descent is a per-start fact, so the outcome cannot
depend on how the work is sharded; shards only change wall time.

Sweeps sieve by residue (Terras 1976; Oliveira e Silva 2010). Write
T(m) = m/2 for even m and (3m+1)/2 for odd m. The parities of the first j
values of T's orbit from n depend only on n mod 2^j, so every start
n = 2^j*a + r has T^j(n) = 3^c*a + v, where c counts the odd ones among
them and v = T^j(r), after j + c single steps. Once 3^c < 2^j, every
start of the class with a large enough descends at exactly that step
count and is never walked. A start whose class still climbs at depth k
jumps straight to T^k(n) and is walked on from there, one kernel call per
class: the next start's T^k is 3^c more.

The walk itself moves K = WINDOW_BITS steps of T at a time where it can
(Oliveira e Silva 2010). The same expansion gives, for each residue
b = w mod 2^K, T^K(2^K*a + b) = 3^c*a + d after K + c single steps, and
the least ratio 3^(c_i)/2^i over its first i <= K steps, where c_i counts
the odd values among the first i. Since T(m) >= m/2, with (3m+1)/2 > 3m/2
for odd m, every T^i(w) is at least 3^(c_i)*w/2^i. So when w times that
least ratio exceeds n, every value in the window, and each 3m+1 between,
is above n: the window cannot hold the drop below n or a return to n, so
it is taken whole, and a step budget that runs out inside it runs out
before either. Otherwise the walk takes one odd step and its halving run,
and finds those exactly.

The paper's predecessor rows n1 = (2^x*n2 - 1)/3 sieve the surviving
starts once more. An odd n = 6j + 5 is the odd successor of its ancestor
m = (2n - 1)/3 = 4j + 3 < n (row x = 1): m -> 3m + 1 -> n. An odd
n = 18j + 13 is reached from m = (8n - 5)/9 = 16j + 11 < n (row x = 2,
then x = 1): m -> 3m + 1 -> (3m + 1)/2 -> (9m + 5)/2 -> (9m + 5)/4 -> n.
Every value between m and n on these chains is above n. So if m's chain
first drops below m at D single steps, n's chain, which is m's from step
2 (or 5) on, is below m < n by step D - 2 (or D - 5): n descends within
any budget m does, at a smaller count, and never walking n changes
neither the count of descended starts nor the largest count. Those n are
the odd starts with n mod 9 in {2, 4, 5, 8}, 4/9 of those walked, and the
walk counts them as descended without walking them. Nor is such an n
the minimum of a cycle while m descends: m's chain would enter the cycle
and stay at or above n > m for good. So if n is a cycle's minimum, m
fails, and what follows walks n and finds the cycle.

The skip is exact only when the ancestor descends. For every start m that
fails (by budget, or as a cycle's minimum), its heirs (3m + 1)/2 for
m = 3 mod 4 and (9m + 5)/8 for m = 11 mod 16, the starts it would have
settled, are walked after all, and so on from each heir that fails in
turn. A heir in a class the residue sieve settles was never skipped, so
only those in surviving classes are walked. Whether an heir of m lands in
a surviving class depends on m mod 2^(depth + 3) alone, so one lookup in a
table of those residues dismisses every failure without one. This runs
once, after the blocks are merged in order: a block's skipped start may
have its ancestor in an earlier block, which that block cannot see.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

from .core import DEFAULT_MAX_STEPS, Trajectory, _pool, _require_odd, _require_positive_int, step
from .counting import totals, TotalsReport
from .inverse import _count_records_by_class
from .ranges import range_step

# Deeper tables sieve more starts but cost more per block to scan; 2^16
# leaves 2114 of its 32768 odd classes to walk, in tables of about 0.1 MB.
SIEVE_MAX_DEPTH = 16
# The walk's window, in steps of T. For the 322,569 starts walked below 1e7
# at depth 16, _walk_class took 0.23, 0.22, 0.21, 0.22 and 0.24 s with a
# window of 4, 5, 6, 7 and 8 bits, against 0.34 s without one (2 cores,
# Python 3.11.7; one interleaved set, medians of 5).
WINDOW_BITS = 6
# Bit i is set for the residues i = n mod 9 of the odd starts n that have a
# smaller ancestor on a predecessor row (see the module docstring).
_HAS_ANCESTOR = sum(1 << i for i in (2, 4, 5, 8))


def _walk_class(
    starts: range, w: int, c3: int, used: int, max_steps: int, skip: int = _HAS_ANCESTOR
) -> tuple[int, list[tuple[int, str]], int]:
    """_sweep_block's (descended, failures, largest descent count) for the
    starts of one surviving class, each walked on until its chain drops
    below the start or comes back to it (the start is then the minimum of a
    cycle). The first start's chain reaches w after `used` single steps,
    and each next start's c3 more. A start whose residue mod 9 is set in
    `skip` is counted as descended without a walk: its ancestor settles
    it, and _merge walks it after all if that ancestor fails."""
    window, k, mask = _WINDOW, WINDOW_BITS, (1 << WINDOW_BITS) - 1
    descended = top = 0
    failures: list[tuple[int, str]] = []
    for n in starts:
        x, u = w, used
        w += c3
        if skip >> n % 9 & 1:
            descended += 1
            continue
        while u <= max_steps:
            # a whole window of k steps of T, when every value in it is above n
            num, shift, c3k, d, steps = window[x & mask]
            if x * num > n << shift:
                x = c3k * (x >> k) + d
                u += steps
                continue
            t = (x & -x).bit_length() - 1
            s = x >> t
            if s > n:
                u += t + 1  # the halving run, then the odd step from s
                x = 3 * s + 1
            elif s == n:
                u += t
                if u <= max_steps:
                    failures.append((n, "cycle"))
                    break
            else:
                # the drop happens inside this halving run; find its exact spot
                e = x.bit_length() - n.bit_length()
                u += e if n << e > x else e + 1
                if u <= max_steps:
                    descended += 1
                    if u > top:
                        top = u
                    break
        else:
            failures.append((n, "maxStepsExceeded"))
    return descended, failures, top


@functools.cache
def _sieve(depth: int) -> tuple[tuple[array, ...], tuple[array, ...]]:
    """Residue classes of the odd starts down to depth `depth`, by tree
    expansion.

    Returns (exits, survivors), each as one int64 array per column;
    zip(*exits) gives the classes back. An exit (2^j, r, steps) is a class
    n = 2^j*a + r that first has 3^c < 2^j at j <= depth: each of its
    starts descends after exactly `steps` = j + c single steps, since
    T^j(r) < r. The one exception is the class (4, 1), where T^2(1) = 1:
    its start 1 is settled by convention and 5, 9, ... descend. A survivor
    (r, 3^c, v, steps) is a class n = 2^depth*a + r that still has
    3^c > 2^j at every j <= depth: T^depth(n) = 3^c*a + v after `steps`
    single steps, and every value on the way there exceeds n.
    """
    exits = tuple(array("q") for _ in range(3))
    survivors = tuple(array("q") for _ in range(4))
    # depth first, so that few nodes are ever open at once;
    # j = 1: n = 2a + 1 gives T(n) = 3a + 2
    stack = [(1, 1, 3, 2, 2)]
    while stack:
        node = stack.pop()
        if node[0] == depth:
            _append(survivors, *node[1:])
            continue
        for child in _children(*node):
            j, r, c3, v, steps = child
            mod = 1 << j
            if c3 < mod:
                # T^j(n) = c3*b + v < n for every b >= 0 once v < r
                if v >= r and (mod, r) != (4, 1):
                    raise AssertionError(f"class {r} mod {mod} does not descend from its residue")
                _append(exits, mod, r, steps)
            else:
                stack.append(child)
    return exits, survivors


def _children(j: int, r: int, c3: int, v: int, steps: int) -> Iterator[tuple[int, int, int, int, int]]:
    """The two classes mod 2^(j+1) inside the class n = 2^j*a + r, where
    T^j(n) = c3*a + v after `steps` single steps, each as (j + 1, r2, c3_,
    v_, steps_) with T^(j+1)(n) = c3_*b + v_ for n = 2^(j+1)*b + r2."""
    # n = 2^(j+1)*b + r2 gives T^j(n) = 2*c3*b + u
    for r2, u in ((r, v), (r + (1 << j), v + c3)):
        if u & 1:
            yield j + 1, r2, 3 * c3, (3 * u + 1) >> 1, steps + 2
        else:
            yield j + 1, r2, c3, u >> 1, steps + 1


def _window_table(k: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """For each residue b mod 2^k, the row (p, s, 3^c, d, steps) with
    T^k(2^k*a + b) = 3^c*a + d after `steps` = k + c single steps, and
    p/2^s = 3^(c_i)/2^i the least over i <= k, where c_i counts the odd
    values among the first i steps: every T^i(w) is at least w*p/2^s."""
    rows = [None] * (1 << k)
    # j = 0: T^0(a) = a, and the least ratio so far is 3^0/2^0
    stack = [((0, 0, 1, 0, 0), 1, 0)]
    while stack:
        node, p, s = stack.pop()
        j, r, c3, v, steps = node
        if c3 << s < p << j:
            p, s = c3, j
        if j == k:
            rows[r] = (p, s, c3, v, steps)
        else:
            stack.extend((child, p, s) for child in _children(*node))
    return tuple(rows)


# built at import, so that forked workers inherit it with the module
_WINDOW = _window_table(WINDOW_BITS)


def _append(columns: tuple[array, ...], *row: int) -> None:
    for col, x in zip(columns, row):
        col.append(x)


def _sieve_depth(bound: int) -> int:
    # a table much wider than the range costs more to scan than it sieves
    return max(1, min(SIEVE_MAX_DEPTH, bound.bit_length() - 2))


def _sweep_block(lo: int, hi: int, max_steps: int, depth: int) -> tuple[int, list[tuple[int, str]], int]:
    """Settle every odd start in [lo, hi): (descended, failures in
    ascending order, largest descent count). A failure's reason is
    "maxStepsExceeded" or, for a start its chain comes back to, "cycle".

    The count is provisional: a start with a smaller ancestor is counted as
    descended unwalked, and _merge walks it after all if the ancestor, which
    may lie below lo, fails. The largest count is over the starts the block
    sieved or walked: a skipped start may hold the block's own record, but
    its ancestor, which may lie below lo, holds a higher one.
    """
    exits, survivors = _sieve(depth)
    verified = max_used = 0
    failures: list[tuple[int, str]] = []
    if lo == 1:
        # every chain ends at 1, so by convention it settles at 0 steps
        verified, lo = 1, 3
    for mod, r, steps in zip(*exits):
        a_lo, a_hi = _first_a(lo, r, mod), _first_a(hi, r, mod)
        if a_lo >= a_hi:
            continue
        if steps <= max_steps:
            verified += a_hi - a_lo
            max_used = max(max_used, steps)
        else:
            failures.extend((n, "maxStepsExceeded") for n in range(a_lo * mod + r, hi, mod))
    mod = 1 << depth
    for r, c3, v, steps in zip(*survivors):
        a = _first_a(lo, r, mod)
        descended, failed, most = _walk_class(range(a * mod + r, hi, mod), c3 * a + v, c3, steps, max_steps)
        verified += descended
        failures += failed
        max_used = max(max_used, most)
    failures.sort()
    return verified, failures, max_used


def _first_a(lo: int, r: int, mod: int) -> int:
    # the smallest a >= 0 with mod*a + r >= lo, for 0 <= r < mod and lo >= 1
    return -((r - lo) // mod)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a forward sweep over the odd starts in [1, bound].

    A start fails with "maxStepsExceeded" when it needs more than the step
    budget to descend, or with "cycle" when its chain comes back to it.
    """

    bound: int
    verified: int
    failures: tuple[tuple[int, str], ...]
    max_steps_used: int
    wall_time: float
    shards: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "bound": self.bound,
            "verified": self.verified,
            "failures": [list(f) for f in self.failures],
            "max_steps_used": self.max_steps_used,
            "wall_time": round(self.wall_time, 3),
            "shards": self.shards,
        }


def _block_bounds(bound: int, shards: int) -> list[tuple[int, int]]:
    # contiguous blocks of odd starts, sizes as equal as possible
    count = (bound + 1) // 2
    cuts = [2 * (count * s // shards) + 1 for s in range(shards + 1)]
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]


def _sweep(bound: int, max_steps: int, shards: int | None) -> tuple[int, list[tuple[int, str]], int]:
    """Settle every odd start <= bound: (descended, failures in ascending
    order, largest descent count).

    Work is split into one contiguous block per worker of _pool (at most
    `shards`, None for one per CPU) and merged back in block order, so the
    result is the same for any shard count.
    """
    _require_positive_int(bound, "bound")
    _require_positive_int(max_steps, "max_steps")
    if shards is not None:
        _require_positive_int(shards, "shards")
    depth = _sieve_depth(bound)
    _sieve(depth)  # built here, so that forked workers inherit the table
    block = functools.partial(_sweep_block, max_steps=max_steps, depth=depth)
    with _pool(shards, bound) as (workers, run):
        results = run(block, *zip(*_block_bounds(bound, workers)))
    return _merge(results, 1, bound + 1, max_steps, depth)


def _merge(
    results: list[tuple[int, list[tuple[int, str]], int]], lo: int, hi: int, max_steps: int, depth: int
) -> tuple[int, list[tuple[int, str]], int]:
    """The blocks' results, in block order, as one: (descended, failures in
    ascending order, largest descent count).

    The starts in [lo, hi) were swept by _sweep_block at `depth`, which
    counts a start with an ancestor as descended unwalked. Here each such
    start whose ancestor failed is walked after all, and so on from each
    one that fails in turn (see the module docstring).
    """
    verified = sum(r[0] for r in results)
    failures = [f for r in results for f in r[1]]
    max_used = max(r[2] for r in results)
    if not failures:
        return verified, failures, max_used
    mod = 1 << depth
    rows = {r: row for r, *row in zip(*_sieve(depth)[1])}
    ancestors, big = _ancestors(depth), (mod << 3) - 1
    failed = [m for m, _ in failures if m & big in ancestors]
    more: list[tuple[int, str]] = []
    while failed:
        for n in _heirs(failed.pop()):
            if lo <= n < hi and n % mod in rows:
                c3, v, steps = rows[n % mod]
                _, lost, most = _walk_class(range(n, n + 1), c3 * (n >> depth) + v, c3, steps, max_steps, skip=0)
                max_used = max(max_used, most)
                if lost:
                    more += lost
                    failed.append(n)
    if more:
        failures += more
        failures.sort()
    return verified - len(more), failures, max_used


@functools.cache
def _ancestors(depth: int) -> frozenset[int]:
    """The residues mod 2^(depth + 3) of the starts m that have an heir in
    a class that survives the sieve at `depth`; no other failure has an
    heir to walk. An heir (3m + 1)/2 = r mod 2^depth holds exactly when
    m = (2r - 1)/3 mod 2^(depth + 1), and (9m + 5)/8 = r when
    m = (8r - 5)/9 mod 2^(depth + 3); for odd r, each gives m = 3 mod 4 or
    m = 11 mod 16 as _heirs asks."""
    half, mod = 2 << depth, 8 << depth
    third, ninth = pow(3, -1, half), pow(9, -1, mod)
    out = set()
    for r in _sieve(depth)[1][0]:
        out.update(range((2 * r - 1) * third % half, mod, half))
        out.add((8 * r - 5) * ninth % mod)
    return frozenset(out)


def _heirs(m: int) -> Iterator[int]:
    # the starts whose ancestor is m: its odd successor (3m + 1)/2 when
    # m = 3 mod 4, and when m = 11 mod 16 also that one's, (9m + 5)/8
    if m % 4 == 3:
        yield (3 * m + 1) >> 1
        if m % 16 == 11:
            yield (9 * m + 5) >> 3


def verify_forward(
    bound: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    shards: int | None = None,
) -> VerifyReport:
    """Confirm by descent every odd start <= bound.

    Work runs on at most `shards` workers (default: one per CPU), one
    contiguous block each. The report is byte-identical for any shard
    count, apart from the shard count it echoes; only wall_time moves.
    """
    if shards is None:
        shards = os.cpu_count() or 1
    t0 = time.perf_counter()
    verified, failures, max_used = _sweep(bound, max_steps, shards)
    return VerifyReport(
        bound=bound,
        verified=verified,
        failures=tuple(failures),
        max_steps_used=max_used,
        wall_time=time.perf_counter() - t0,
        shards=shards,
    )


def _loop(n: int) -> Trajectory:
    # the cycle through n, from n around and back to it
    values = [n, step(n)]
    while values[-1] != n:
        values.append(step(values[-1]))
    return Trajectory(tuple(values))


@dataclass(frozen=True)
class CycleScanReport:
    """Outcome of a cycle scan over the odd starts in [1, bound]: the
    cycles found, each a closed chain from its minimum back to it, and the
    starts left undecided because their walk outran the step budget
    before it settled. It is ok when no start is undecided and
    1 -> 4 -> 2 is the only cycle."""

    bound: int
    cycles: tuple[Trajectory, ...]
    undecided: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.undecided and [c.values for c in self.cycles] == [(1, 4, 2, 1)]


def cycle_scan(bound: int, max_steps: int = DEFAULT_MAX_STEPS) -> CycleScanReport:
    """Find every cycle with minimum element <= bound.

    A cycle never dips below its minimum, and that minimum is odd (an even
    minimum would halve to something smaller). So settling every odd start
    as the forward sweep does, until its chain either drops below it (no
    news) or comes back to it (a cycle, found at its minimum), covers them
    all. Start 1, where every chain ends, settles at 0 steps by convention;
    it is the minimum of the terminal cycle 1 -> 4 -> 2.
    """
    _, failures, _ = _sweep(bound, max_steps, None)
    minima = [1] + [n for n, reason in failures if reason == "cycle"]
    return CycleScanReport(
        bound=bound,
        cycles=tuple(_loop(n) for n in minima),
        undecided=tuple(n for n, reason in failures if reason == "maxStepsExceeded"),
    )


@dataclass(frozen=True)
class AssumptionRow:
    """One demonstration row: a chain walked until it merges into ground
    already covered by earlier rows, plus the odd values it newly claims
    inside the target range."""

    start: int
    values: tuple[int, ...]
    new_odds: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "values": list(self.values),
            "new_odds": list(self.new_odds),
        }


def reproduce_assumption_table(n0: int) -> tuple[AssumptionRow, ...]:
    """Demonstration rows for the odd starts in [1, n0], ascending.

    A start already visited by an earlier row gets no row. Each row runs
    until it reaches a previously visited value, which is included as the
    row's final element. The root row (start 1) shows the terminal cycle
    itself, 4 -> 2 -> 1, with the start pre-marked as visited.
    """
    _require_odd(n0, "n0", minimum=3)
    visited: set[int] = set()
    rows: list[AssumptionRow] = []
    for start in range(1, n0 + 1, 2):
        if start in visited:
            continue
        visited.add(start)
        new_this_row = [start]
        values: list[int] = [] if start == 1 else [start]
        v = step(start)
        while True:
            values.append(v)
            if v in visited:
                break
            visited.add(v)
            new_this_row.append(v)
            v = step(v)
        new_odds = tuple(sorted(m for m in new_this_row if m % 2 and m <= n0))
        rows.append(AssumptionRow(start=start, values=tuple(values), new_odds=new_odds))
    return tuple(rows)


def assumption_bold_values(n0: int) -> set[int]:
    """Values highlighted in a demonstration table for [1, n0]: the odd
    numbers of the range itself plus the 6i-1 numbers of the grown range
    [1, range_step(n0).n_odd]."""
    cap = range_step(n0).n_odd
    bold = {m for m in range(1, n0 + 1, 2)}
    bold |= {m for m in range(5, cap + 1, 6)}
    return bold


def render_assumption_table(rows: tuple[AssumptionRow, ...], n0: int) -> str:
    """Plain-text rendering with the claims column aligned, highlighted
    values starred, merged tails marked with a trailing ellipsis."""
    bold = assumption_bold_values(n0)
    chains = []
    for row in rows:
        parts = [f"*{v}*" if v in bold else str(v) for v in row.values]
        tail = "" if row.values and row.values[-1] == 1 else " -> ..."
        chains.append(" -> ".join(parts) + tail)
    width = max(len(c) for c in chains)
    lines = [
        f"{chain:<{width}} | {','.join(str(m) for m in row.new_odds)}"
        for chain, row in zip(chains, rows)
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CrossCheckEntry:
    """Closed-form totals next to a direct enumeration of the records with
    n1 <= N, bucketed by row class."""

    totals: TotalsReport
    root_row_count: int
    opow_count: int
    epow_count: int

    @property
    def counts_match(self) -> bool:
        return (
            self.totals.identity_holds
            and self.root_row_count == self.totals.k_n
            and self.opow_count == self.totals.t_odd
            and self.epow_count == self.totals.t_even
        )

    def to_dict(self) -> dict:
        d = self.totals.to_dict()
        d.update(
            {
                "rootRowCount": self.root_row_count,
                "opowCount": self.opow_count,
                "epowCount": self.epow_count,
                "countsMatch": self.counts_match,
            }
        )
        return d


def cross_check_totals(k_max: int) -> tuple[CrossCheckEntry, ...]:
    """For k = 2..k_max, compare the closed-form totals with the brute odd
    count and with a direct per-class enumeration of the records, in one
    interleaved part of rows per worker of _pool (one per CPU from k_max 11)."""
    _require_positive_int(k_max, "k_max", minimum=2)
    reports = [totals(k) for k in range(2, k_max + 1)]
    ns = [rep.n for rep in reports]
    with _pool(None, ns[-1]) as (parts, run):
        counts = run(_count_records_by_class, [ns] * parts, range(parts), [parts] * parts)
    entries = []
    for rep, by_part in zip(reports, zip(*counts)):
        root, opow, epow = map(sum, zip(*by_part))
        entries.append(
            CrossCheckEntry(totals=rep, root_row_count=root, opow_count=opow, epow_count=epow)
        )
    return tuple(entries)
