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
jumps straight to T^k(n) and is walked on from there, the next start's
T^k 3^c more, in one kernel call for all the classes of a block.

The walk itself moves K = WINDOW_BITS steps of T at a time where it can
(Oliveira e Silva 2010). Its table walks each residue b = w mod 2^K for K
steps: 2^K*a + b takes b's parities for those steps, so T^K(2^K*a + b) =
3^c*a + T^K(b) after K + c single steps, and the walk also gives the least
ratio 3^(c_i)/2^i over the first i <= K steps, where c_i counts the odd
values among the first i. Since T(m) >= m/2, with (3m+1)/2 > 3m/2 for odd
m, every T^i(w) is at least 3^(c_i)*w/2^i. So when w times that least
ratio, num/2^K, exceeds n (w*num > n*2^K, in integers), every value in the
window, and each 3m+1 between, is above n: the window cannot hold the drop
below n or a return to n, so it is taken whole, and a step budget that
runs out inside it runs out before either. Otherwise the walk takes one
odd step and its halving run, and finds those exactly.

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
turn. An heir in a class the residue sieve settles was never skipped: it
already failed, or descended at its class's count. So only heirs in
surviving classes are walked: one byte per odd residue mod 2^depth, set
from the sieve's surviving residues on each call, tells them apart. Each
is walked from 3n + 1, its value after one odd step, so it needs no class
row. This runs once, after the blocks are merged in order: a block's
skipped start may have its ancestor in an earlier block, which that block
cannot see.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from operator import itemgetter

from . import core
from .core import DEFAULT_MAX_STEPS, Trajectory, _pool, _require_odd, _require_positive_int, step
from .counting import totals, TotalsReport
from .inverse import _count_records_by_class
from .ranges import range_step

# Deeper tables sieve more starts but cost more to build and scan. Measured
# in one session (2 cores, Python 3.11.7, medians of 7 fresh processes,
# interleaved), the sieve took 0.16, 0.37 and 0.66 s to build at depths 22,
# 23 and 24. In an earlier session, depths 23 and 24 ran
# verify_forward(1e9) in 5.16 and 4.73 s against 5.30 s at 22. A deeper cap
# needs CI to pin the survivor counts of its new depths.
SIEVE_MAX_DEPTH = 22
# The walk's window, in steps of T. For the 179,210 starts walked below 1e7
# at depth 16, _walk_class took 0.122, 0.118, 0.117, 0.117 and 0.126 s with
# a window of 4, 5, 6, 7 and 8 bits, against 0.231 s without one (2 cores,
# Python 3.11.7; medians of 5, interleaved).
WINDOW_BITS = 6
# Bit i is set for the residues i = n mod 9 of the odd starts n that have a
# smaller ancestor on a predecessor row (see the module docstring).
_HAS_ANCESTOR = sum(1 << i for i in (2, 4, 5, 8))


def _walk_class(
    classes: Iterable[tuple[range, int, int, int]], max_steps: int, skip: int = _HAS_ANCESTOR
) -> tuple[int, list[tuple[int, str]], int]:
    """_sweep_block's (descended, failures, largest descent count) for the
    starts of surviving classes (starts, w, c3, used), each walked on until
    its chain drops below the start or comes back to it (the start is then
    the minimum of a cycle). A class's first start's chain reaches w after
    `used` single steps, and each next start's c3 more. A start whose
    residue mod 9 is set in `skip` is counted as descended without a walk:
    its ancestor settles it, and _merge walks it after all if that
    ancestor fails."""
    window, k, mask = _WINDOW, WINDOW_BITS, (1 << WINDOW_BITS) - 1
    descended = top = 0
    failures: list[tuple[int, str]] = []
    for starts, w, c3, used in classes:
        for n in starts:
            x, u = w, used
            w += c3
            if skip >> n % 9 & 1:
                descended += 1
                continue
            nk = n << k
            while u <= max_steps:
                # a whole window of k steps of T, when every value in it is above n
                num, c3k, d, steps = window[x & mask]
                if x * num > nk:
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

    A completed build so proves sigma(n) = tau(n), the first j with
    T^j(n) < n and the first with 3^c < 2^j, for every n >= 2 with
    tau(n) <= depth: n is in the exit class mod 2^tau(n) whose check
    T^j(r) < r passed (or in (4, 1), with n > 1), and each T^i(n) with
    0 < i < tau(n) is at least 3^(c_i)*n/2^i > n.
    """
    exits = tuple(array("q") for _ in range(3))
    survivors = tuple(array("q") for _ in range(4))
    # depth first, so that few nodes are ever open at once;
    # j = 1: n = 2a + 1 gives T(n) = 3a + 2
    stack = [(1, 1, 3, 2, 2)]
    while stack:
        j, r, c3, v, steps = stack.pop()
        if j == depth:
            _append(survivors, r, c3, v, steps)
            continue
        # the two classes mod 2^(j+1) inside n = 2^j*a + r: n = 2^(j+1)*b + r2
        # gives T^j(n) = 2*c3*b + u, and one more step of T halves or triples it
        mod = 2 << j
        for r2, u in ((r, v), (r + (1 << j), v + c3)):
            c, w, s = (3 * c3, (3 * u + 1) >> 1, steps + 2) if u & 1 else (c3, u >> 1, steps + 1)
            if c < mod:
                # T^(j+1)(n) = c*b + w < n for every b >= 0 once w < r2
                if w >= r2 and (mod, r2) != (4, 1):
                    raise AssertionError(f"class {r2} mod {mod} does not descend from its residue")
                _append(exits, mod, r2, s)
            else:
                stack.append((j + 1, r2, c, w, s))
    return exits, survivors


def _window_table(k: int) -> tuple[tuple[int, int, int, int], ...]:
    """For each residue b mod 2^k, the row (num, 3^c, d, steps) with
    T^k(2^k*a + b) = 3^c*a + d after `steps` = k + c single steps, and
    num/2^k = p/2^s = 3^(c_i)/2^i the least over i <= k, where c_i counts
    the odd values among the first i steps: every T^i(w) is at least
    w*num/2^k, so w*num > n << k holds exactly when w*p > n << s."""
    rows = []
    for b in range(1 << k):
        # 2^k*a + b takes b's parities for k steps, so walking b gives 3^c and d
        x, c3, steps, p, s = b, 1, k, 1, 0
        for i in range(1, k + 1):
            if x & 1:
                x, c3, steps = (3 * x + 1) >> 1, 3 * c3, steps + 1
            else:
                x >>= 1
            if c3 << s < p << i:
                p, s = c3, i
        rows.append((p << (k - s), c3, x, steps))
    return tuple(rows)


# built at import, so that forked workers inherit it with the module
_WINDOW = _window_table(WINDOW_BITS)


def _append(columns: tuple[array, ...], *row: int) -> None:
    for col, x in zip(columns, row):
        col.append(x)


def _sieve_depth(bound: int) -> int:
    # a table much wider than the range costs more to scan than it sieves;
    # from 2^24 on, the deepest that leaves each class 64 starts or more
    bits = bound.bit_length()
    return min(SIEVE_MAX_DEPTH, bits - 7) if bits > 24 else max(1, min(16, bits - 2))


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
        starts = range(lo + (r - lo) % mod, hi, mod)  # the class's, in [lo, hi)
        if steps > max_steps:
            failures.extend((n, "maxStepsExceeded") for n in starts)
        elif starts:
            verified += len(starts)
            max_used = max(max_used, steps)
    mod = 1 << depth
    # each class from its first start n >= lo, whose a is n >> depth
    classes = (
        (range(n := lo + (r - lo) % mod, hi, mod), c3 * (n >> depth) + v, c3, steps)
        for r, c3, v, steps in zip(*survivors)
    )
    descended, failed, most = _walk_class(classes, max_steps)
    failures += failed
    failures.sort(key=itemgetter(0))
    return verified + descended, failures, max(max_used, most)


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
            "failures": self.failures,
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
    start n whose ancestor failed, and whose odd residue mod 2^depth is
    marked as a surviving class's, is walked after all from 3n + 1, and so
    on from each one that fails in turn (see the module docstring).
    """
    verified = sum(r[0] for r in results)
    failures = [f for r in results for f in r[1]]
    max_used = max(r[2] for r in results)
    if not failures:
        return verified, failures, max_used
    # one byte per odd residue mod 2^depth, set for the surviving classes
    mask = (1 << depth) - 1
    alive = bytearray(1 << depth >> 1)
    for r in _sieve(depth)[1][0]:
        alive[r >> 1] = 1
    more: list[tuple[int, str]] = []
    lost = failures
    # in waves, each walked in one call: the heirs of the failed starts,
    # (3m + 1)/2 for m = 3 mod 4 and (9m + 5)/8 for m = 11 mod 16, then
    # those of the heirs that failed, each from 3n + 1 after one step
    while lost:
        ms = [m for m, _ in lost if m & 3 == 3]
        heirs = [(3 * m + 1) >> 1 for m in ms] + [(9 * m + 5) >> 3 for m in ms if m & 15 == 11]
        wave = [(range(n, n + 1), 3 * n + 1, 0, 1) for n in heirs if lo <= n < hi and alive[(n & mask) >> 1]]
        _, lost, most = _walk_class(wave, max_steps, skip=0)
        max_used = max(max_used, most)
        more += lost
    failures += more
    failures.sort(key=itemgetter(0))
    return verified - len(more), failures, max_used


def verify_forward(
    bound: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    shards: int | None = None,
) -> VerifyReport:
    """Confirm by descent every odd start <= bound.

    Work runs on at most `shards` workers (default: one per CPU this
    process may use), one contiguous block each. The report is
    byte-identical for any shard count, apart from the shard count it
    echoes; only wall_time moves.
    """
    if shards is None:
        shards = core._cpus()
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
    count and with a literal per-class record count: one in-process pass of
    class-coded marks (inverse._count_records_by_class) serves every k."""
    _require_positive_int(k_max, "k_max", minimum=2)
    reports = [totals(k) for k in range(2, k_max + 1)]
    counts = _count_records_by_class([rep.n for rep in reports])
    return tuple(CrossCheckEntry(rep, *c) for rep, c in zip(reports, counts))
