"""The literal oracles: each brute-force walk that the tests and CI check
the package against, written once, and importing nothing from collatzkit.
Each writes the step rule inline, as a call per step measured 30% slower.
A cached walk runs once per argument; callers only read its result.
"""

import functools
from collections import deque


def T(m: int) -> int:
    """The shortcut map: (3m + 1)/2 for odd m, m/2 for even m."""
    return (3 * m + 1) // 2 if m % 2 else m // 2


def steps_to_one(n: int) -> int:
    """Single steps from n down to 1."""
    count = 0
    while n != 1:
        n = n // 2 if n % 2 == 0 else 3 * n + 1
        count += 1
    return count


def descent_steps(n: int, max_steps: int) -> int | None:
    """Single steps until the chain from n first drops below n, 0 for n = 1,
    or None when it has not dropped within max_steps."""
    if n == 1:
        return 0
    v, used = n, 0
    while used < max_steps:
        v = v // 2 if v % 2 == 0 else 3 * v + 1
        used += 1
        if v < n:
            return used
    return None


def oracle_sweep(lo: int, hi: int, max_steps: int) -> tuple[int, list[tuple[int, str]], int]:
    """(verified, failures, max_steps_used) of the odd starts in [lo, hi),
    one descent_steps walk per start."""
    starts = range(lo, hi, 2)
    counts = [descent_steps(n, max_steps) for n in starts]
    failures = [(n, "maxStepsExceeded") for n, c in zip(starts, counts) if c is None]
    descended = [c for c in counts if c is not None]
    return len(descended), failures, max(descended, default=0)


def heirs(m: int) -> list[int]:
    """The starts a sweep skips as settled by odd m, their ancestor: m's
    odd successor q = (3m + 1)/2 (row x = 1) and, when q's successor
    r = (3q + 1)/2 is even and r/2 is odd, r/2 (rows x = 2 and x = 1)."""
    q = (3 * m + 1) // 2
    if q % 2 == 0:
        return []
    r = (3 * q + 1) // 2
    return [q, r // 2] if r % 2 == 0 and r // 2 % 2 else [q]


def chain_caps(n: int, max_odd_steps: int = 10_000) -> tuple[int, int]:
    """Literal forward walk from odd n down to 1.

    Returns the largest odd value on the chain and the longest halving run.
    Distinct (n2, x) pairs never give the same n1 (criterion 6), so the
    inverse-tree path from 1 to n is this chain reversed: inverse_bfs
    reaches n exactly when value_cap and x_max are at least these two.
    """
    peak, longest_run = n, 0
    for _ in range(max_odd_steps):
        if n == 1:
            return peak, longest_run
        n, run = 3 * n + 1, 0
        while n % 2 == 0:
            n //= 2
            run += 1
        peak, longest_run = max(peak, n), max(longest_run, run)
    raise AssertionError(f"chain did not reach 1 within {max_odd_steps} odd steps")


def row(n2: int, bound: int):
    """The records (n2, x, n1) of row n2 with n1 = (2^x * n2 - 1)/3 <= bound,
    ascending in x: every x whose 2^x * n2 is 1 mod 3."""
    x = 1
    while (n2 << x) <= 3 * bound + 1:
        if (n2 << x) % 3 == 1:
            yield n2, x, ((n2 << x) - 1) // 3
        x += 1


def records(bound: int):
    """Every record (n2, x, n1) with n1 <= bound, self pair (1, 2, 1)
    included, row by row: n1 <= bound needs n2 <= 3 * bound + 1."""
    for n2 in range(1, 3 * bound + 2, 2):
        yield from row(n2, bound)


@functools.cache
def count_records_by_class(n: int) -> tuple[int, int, int]:
    """The records with n1 <= n by row class, counted row by row: row
    n2 = 1 (self pair included), rows 6i - 1 (odd x from 1), rows 6i + 1
    with n2 > 1 (even x from 2). Along a row 2^x * n2 grows 4-fold per
    record, and n1 <= n is 2^x * n2 <= 3n + 1."""
    cap = 3 * n + 1
    counts = [0, 0, 0]
    for cls, rows, x in (
        (0, range(1, 2), 2),
        (1, range(5, (cap >> 1) + 1, 6), 1),
        (2, range(7, (cap >> 2) + 1, 6), 2),
    ):
        for n2 in rows:
            m = n2 << x
            while m <= cap:
                counts[cls] += 1
                m <<= 2
    return tuple(counts)


@functools.cache
def chain_caps_below(bound: int) -> dict[int, tuple[int, int]]:
    """chain_caps of every odd n <= bound."""
    return {n: chain_caps(n) for n in range(1, bound + 1, 2)}


@functools.cache
def literal_bfs(bound: int, value_cap: int, x_max: int) -> tuple[set[int], set[int], int]:
    """Breadth-first expansion from 1 with a visited set, written out.

    Tries every x in 1..x_max against 2^x * n2 = 1 mod 3 and stops a row
    once n1 = (2^x * n2 - 1) / 3 passes value_cap. Returns the reached and
    unreached odds up to bound and the number of nodes expanded.
    """
    visited, frontier, expanded = {1}, deque([1]), 0
    while frontier:
        n2 = frontier.popleft()
        expanded += 1
        for x in range(1, x_max + 1):
            m = n2 * 2**x
            if m > 3 * value_cap + 1:
                break
            n1 = (m - 1) // 3
            if m % 3 == 1 and (n2, x) != (1, 2) and n1 not in visited:
                visited.add(n1)
                frontier.append(n1)
    reached = {v for v in visited if v <= bound}
    return reached, set(range(1, bound + 1, 2)) - reached, expanded
