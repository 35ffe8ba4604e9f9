"""Literal oracles for checking collatzkit's output.

Nothing here imports collatzkit. Each oracle applies the 3n+1 step rule
one value at a time, the slow way, so that a fast path in the program
cannot share a mistake with the check that judges it.

Run as a script to recompute the descent-record starts that the forward
sweep checks rely on:

    python3 bench/oracles.py --records 11000000
"""

from __future__ import annotations

import argparse
import sys


class RunawayChain(Exception):
    """A walk used up its step bound before settling."""


def step(n: int) -> int:
    """The step rule: n/2 for even n, 3n+1 for odd n."""
    return n // 2 if n % 2 == 0 else 3 * n + 1


def walk(n: int, max_steps: int = 100_000) -> list[int]:
    """Every value of the chain from n down to 1, both ends included."""
    values = [n]
    while n != 1:
        if len(values) > max_steps:
            raise RunawayChain(f"chain from {values[0]} exceeds {max_steps} steps")
        n = step(n)
        values.append(n)
    return values


def descent_count(n: int, max_steps: int = 100_000) -> int:
    """Single steps until the chain from n first goes below n.

    An odd step counts 1 and each halving counts 1. Start 1 never goes
    below itself; by convention it counts 0, as the program's sweep does.
    """
    if n == 1:
        return 0
    v, used = n, 0
    while v >= n:
        if used >= max_steps:
            raise RunawayChain(f"start {n} does not descend within {max_steps} steps")
        v = step(v)
        used += 1
    return used


def odd_chain_caps(n: int, max_odd_steps: int = 10_000) -> tuple[int, int]:
    """Largest odd value and longest halving run on the odd chain from odd n to 1.

    The inverse expansion from 1 reaches n exactly when the first is within
    its value cap and the second within its exponent cap: the expansion is
    injective, so its path from 1 to n is this chain read backwards. Start 1
    has an empty chain: (1, 0).
    """
    peak, longest, odd_steps = n, 0, 0
    while n != 1:
        if odd_steps >= max_odd_steps:
            raise RunawayChain(f"odd chain exceeds {max_odd_steps} odd steps")
        n = 3 * n + 1
        odd_steps += 1
        run = 0
        while n % 2 == 0:
            n //= 2
            run += 1
        peak = max(peak, n)
        longest = max(longest, run)
    return peak, longest


def odd_count(lo: int, hi: int) -> int:
    """Number of odd integers in [lo, hi], in closed form."""
    if hi < lo:
        return 0
    return (hi + 1) // 2 - lo // 2


def descent_records(limit: int) -> list[tuple[int, int]]:
    """(start, count) for each odd start <= limit whose descent count beats
    every smaller start's, by a literal sweep."""
    records: list[tuple[int, int]] = []
    best = -1
    for n in range(1, limit + 1, 2):
        c = descent_count(n)
        if c > best:
            best = c
            records.append((n, c))
    return records


# Record starts from `python3 bench/oracles.py --records 11000000`; the
# oracle tests recompute the prefix below 1e6 literally.
DESCENT_RECORDS: tuple[tuple[int, int], ...] = (
    (1, 0), (3, 6), (7, 11), (27, 96), (703, 132), (10087, 171), (35655, 220),
    (270271, 267), (362343, 269), (381727, 282), (626331, 287), (1027431, 298),
    (1126015, 365), (8088063, 401),
)


def record_start(bound: int) -> tuple[int, int]:
    """The odd start <= bound with the largest descent count, and that count.

    Valid for bounds up to the last recorded sweep limit, 11,000,000.
    """
    if not 1 <= bound <= 11_000_000:
        raise ValueError(f"no descent record table for bound {bound}")
    best = DESCENT_RECORDS[0]
    for rec in DESCENT_RECORDS:
        if rec[0] > bound:
            break
        best = rec
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, required=True, metavar="LIMIT",
                        help="print the descent-record starts up to LIMIT")
    args = parser.parse_args(argv)
    for start, count in descent_records(args.records):
        print(start, count)
    return 0


if __name__ == "__main__":
    sys.exit(main())
