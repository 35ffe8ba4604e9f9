"""A literal forward walk, shared by the inverse-coverage tests.

It imports nothing from collatzkit, so it is an oracle for the inverse tree
walk rather than a second copy of it.
"""

import functools


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


@functools.cache
def chain_caps_below(bound: int) -> dict[int, tuple[int, int]]:
    """chain_caps of every odd n <= bound, walked once per bound and shared;
    callers only read it."""
    return {n: chain_caps(n) for n in range(1, bound + 1, 2)}
