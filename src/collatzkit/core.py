"""Exact forward Collatz dynamics, and the shard pool the sweeps run on.

Everything here runs on Python's native arbitrary-precision integers, so
there is no overflow path to worry about: a chain is free to climb as high
as it likes (start 27 already peaks at 9232). Chain products are kept as
exact rationals; no floating point enters the forward dynamics.

The shard pool, _pool, is the one place where work leaves the calling
process. A job below POOL_MIN_BOUND, or on a platform that cannot fork,
runs in-process; a larger one is dealt to the calling process and to
forked children, each of which serves its share over its own pipe and
lives only as long as the job.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_MAX_STEPS = 100_000


def _require_positive_int(n: int, name: str = "n", minimum: int = 1) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"{name} must be an int, got {type(n).__name__}")
    if n < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {n}")


def _require_odd(n: int, name: str = "n", minimum: int = 1) -> None:
    _require_positive_int(n, name, minimum)
    if n % 2 == 0:
        raise ValueError(f"{name} must be odd, got {n}")


# A job this size or larger (the sweep's bound, the cross-check's largest N,
# the walk's value cap) runs on a pool, a smaller one in-process. With the
# caller working as worker 0 beside one forked child, in-process against
# pooled on 2 cores (Python 3.11.7, medians of 9): the sweep 9.7 / 10.2 ms
# at bound 500,001 and 15.3 / 12.0 ms at 1,000,001; the walk 22.8 / 21.4 ms
# at cap 5e5 and 45.3 / 32.6 ms at 1e6; the cross-check 15.2 / 9.8 ms at
# k_max 10 (N = 349,525) and 65.8 / 36.8 ms at 11 (N = 1,398,101). So the
# pool now breaks even near 500,000 for the sweep and the walk, and below
# N_10 for the cross-check. The threshold is still the one fitted for the
# multiprocessing.Pool this pool replaced: started, given one task and
# stopped, that took 4.3 ms in a small process, and this pool 2.0 ms.
POOL_MIN_BOUND = 1_000_000


@contextlib.contextmanager
def _pool(most: int | None, size: int) -> Iterator[tuple[int, Callable[..., list]]]:
    """(workers, run) for a job of `size`: workers = min(most, CPUs), most=None
    for one per CPU, and 1 below POOL_MIN_BOUND or without fork (the threshold
    was fitted for it). run(f, *iterables) is list-returning, like the
    builtin map: task i goes to worker i % workers, and the results come
    back in order of submission. Worker 0 is the calling process; each of
    the others is a forked child, sent its whole share in one message
    before the caller starts on its own.

    The children live as long as the with block, so a caller with several
    rounds of tasks forks them once. A task's exception is raised in the
    caller, and a child that dies raises ChildProcessError there. On
    leaving the block, either way, every child is stopped and reaped.
    """
    cpus = os.cpu_count() or 1
    workers = min(most or cpus, cpus) if size >= POOL_MIN_BOUND else 1
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        workers = 1
    if workers == 1:
        yield 1, lambda f, *args: list(map(f, *args))
        return
    conns, children = [], []

    def run(f: Callable, *args) -> list:
        tasks = list(zip(*args))
        busy = list(zip(range(1, len(tasks)), conns, children))
        for w, conn, child in busy:
            _talk(child, conn.send, (f, tasks[w::workers]))
        results = [None] * len(tasks)
        results[::workers] = [f(*task) for task in tasks[::workers]]
        for w, conn, child in busy:
            ok, value = _talk(child, conn.recv)
            if not ok:
                raise value
            results[w::workers] = value
        return results

    try:
        for _ in range(workers - 1):
            # each pipe made just before its child, and the child's end closed
            # here once it runs, so the child holds the only copy: when it
            # dies, recv sees the end of the pipe instead of waiting forever
            conn, theirs = ctx.Pipe()
            child = ctx.Process(target=_serve, args=(theirs,), daemon=True)
            child.start()
            theirs.close()
            conns.append(conn)
            children.append(child)
        yield workers, run
    finally:
        for child in children:
            child.terminate()
            child.join()
        for conn in conns:
            conn.close()


def _talk(child, call: Callable, *args):
    # call(*args) on the pipe to `child`, which fails only when the child
    # holds its end no more: it died
    try:
        return call(*args)
    except (EOFError, ConnectionError):
        child.join()
        raise ChildProcessError(f"pool worker {child.pid} died with exit code {child.exitcode}") from None


def _serve(conn) -> None:
    # a pool worker: run each share of tasks it is sent, and send back
    # (True, the results in order) or (False, the exception one raised)
    while True:
        try:
            f, share = conn.recv()
        except EOFError:  # the caller is gone
            return
        try:
            reply = True, [f(*task) for task in share]
        except Exception as exc:
            reply = False, exc
        conn.send(reply)


def step(n: int) -> int:
    """One forward step: n/2 if n is even, 3n+1 if n is odd."""
    _require_positive_int(n)
    return n // 2 if n % 2 == 0 else 3 * n + 1


def v2(n: int) -> int:
    """2-adic valuation: the largest k such that 2^k divides n."""
    _require_positive_int(n)
    return (n & -n).bit_length() - 1


def odd_successor(n: int) -> tuple[int, int]:
    """Direct odd follower of an odd n.

    Returns (m, x) with m odd and 2^x * m = 3n + 1, i.e. one odd step
    followed by the full run of halvings. odd_successor(1) = (1, 2): the
    number one iterates onto itself through the terminal cycle.
    """
    _require_odd(n)
    w = 3 * n + 1
    x = v2(w)
    return w >> x, x


@dataclass(frozen=True)
class Trajectory:
    """A forward chain: its values, each the rule's image of the one before.

    Step counts follow the open-chain convention: the final element makes
    no step, so even_steps + odd_steps == len(values) - 1. A chain built
    around a cycle (first == last) is fine too; its step counts then cover
    every element once.
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        # the one check of the step rule: a positive int, then each one's image
        values = self.values
        if not values:
            raise ValueError("a chain has at least one value")
        _require_positive_int(values[0], "start")
        for a, b in zip(values, values[1:]):
            if type(b) is not int:
                raise TypeError(f"a chain holds ints, got {type(b).__name__}")
            if b != (a // 2 if a % 2 == 0 else 3 * a + 1):
                raise ValueError(f"not a valid step: {a} -> {b}")

    @property
    def start(self) -> int:
        return self.values[0]

    @property
    def terminated(self) -> bool:
        return self.values[-1] == 1

    @property
    def even_steps(self) -> int:
        return sum(1 for v in self.values[:-1] if v % 2 == 0)

    @property
    def odd_steps(self) -> int:
        return len(self.values) - 1 - self.even_steps

    @property
    def peak(self) -> int:
        return max(self.values)


def trajectory(n: int, max_steps: int = DEFAULT_MAX_STEPS) -> Trajectory:
    """Iterate the step rule from n until 1 is reached or max_steps run out.

    Hitting the step budget is a valid outcome, reported through the
    `terminated` flag rather than an exception.
    """
    _require_positive_int(n)
    _require_positive_int(max_steps, "max_steps")
    values = [n]
    v = n
    for _ in range(max_steps):
        if v == 1:
            break
        v = v // 2 if v % 2 == 0 else 3 * v + 1
        values.append(v)
    # each value is the rule's image of the one before by construction, so
    # the chain is built without __post_init__ checking every step again
    t = object.__new__(Trajectory)
    object.__setattr__(t, "values", tuple(values))
    return t


def chain_product(t: Trajectory) -> Fraction:
    """Exact product of the per-step factors of a nonempty chain.

    Each factor is taken as the rule gives it, (3v+1)/v for odd v and 1/2
    for even v, into one numerator and one denominator reduced once. The
    product telescopes to last/first only because every stored value is
    the image of the one before; for a closed chain (first == last) it is
    exactly 1.
    """
    if len(t.values) < 2:
        raise ValueError("chain product of an empty trajectory is undefined")
    num = den = 1
    halvings = 0
    for v in t.values[:-1]:
        if v % 2 == 0:
            halvings += 1
        else:
            num *= 3 * v + 1
            den *= v
    return Fraction(num, den << halvings)
