"""Range recurrence: grow a verified odd bound [1, N] step by step.

From N = 2p - 1 two candidate extensions are computed. The odd-power side
needs every 6i-1 number up to 6*floor(p/2) - 1, which rewrites to 3p - 1
(p even) or 3p - 4 (p odd). The even-power side rewrites, by branch on
p mod 3, to (4N - 3)/3, (4N - 5)/3 or (4N - 1)/3, each division exact.
The next bound is the smaller candidate. Growth fails exactly at p = 2
and p = 3, where the chosen candidate equals N; those stalls are data
worth reporting, not errors.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

from .core import _require_odd, _require_positive_int
from .counting import _exact_div


class OddBranch(enum.Enum):
    P_EVEN = "p-even"
    P_ODD = "p-odd"

    @property
    def a_const(self) -> int:
        # N_odd = 3p - A
        return 1 if self is OddBranch.P_EVEN else 4


class EvenBranch(enum.Enum):
    P_MOD3_2 = "p=3s-1"
    P_MOD3_0 = "p=3s"
    P_MOD3_1 = "p=3s+1"

    @property
    def b_const(self) -> int:
        # N_even = (8p - B) / 3
        return {"p=3s-1": 7, "p=3s": 9, "p=3s+1": 5}[self.value]

    @property
    def c_const(self) -> int:
        # equivalently (4N - C) / 3
        return self.b_const - 4


def _p_of(n: int) -> int:
    _require_odd(n, "N", minimum=3)
    return (n + 1) // 2


def _odd_branch(p: int) -> OddBranch:
    return OddBranch.P_EVEN if p % 2 == 0 else OddBranch.P_ODD


def _even_branch(p: int) -> EvenBranch:
    r = p % 3
    if r == 2:
        return EvenBranch.P_MOD3_2
    if r == 0:
        return EvenBranch.P_MOD3_0
    return EvenBranch.P_MOD3_1


@dataclass(frozen=True)
class RangeState:
    """One recurrence step: both candidates, branch labels, the choice."""

    n: int
    p_n: int
    n_odd: int
    odd_branch: OddBranch
    n_even: int
    even_branch: EvenBranch
    chosen: int
    growth: int
    delta_oe: int  # n_odd - n_even, also (p + B - 3A)/3

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p_n": self.p_n,
            "n_odd": self.n_odd,
            "odd_branch": self.odd_branch.value,
            "n_even": self.n_even,
            "even_branch": self.even_branch.value,
            "a_const": self.odd_branch.a_const,
            "b_const": self.even_branch.b_const,
            "chosen": self.chosen,
            "growth": self.growth,
            "delta_oe": self.delta_oe,
        }


def range_step(n: int) -> RangeState:
    """Compute both candidates for odd N >= 3 and pick the smaller.

    On a tie the even candidate is reported as chosen; the values are
    identical, so the choice only affects the branch label.
    """
    p = _p_of(n)
    ob = _odd_branch(p)
    eb = _even_branch(p)
    n_odd = 3 * p - ob.a_const
    n_even = _exact_div(4 * n - eb.c_const, 3, "even-range candidate")
    delta = _exact_div(p + eb.b_const - 3 * ob.a_const, 3, "candidate gap")
    if delta != n_odd - n_even:
        raise ArithmeticError(f"candidate gap {delta} != {n_odd} - {n_even}")
    chosen = n_even if n_even <= n_odd else n_odd
    return RangeState(
        n=n,
        p_n=p,
        n_odd=n_odd,
        odd_branch=ob,
        n_even=n_even,
        even_branch=eb,
        chosen=chosen,
        growth=chosen - n,
        delta_oe=delta,
    )


@dataclass(frozen=True)
class IterationTrace:
    """A run of range steps; chaining stops at the first non-growing step."""

    states: tuple[RangeState, ...]
    stalled: bool
    stall_index: int | None

    @property
    def bounds(self) -> tuple[int, ...]:
        if not self.states:
            return ()
        return (self.states[0].n,) + tuple(s.chosen for s in self.states)

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(s.to_dict()) for s in self.states) + "\n"


def iterate_ranges(n0: int, max_iters: int) -> IterationTrace:
    """Apply range_step repeatedly from N0, at most max_iters times.

    A step with growth <= 0 stalls the run (recorded, not raised). For
    p > 3 no stall is expected; the trace is the evidence either way.
    """
    _require_odd(n0, "N0", minimum=3)
    _require_positive_int(max_iters, "max_iters")
    states: list[RangeState] = []
    n = n0
    stalled = False
    stall_index: int | None = None
    for idx in range(max_iters):
        state = range_step(n)
        states.append(state)
        if state.growth <= 0:
            stalled = True
            stall_index = idx
            break
        n = state.chosen
    return IterationTrace(states=tuple(states), stalled=stalled, stall_index=stall_index)
