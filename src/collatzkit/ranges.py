"""Range recurrence: grow a verified odd bound [1, N] step by step.

From N = 2p - 1 two candidates are computed, each a floor. The odd-power
side needs every 6i-1 number up to N_odd = 6*floor(p/2) - 1. The even-power
side reaches N_even, the largest odd m with 3m <= 4N - 1. The next bound is
the smaller one. The paper writes them by cases: N_odd = 3p - A, with A = 1
for even p and 4 for odd p; N_even = (4N - C)/3 = (8p - B)/3, with B = C + 4
equal to 7, 9 or 5 for p = 3s-1, 3s or 3s+1. These are the floors: 4N - 1,
4N - 3 and 4N - 5 are consecutive odd numbers, so exactly one is a multiple
of 3, and its third is odd. That third is (4N - C)/3, and the next odd number
up, (4N - C + 6)/3, exceeds (4N - 1)/3. As 8p - B is that multiple, B = 2p
(mod 3), which is the table. `to_dict` reports the paper's labels and A, B.

N_odd - N_even = (p + B - 3A)/3 is 2, 0, 2, 0, 4 at p = 2..6 and at least
(p - 7)/3 beyond, so the two tie at p = 3, 5 and 7 and the next bound is
always N_even. Growth is N_even - N = (N - C)/3, even, and positive once
N > 5 >= C: at least 2 for N >= 7. The only stalls are at N = 3 and N = 5
(p = 2 and p = 3), where the chosen candidate equals N; they are data worth
reporting, not errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import _require_odd, _require_positive_int
from .counting import i_opow_max


@dataclass(frozen=True)
class RangeState:
    """One recurrence step: both candidates and the choice."""

    n: int
    p_n: int
    n_odd: int
    n_even: int
    chosen: int
    growth: int

    def to_dict(self) -> dict:
        p = self.p_n
        return {
            "n": self.n,
            "p_n": p,
            "n_odd": self.n_odd,
            "odd_branch": "p-odd" if p % 2 else "p-even",
            "n_even": self.n_even,
            "even_branch": ("p=3s", "p=3s+1", "p=3s-1")[p % 3],
            "a_const": 3 * p - self.n_odd,
            "b_const": 8 * p - 3 * self.n_even,
            "chosen": self.chosen,
            "growth": self.growth,
            "delta_oe": self.n_odd - self.n_even,
        }


def range_step(n: int) -> RangeState:
    """Compute both candidates for odd N >= 3 and pick the smaller."""
    _require_odd(n, "N", minimum=3)
    p = (n + 1) // 2
    n_odd = 6 * i_opow_max(p) - 1
    m = (4 * n - 1) // 3
    n_even = m if m % 2 else m - 1
    chosen = min(n_odd, n_even)
    return RangeState(n=n, p_n=p, n_odd=n_odd, n_even=n_even, chosen=chosen, growth=chosen - n)


@dataclass(frozen=True)
class IterationTrace:
    """A run of range steps; chaining stops at the first non-growing step."""

    states: tuple[RangeState, ...]
    stalled: bool
    stall_index: int | None

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
    for idx in range(max_iters):
        state = range_step(n)
        states.append(state)
        if state.growth <= 0:
            return IterationTrace(states=tuple(states), stalled=True, stall_index=idx)
        n = state.chosen
    return IterationTrace(states=tuple(states), stalled=False, stall_index=None)
