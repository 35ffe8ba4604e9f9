"""Closed-form counting over the predecessor rows.

For N = (4^k - 1)/3 the records with n1 <= N split by row class into
exactly k from the row n2 = 1, T_o from the 6i-1 rows and T_e from the
6i+1 rows, and k + T_o + T_e equals the number of odd values in [1, N].
Every closed form below is an exact integer division with the divisibility
checked; a remainder would mean a transcribed formula is wrong, so it
raises instead of rounding.

Every floor is integer arithmetic too: a depth-f row index is one divmod,
its remainder kept as an exact Fraction, and a half-log floor (the k_j
expressions) comes from integer comparisons, never from a floating log2,
which cannot certify that a ratio is an exact power of two. No floating
point enters the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import _require_odd, _require_positive_int


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{what}: {num} is not divisible by {den}")
    return q


def _floor_log2_ratio(num: int, den: int) -> int:
    """floor(log2(num/den)) for positive integers, exactly."""
    if num <= 0 or den <= 0:
        raise ValueError("ratio must be positive")
    e = num.bit_length() - den.bit_length()
    if e >= 0:
        if (den << e) > num:
            e -= 1
    else:
        if den > (num << -e):
            e -= 1
    return e


@dataclass(frozen=True)
class FloorRemainder:
    """A floored expression together with its exact fractional part.

    `remainder` is a `Fraction` whenever the expression is rational: always
    for the row-index forms, and for a half-log only when its ratio is a
    power of two. The half-log of any other positive rational is irrational,
    so it has no exact remainder and `remainder` is None; `is_integer` is
    exact either way.
    """

    value: int
    remainder: Fraction | None

    @property
    def is_integer(self) -> bool:
        return self.remainder == 0


def power_relation_integer(n2_i: int, x_i: int, n2_j: int) -> int | None:
    """Exponent x_j = x_i + log2(n2_i / n2_j) that lets row n2_j hit the
    same n1 as (n2_i, x_i), exactly, when it is an integer; else None.

    x_j is an integer iff n2_i / n2_j is a power of two; for odd inputs
    that means n2_i == n2_j, which is the injectivity of (n2, x) -> n1
    seen from the other side.
    """
    _require_odd(n2_i, "n2_i")
    _require_odd(n2_j, "n2_j")
    _require_positive_int(x_i, "x_i")
    return x_i if n2_i == n2_j else None


def i_opow_max(p_n: int) -> int:
    """Largest row index i of the 6i-1 class that reaches n1 <= 2*p_n - 1
    with a single halving: floor(p_n / 2)."""
    _require_positive_int(p_n, "p_n", minimum=2)
    return p_n // 2


def i_epow_max(p_n: int) -> int:
    """Largest row index i of the 6i+1 class reaching n1 <= 2*p_n - 1 with
    a double halving: floor((p_n - 1) / 4)."""
    _require_positive_int(p_n, "p_n", minimum=2)
    return (p_n - 1) // 4


def geom_sum(a: int, b: int) -> int:
    """Sum of 4^i for i in [a, b], by the closed form (4^(b+1) - 4^a)/3."""
    _require_positive_int(a, "a", minimum=0)
    _require_positive_int(b, "b", minimum=a)
    return _exact_div(4 ** (b + 1) - 4**a, 3, "geometric sum")


def geom_weighted_sum(a: int, b: int) -> int:
    """Sum of i * 4^i for i in [a, b], by the closed form
    4^(b+1) * (b+1)/3 - (4/9) 4^(b+1) - 4^a * a/3 + (4/9) 4^a."""
    _require_positive_int(a, "a", minimum=0)
    _require_positive_int(b, "b", minimum=a)
    num = 4 ** (b + 1) * (3 * (b + 1) - 4) + 4**a * (4 - 3 * a)
    return _exact_div(num, 9, "weighted geometric sum")


@dataclass(frozen=True)
class TotalsReport:
    """Closed-form totals for the bound N = (4^k_n - 1)/3 next to the
    count of odd numbers in [1, N]."""

    k_n: int
    n: int
    t_odd: int
    t_even: int
    t_total: int
    brute_count: int
    identity_holds: bool

    def to_dict(self) -> dict:
        return {
            "kN": self.k_n,
            "N": self.n,
            "To": self.t_odd,
            "Te": self.t_even,
            "T": self.t_total,
            "bruteCount": self.brute_count,
            "identityHolds": self.identity_holds,
        }


def totals(k_n: int) -> TotalsReport:
    """Evaluate T_o = (4^k - 3k - 1)/9, T_e = (4^k - 12k + 8)/18 and the
    assembly T = (k-1) + 1 + T_o + T_e, then count the odds in [1, N]."""
    _require_positive_int(k_n, "k_n", minimum=2)
    pow4 = 4**k_n
    n = _exact_div(pow4 - 1, 3, "bound for totals")
    t_odd = _exact_div(pow4 - 3 * k_n - 1, 9, "odd-power total")
    t_even = _exact_div(pow4 - 12 * k_n + 8, 18, "even-power total")
    t_total = (k_n - 1) + 1 + t_odd + t_even
    brute = (n + 1) // 2  # odds in [1, n]; len(range(...)) overflows past 2^63
    return TotalsReport(
        k_n=k_n,
        n=n,
        t_odd=t_odd,
        t_even=t_even,
        t_total=t_total,
        brute_count=brute,
        identity_holds=t_total == brute,
    )


def _floor_remainder_half_log(num: int, den: int, plus_half: bool) -> FloorRemainder:
    # floor of log2(num/den)/2 (+ 1/2 when asked), with the exact floor from
    # integer comparisons; the remainder is rational only when num/den = 2^e,
    # and then it is 0 or 1/2. Only 0 occurs here: mod 3, num = 6p-2 is 1,
    # den is 2 (6i-1) or 1 (6i+1) and 2^e is 2 for odd e, 1 for even e, so
    # e is odd in kj_odd and even in kj_even
    e = _floor_log2_ratio(num, den)
    remainder = None
    if num << max(-e, 0) == den << max(e, 0):
        remainder = Fraction((e + plus_half) % 2, 2)
    return FloorRemainder(value=(e + plus_half) // 2, remainder=remainder)


def kj_odd(p_n: int, i_opow: int) -> FloorRemainder:
    """k_j = floor( log2((6p-2)/(6i-1)) / 2 + 1/2 ) for the odd-power rows.

    Integer solutions occur exactly when the ratio is 2^(2f-1); the returned
    remainder is exactly 0 in that case.
    """
    _require_positive_int(p_n, "p_n", minimum=2)
    _require_positive_int(i_opow, "i_opow")
    return _floor_remainder_half_log(6 * p_n - 2, 6 * i_opow - 1, plus_half=True)


def kj_even(p_n: int, i_epow: int) -> FloorRemainder:
    """k_j = floor( log2((6p-2)/(6i+1)) / 2 ) for the even-power rows.

    Integer solutions occur exactly when the ratio is 4^f.
    """
    _require_positive_int(p_n, "p_n", minimum=2)
    _require_positive_int(i_epow, "i_epow")
    return _floor_remainder_half_log(6 * p_n - 2, 6 * i_epow + 1, plus_half=False)


def i_opow_floor(p_n: int, f: int) -> FloorRemainder:
    """Row index reached at depth f on the odd-power side:
    floor(((6p-2)/2^(2f-1) + 1) / 6), remainder exact."""
    _require_positive_int(p_n, "p_n", minimum=2)
    _require_positive_int(f, "f")
    den = 6 << (2 * f - 1)
    value, r = divmod(6 * p_n - 2 + (1 << (2 * f - 1)), den)
    return FloorRemainder(value=value, remainder=Fraction(r, den))


def i_epow_floor(p_n: int, f: int) -> FloorRemainder:
    """Row index reached at depth f on the even-power side:
    floor(((6p-2)/4^f - 1) / 6), remainder exact."""
    _require_positive_int(p_n, "p_n", minimum=2)
    _require_positive_int(f, "f")
    den = 6 << (2 * f)
    value, r = divmod(6 * p_n - 2 - (1 << (2 * f)), den)
    return FloorRemainder(value=value, remainder=Fraction(r, den))
