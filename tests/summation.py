"""The counting totals by literal summation, shared by the totals tests
and acceptance criterion 3.

The package computes T_o and T_e by closed forms only; this is the oracle
they are checked against.
"""

from fractions import Fraction

from collatzkit.core import _require_positive_int


def totals_by_summation(k_n: int) -> tuple[int, int]:
    """The same totals by the explicit finite sums, term by term.

    Kept deliberately literal (including the terms that cancel to zero) so
    a transcription slip in either route shows up as a mismatch with the
    closed forms.
    """
    _require_positive_int(k_n, "k_n", minimum=2)
    half = Fraction(1, 2)
    sixth = Fraction(1, 6)

    t_odd = k_n * (sixth * (2 + 1) - half)
    for i in range(1, k_n):
        upper = sixth * (2 ** (2 * (i + 1) - 1) + 1) - half
        lower = sixth * (2 ** (2 * i - 1) + 1) - half
        t_odd += (k_n - i) * (upper - lower)

    t_even = (k_n - 1) * (sixth * (2**2 - 1) - half)
    for i in range(2, k_n):
        upper = sixth * (2 ** (2 * i) - 1) - half
        lower = sixth * (2 ** (2 * (i - 1)) - 1) - half
        t_even += (k_n - i) * (upper - lower)

    if t_odd.denominator != 1 or t_even.denominator != 1:
        raise ArithmeticError("summed totals did not come out integral")
    return int(t_odd), int(t_even)
