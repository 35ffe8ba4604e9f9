"""Counting machinery: floors, geometric lemmas, totals, half-log floors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzkit import (
    geom_sum,
    geom_weighted_sum,
    i_epow_max,
    i_opow_max,
    kj_even,
    kj_odd,
    power_relation_integer,
    predecessor_of,
    totals,
)
from collatzkit.counting import i_epow_floor, i_opow_floor

from literal import row
from summation import totals_by_summation


def record_count(kj, p, i):
    # the literal count of the records of kj's row, 6i-1 for kj_odd and 6i+1
    # for kj_even, with n1 <= 2p - 1
    return sum(1 for _ in row(6 * i - 1 if kj is kj_odd else 6 * i + 1, 2 * p - 1))


def i_opow_max_casewise(p_n):
    # oracle: parity split that must agree with the floor form
    if p_n % 2 == 0:
        v = Fraction(p_n, 2)
    else:
        v = Fraction(p_n, 2) - Fraction(1, 2)
    if v.denominator != 1:
        raise ArithmeticError(f"case split gave {v}, not an integer")
    return int(v)


def i_epow_max_casewise(p_n):
    # oracle: four-way split by p_n mod 4, again matching the floor form
    base = Fraction(p_n - 1, 4)
    r = p_n % 4
    if r == 2:  # p = 4s - 2
        v = base - Fraction(1, 4)
    elif r == 3:  # p = 4s - 1
        v = base - Fraction(2, 4)
    elif r == 0:  # p = 4s
        v = base - Fraction(3, 4)
    else:  # p = 4s + 1
        v = base
    if v.denominator != 1:
        raise ArithmeticError(f"case split gave {v}, not an integer")
    return int(v)


def even_class_max_value_casewise(p_n):
    # oracle: value-level split by p_n mod 4: (3p-4)/2, (3p-7)/2, (3p-10)/2, (3p-1)/2
    r = p_n % 4
    if r == 2:
        num = 3 * p_n - 4
    elif r == 3:
        num = 3 * p_n - 7
    elif r == 0:
        num = 3 * p_n - 10
    else:
        num = 3 * p_n - 1
    q, rem = divmod(num, 2)
    if rem:
        raise ArithmeticError(f"even-class max value: {num} is not divisible by 2")
    return q


def test_power_relation_integer_exact():
    assert power_relation_integer(1, 4, 1) == 4
    assert power_relation_integer(1, 4, 5) is None
    assert power_relation_integer(21, 3, 21) == 3
    # same row, any exponent: the log term vanishes
    assert power_relation_integer(7, 6, 7) == 6
    assert power_relation_integer(5, 3, 5) == 3
    assert power_relation_integer(5, 5, 5) == 5


def test_power_relation_never_integer_for_distinct_rows():
    # odd/odd ratios are powers of two only when equal; scan n2 <= 10**3
    odds = list(range(1, 1001, 2))
    for a in odds:
        for b in odds:
            got = power_relation_integer(a, 5, b)
            if a == b:
                assert got == 5
            else:
                assert got is None


@pytest.mark.parametrize("p,expected", [(10, 5), (2, 1), (7, 3), (3, 1), (100, 50)])
def test_i_opow_max(p, expected):
    assert i_opow_max(p) == expected


def test_i_opow_max_example_value():
    assert 6 * i_opow_max(10) - 1 == 29


@pytest.mark.parametrize("p,expected", [(10, 2), (5, 1), (2, 0), (9, 2), (13, 3)])
def test_i_epow_max(p, expected):
    assert i_epow_max(p) == expected


def test_i_epow_max_example_value():
    assert 6 * i_epow_max(10) + 1 == 13
    assert even_class_max_value_casewise(10) == 13


def test_i_max_rejects_small_p():
    with pytest.raises(ValueError):
        i_opow_max(1)
    with pytest.raises(ValueError):
        i_epow_max(1)


def test_i_max_casewise_agreement():
    for p in range(2, 10**4 + 1):
        assert i_opow_max(p) == i_opow_max_casewise(p)
        assert i_epow_max(p) == i_epow_max_casewise(p)
        assert 6 * i_epow_max(p) + 1 == even_class_max_value_casewise(p)


def test_i_opow_max_semantic_anchor():
    # 6*i_opow_max(p) - 1 is the largest 6i-1 number whose x=1 predecessor
    # stays inside [1, 2p-1]
    for p in range(2, 10**3 + 1):
        n = 2 * p - 1
        m = 6 * i_opow_max(p) - 1
        rec = predecessor_of(m, 1)
        assert rec is not None and rec.n1 <= n
        rec_next = predecessor_of(m + 6, 1)
        assert rec_next is not None and rec_next.n1 > n


def test_geom_sum_examples():
    assert geom_sum(1, 1) == 4
    assert geom_sum(1, 3) == 84
    assert geom_sum(0, 5) == 1365


def test_geom_weighted_sum_examples():
    assert geom_weighted_sum(1, 1) == 4
    assert geom_weighted_sum(1, 3) == 228
    assert geom_weighted_sum(2, 2) == 32


def test_geom_lemmas_against_direct_summation():
    for a in range(0, 21):
        for b in range(a, 21):
            assert geom_sum(a, b) == sum(4**i for i in range(a, b + 1))
            assert geom_weighted_sum(a, b) == sum(i * 4**i for i in range(a, b + 1))


def test_geom_rejects_bad_ranges():
    with pytest.raises(ValueError):
        geom_sum(3, 2)
    with pytest.raises(ValueError):
        geom_weighted_sum(2, 1)


def test_totals_k2():
    rep = totals(2)
    assert (rep.n, rep.t_odd, rep.t_even, rep.t_total) == (5, 1, 0, 3)
    assert rep.brute_count == 3
    assert rep.identity_holds


def test_totals_k3():
    rep = totals(3)
    assert (rep.n, rep.t_odd, rep.t_even, rep.t_total) == (21, 6, 2, 11)
    assert rep.identity_holds


def test_totals_identity_range():
    for k in range(2, 13):
        rep = totals(k)
        assert rep.identity_holds, f"identity broke at k={k}"
        # the assembled total also collapses to (4^k + 2)/6
        assert rep.t_total == (4**k + 2) // 6


def test_totals_rejects_k1():
    with pytest.raises(ValueError):
        totals(1)


def test_totals_by_summation_matches_closed_forms():
    for k in range(2, 13):
        rep = totals(k)
        assert totals_by_summation(k) == (rep.t_odd, rep.t_even)


def test_totals_brute_count_is_direct():
    rep = totals(4)
    assert rep.n == 85
    assert rep.brute_count == sum(1 for m in range(1, 86) if m % 2 == 1)


@pytest.mark.parametrize("k", [33, 40])
def test_totals_past_the_machine_word(k):
    # N = (4^k - 1)/3 holds more than 2^63 odds from k = 33 on
    rep = totals(k)
    odds = range(1, rep.n + 1, 2)
    assert odds[-1] == rep.n  # N is odd
    assert rep.brute_count == odds.index(rep.n) + 1
    assert rep.t_total == rep.brute_count
    assert rep.identity_holds
    assert totals_by_summation(k) == (rep.t_odd, rep.t_even)


def test_kj_odd_generates_nineteen():
    # p=10 (N=19): row 29 reaches 19 with a single halving
    got = kj_odd(10, 5)
    assert got.value == 1
    assert got.remainder == 0
    rec = predecessor_of(29, 2 * got.value - 1)
    assert rec is not None and rec.n1 == 19


def test_kj_odd_power_of_two_ratio():
    # ratio (6p-2)/(6i-1) = 2 exactly: p=2, i=1 gives 10/5
    got = kj_odd(2, 1)
    assert got.value == 1
    assert got.remainder == 0
    assert got.is_integer


def test_kj_odd_integer_iff_ratio_odd_power_of_two():
    # integrality happens exactly at ratios 2, 8, 32, ... (odd exponents)
    for p in range(2, 200):
        for i in range(1, 40):
            got = kj_odd(p, i)
            num, den = 6 * p - 2, 6 * i - 1
            is_odd_pow2 = num % den == 0 and (
                (q := num // den) & (q - 1) == 0 and q.bit_length() % 2 == 0
            )
            assert got.is_integer == is_odd_pow2


def test_kj_even_examples():
    # ratio 58/13 lies in [4, 8): the floor is 1 and the half-log irrational
    got = kj_even(10, 2)
    assert (got.value, got.remainder) == (1, None)
    # ratio exactly 4: p=25, i=6 gives 148/37
    got = kj_even(25, 6)
    assert (got.value, got.remainder) == (1, 0)
    assert got.is_integer


def test_kj_even_integer_iff_ratio_power_of_four():
    for p in range(2, 200):
        for i in range(1, 40):
            got = kj_even(p, i)
            num, den = 6 * p - 2, 6 * i + 1
            is_pow4 = num % den == 0 and (
                (q := num // den) & (q - 1) == 0 and q.bit_length() % 2 == 1 and q > 1
            )
            assert got.is_integer == is_pow4


def test_kj_remainders_in_unit_interval():
    # a half-log remainder is exact, and then 0, only when the floor is hit;
    # otherwise it is irrational and has no exact value
    for p in range(2, 100):
        for i in range(1, 30):
            for fr in (kj_odd(p, i), kj_even(p, i)):
                assert fr.remainder == (Fraction(0) if fr.is_integer else None)


@pytest.mark.parametrize(
    "kj, p, i",
    [
        # ratio just above 2 (odd side) or 4 (even side): q just above 1
        (kj_odd, 2 * 10**15 + 1, 10**15),
        (kj_odd, 2 * 10**17 + 1, 10**17),
        (kj_even, 4 * 10**15 + 2, 10**15),
        # ratio just below 8 (odd side) or 16 (even side): q just below 4
        (kj_odd, 8 * 10**17 - 2, 10**17),
        (kj_even, 16 * 10**15 + 2, 10**15),
    ],
)
def test_kj_remainder_near_a_power_of_two_stays_inexact(kj, p, i):
    # a float half-log of q would round to 0.0 or 1.0 here, though the ratio
    # is no power of two
    got = kj(p, i)
    assert got.value == 1 == record_count(kj, p, i)
    assert not got.is_integer
    assert got.remainder is None


@pytest.mark.parametrize(
    "kj,p,i,above_half",
    [
        # the ratio is 4 + 2/(6i-1), so q = ratio/2 lies just above 2
        (kj_odd, 4 * 10**17, 10**17, True),
        # the ratio is 8 - 4/(6i+1), so q = ratio/4 lies just below 2
        (kj_even, 8 * 10**15 + 1, 10**15, False),
    ],
)
def test_kj_remainder_near_two_stays_off_one_half(kj, p, i, above_half):
    # a float half-log of q would round to 0.5 here, a remainder that only a
    # power-of-two ratio can have
    got = kj(p, i)
    assert got.value == 1 == record_count(kj, p, i)
    assert not got.is_integer
    assert got.remainder is None
    # the fractional part exceeds 1/2 exactly when the ratio exceeds 2^(2k)
    # (kj_odd) or 2^(2k+1) (kj_even), k the floor
    den, e = (6 * i - 1, 0) if kj is kj_odd else (6 * i + 1, 1)
    assert (6 * p - 2 > den << (2 * got.value + e)) == above_half


def test_kj_exact_remainders_are_zero():
    # a power-of-two ratio leaves q = 1, never 2 (6p-2, 6i-1 and 6i+1 are
    # 1, 2 and 1 mod 3), so an exact half-log remainder is 0, never 1/2
    exact = 0
    for p in range(2, 200):
        for i in range(1, p + 1):
            for fr in (kj_odd(p, i), kj_even(p, i)):
                if isinstance(fr.remainder, Fraction):
                    exact += 1
                    assert fr.remainder == 0, (p, i)
    assert exact > 100


def test_kj_values_count_literal_records():
    # k_j, floored at 0, is the number of records of row 6i-1 (kj_odd) or
    # 6i+1 (kj_even) with n1 <= N = 2p - 1: the odd or even x >= 1 with
    # 2^x <= (6p-2)/(6i-1) or (6p-2)/(6i+1)
    for p in range(2, 300):
        for i in range(1, 200):
            for kj in (kj_odd, kj_even):
                assert max(0, kj(p, i).value) == record_count(kj, p, i), (kj, p, i)


def test_half_remainder_claim_special_family():
    # for 6p-2 = 4^k the row-index expressions always miss an integer by
    # exactly one half (the even side hits 0 at the last depth)
    for k in range(2, 11):
        p = ((4**k - 1) // 3 + 1) // 2  # N = 2p - 1 = (4^k - 1)/3
        for f in range(1, k + 1):
            assert i_opow_floor(p, f).remainder == Fraction(1, 2)
        for f in range(1, k):
            assert i_epow_floor(p, f).remainder == Fraction(1, 2)
        assert i_epow_floor(p, k).remainder == 0


def test_floor_remainders_are_exact_fractions():
    # the general-p row-index forms carry exact rational remainders
    for p in range(2, 50):
        for f in range(1, 8):
            for fr, rebuild in (
                (i_opow_floor(p, f), (Fraction(6 * p - 2, 2 ** (2 * f - 1)) + 1) / 6),
                (i_epow_floor(p, f), (Fraction(6 * p - 2, 4**f) - 1) / 6),
            ):
                assert isinstance(fr.remainder, Fraction)
                assert fr.value + fr.remainder == rebuild


@settings(max_examples=200)
@given(st.integers(min_value=2, max_value=10**6))
def test_i_max_floor_forms(p):
    assert i_opow_max(p) == p // 2
    assert i_epow_max(p) == (p - 1) // 4
