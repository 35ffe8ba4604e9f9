"""The descent sweep's tables against a literal walk of T: the rows of
the residue sieve that the walk starts from, and its k-step window.

Only the tables come from collatzkit. T comes from tests/literal.py; its
step counts and the bound every row claims are recomputed one step at a time.
"""

import pytest

from collatzkit.verify import SIEVE_MAX_DEPTH, _WINDOW, _sieve, _window_table

from literal import T


def _check_window(window, k):
    assert len(window) == 1 << k
    for b, (num, c3, d, steps) in enumerate(window):
        for a in (0, 1, 2, 2**40 + 3):
            w = (a << k) + b
            v, single, least = w, 0, 1 << k
            for i in range(1, k + 1):
                # the guard: T^i(w) >= w*num/2^k at every i <= k
                assert v << k >= w * num, (k, b, a)
                single += 2 if v % 2 else 1
                v = T(v)
                # num/2^k is the least 3^(c_i)/2^i, c_i = single - i odd steps
                least = min(least, 3 ** (single - i) << (k - i))
            assert v << k >= w * num and num == least, (k, b, a)
            # T^k(w) = 3^c*a + d after k + c single steps
            assert (c3, c3 * a + d, steps) == (3 ** (single - k), v, single), (k, b, a)


def test_window_rows_match_a_literal_walk():
    k = len(_WINDOW).bit_length() - 1
    assert k >= 1
    _check_window(_WINDOW, k)


@pytest.mark.parametrize("k", range(1, 11))
def test_window_table_matches_a_literal_walk_at_every_width(k):
    _check_window(_window_table(k), k)


# the classes mod 2^k whose coefficient 3^c stays above 2^j at every
# j <= k, for k = 1..16 (Oliveira e Silva 2010; OEIS A076227)
SURVIVOR_COUNTS = (1, 1, 2, 3, 4, 8, 13, 19, 38, 64, 128, 226, 367, 734, 1295, 2114)


def stopping_depth(r, k):
    # the first j <= k with 3^c < 2^j, c the odd values among T^0..T^(j-1)
    # of r, or k + 1 when there is none
    m, p3, p2 = r, 1, 1
    for j in range(1, k + 1):
        if m % 2:
            p3 *= 3
        p2 *= 2
        m = T(m)
        if p3 < p2:
            return j
    return k + 1


def test_sieve_survivors_match_a_literal_walk():
    top = len(SURVIVOR_COUNTS)
    # the first k parities of T's walk are those of r mod 2^k, so a class
    # mod 2^k survives exactly when its odd residues below 2^top do
    depths = {r: stopping_depth(r, top) for r in range(1, 2**top, 2)}
    for k, count in enumerate(SURVIVOR_COUNTS, start=1):
        rows = list(zip(*_sieve(k)[1]))
        assert sorted(r for r, *_ in rows) == sorted({r % 2**k for r, j in depths.items() if j > k}), k
        assert len(rows) == count, k
        for r, c3, v, steps in rows:
            m, c = r, 0
            for _ in range(k):
                c += m % 2
                m = T(m)
            # T^k(2^k*a + r) = 3^c*a + T^k(r) after k + c single steps
            assert (c3, v, steps) == (3**c, m, k + c), (k, r)


@pytest.mark.parametrize("depth", range(1, SIEVE_MAX_DEPTH + 1))
def test_sieve_exits_and_survivors_partition_the_odd_residues(depth):
    # an exit mod 2^j holds 2^(depth - j) odd residues mod 2^depth, and a
    # survivor one; together they hold 2^(depth - 1), and each odd residue
    # r, marked at byte r >> 1, is held by one of them
    exits, survivors = _sieve(depth)
    held = sum(1 << (depth - mod.bit_length() + 1) for mod in exits[0]) + len(survivors[0])
    assert held == 1 << (depth - 1)
    marks = bytearray(held)
    for mod, r in zip(exits[0], exits[1]):
        marks[r >> 1 :: mod >> 1] = b"\1" * (1 << (depth - mod.bit_length() + 1))
    for r in survivors[0]:
        marks[r >> 1] = 1
    assert marks.count(1) == held


@pytest.mark.parametrize("depth", range(1, 15))
def test_sieve_classes_match_a_literal_classification(depth):
    # each odd residue r mod 2^depth by its own walk of T: the exit class of
    # its stopping depth j, (2^j, r mod 2^j, j + c), or its surviving row
    exits, survivors = set(), set()
    for r in range(1, 1 << depth, 2):
        j = stopping_depth(r, depth)
        m, c = r, 0
        for _ in range(min(j, depth)):
            c += m % 2
            m = T(m)
        if j > depth:
            survivors.add((r, 3**c, m, depth + c))
        else:
            exits.add((2**j, r % 2**j, j + c))
    got_exits, got_survivors = (list(zip(*table)) for table in _sieve(depth))
    assert set(got_exits) == exits and len(got_exits) == len(exits)
    assert set(got_survivors) == survivors and len(got_survivors) == len(survivors)
