"""The descent sweep's tables against a literal walk of T: the rows of
the residue sieve that the walk starts from, and its k-step window.

Only the tables come from collatzkit. T comes from tests/literal.py; its
step counts and the bound every row claims are recomputed one step at a time.
"""

from collatzkit.verify import _WINDOW, _sieve

from literal import T

K = len(_WINDOW).bit_length() - 1


def test_window_rows_match_a_literal_walk():
    assert K >= 1 and len(_WINDOW) == 1 << K
    for b, (num, c3, d, steps) in enumerate(_WINDOW):
        for a in (0, 1, 2, 2**40 + 3):
            w = (a << K) + b
            v, single = w, 0
            for _ in range(K):
                # the guard: T^i(w) >= w*num/2^K at every i <= K
                assert v << K >= w * num, (b, a)
                single += 2 if v % 2 else 1
                v = T(v)
            assert v << K >= w * num, (b, a)
            # T^K(w) = 3^c*a + d after K + c single steps
            assert (c3, c3 * a + d, steps) == (3 ** (single - K), v, single), (b, a)


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
