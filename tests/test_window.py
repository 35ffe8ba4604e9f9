"""The descent walk's k-step window table against a literal walk of T.

Only the table comes from collatzkit; T, its step counts and the bound
every window row claims are recomputed here one step at a time.
"""

from collatzkit.verify import _WINDOW

K = len(_WINDOW).bit_length() - 1


def T(m):
    return (3 * m + 1) // 2 if m % 2 else m // 2


def test_window_rows_match_a_literal_walk():
    assert K >= 1 and len(_WINDOW) == 1 << K
    for b, (p, s, c3, d, steps) in enumerate(_WINDOW):
        for a in (0, 1, 2, 2**40 + 3):
            w = (a << K) + b
            v, single = w, 0
            for _ in range(K):
                # the guard: T^i(w) >= w*p/2^s at every i <= K
                assert v << s >= w * p, (b, a)
                single += 2 if v % 2 else 1
                v = T(v)
            assert v << s >= w * p, (b, a)
            # T^K(w) = 3^c*a + d after K + c single steps
            assert (c3, c3 * a + d, steps) == (3 ** (single - K), v, single), (b, a)
