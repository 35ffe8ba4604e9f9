"""Range recurrence: candidates, branch selection, growth, stalls."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzkit import (
    iterate_ranges,
    predecessor_of,
    range_step,
)


def paper_case_table(n):
    # the paper's case analysis of one step, written out literally
    p = (n + 1) // 2
    a = 1 if p % 2 == 0 else 4  # N_odd = 3p - A
    b = {2: 7, 0: 9, 1: 5}[p % 3]  # N_even = (8p - B) / 3
    assert (8 * p - b) % 3 == 0 and (p + b - 3 * a) % 3 == 0
    n_odd, n_even = 3 * p - a, (8 * p - b) // 3
    chosen = n_even if n_even <= n_odd else n_odd
    return {
        "n": n,
        "p_n": p,
        "n_odd": n_odd,
        "odd_branch": "p-even" if p % 2 == 0 else "p-odd",
        "n_even": n_even,
        "even_branch": {2: "p=3s-1", 0: "p=3s", 1: "p=3s+1"}[p % 3],
        "a_const": a,
        "b_const": b,
        "chosen": chosen,
        "growth": chosen - n,
        "delta_oe": (p + b - 3 * a) // 3,
    }


def test_range_step_matches_the_paper_case_table():
    for n in range(3, 2 * 10**5 + 1, 2):
        assert list(range_step(n).to_dict().items()) == list(paper_case_table(n).items()), f"N={n}"


@pytest.mark.parametrize("n,expected", [(19, 29), (5, 5), (9, 11), (3, 5), (25, 35)])
def test_odd_range_candidate(n, expected):
    assert range_step(n).n_odd == expected


def test_odd_range_candidate_equals_floor_form():
    for n in range(3, 2001, 2):
        p = (n + 1) // 2
        assert range_step(n).n_odd == 6 * (p // 2) - 1


@pytest.mark.parametrize("n,expected", [(19, 25), (3, 3), (11, 13), (5, 5), (25, 33)])
def test_even_range_candidate(n, expected):
    assert range_step(n).n_even == expected


def test_candidates_reject_small_or_even():
    for bad in (1, -3, 4):
        with pytest.raises(ValueError):
            range_step(bad)


def test_range_step_worked_example():
    s = range_step(19)
    assert (s.n_odd, s.n_even, s.chosen, s.growth) == (29, 25, 25, 6)
    assert s.p_n == 10
    assert s.to_dict()["delta_oe"] == 4


def test_range_step_stalls():
    s = range_step(5)  # p = 3
    assert s.chosen == 5
    assert s.growth == 0
    s = range_step(3)  # p = 2
    assert s.chosen == 3
    assert s.growth == 0


def test_range_step_25():
    s = range_step(25)
    assert (s.n_odd, s.n_even, s.chosen) == (35, 33, 33)


def test_candidate_ordering_exhaustive():
    # equality holds at p in {3, 5, 7}; everywhere else the odd-side
    # candidate is the strictly larger one
    for n in range(3, 10**5 + 1, 2):
        s = range_step(n)
        if s.p_n in (3, 5, 7):
            assert s.n_odd == s.n_even, f"expected tie at N={n}"
        else:
            assert s.n_odd > s.n_even, f"expected No > Ne at N={n}"


def test_growth_law_exhaustive():
    # stalls happen exactly at p = 2 and p = 3
    for n in range(3, 10**5 + 1, 2):
        s = range_step(n)
        if s.p_n in (2, 3):
            assert s.growth == 0
        else:
            assert s.chosen > n


@settings(max_examples=500)
@given(st.integers(min_value=2, max_value=10**9))
def test_candidates_exact_and_odd(p):
    n = 2 * p - 1
    s = range_step(n)
    assert s.n_odd % 2 == 1 and s.n_even % 2 == 1 and s.chosen % 2 == 1
    assert list(s.to_dict().items()) == list(paper_case_table(n).items())


def test_semantic_anchor_against_predecessors():
    # the odd-side candidate is the largest m = 5 (mod 6) whose x=1
    # predecessor lands inside [1, N]
    for n in range(3, 10**3 + 1, 2):
        m = range_step(n).n_odd
        assert m % 6 == 5
        rec = predecessor_of(m, 1)
        assert rec is not None and rec.n1 <= n
        rec_next = predecessor_of(m + 6, 1)
        assert rec_next is not None and rec_next.n1 > n


def test_iterate_from_19():
    trace = iterate_ranges(19, 10)
    assert not trace.stalled
    assert len(trace.states) == 10
    bounds = (trace.states[0].n,) + tuple(s.chosen for s in trace.states)
    assert bounds[:3] == (19, 25, 33)
    assert all(b > a for a, b in zip(bounds, bounds[1:]))
    for prev, nxt in zip(trace.states, trace.states[1:]):
        assert nxt.n == prev.chosen


def test_iterate_stall_records_index():
    trace = iterate_ranges(5, 5)
    assert trace.stalled
    assert trace.stall_index == 0
    assert len(trace.states) == 1


def test_iterate_from_7_no_stall():
    trace = iterate_ranges(7, 50)
    assert not trace.stalled
    assert len(trace.states) == 50


def test_trace_jsonl_round_trip():
    trace = iterate_ranges(19, 3)
    lines = trace.to_jsonl().strip().split("\n")
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["chosen"] == 25 and first["n"] == 19
