"""Acceptance gate: one test per criterion, each at its stated budget.

Every test prints a single PASS/FAIL line (run with -s to see them all).
"""

import time

from collatzkit import (
    SubsetTag,
    chain_product,
    cycle_scan,
    generate_table,
    inverse_bfs,
    odd_successor,
    predecessor_of,
    range_step,
    totals,
    uniqueness_check,
    verify_forward,
)
from collatzkit.verify import reproduce_assumption_table

from literal import chain_caps_below
from paper_tables import CAP_1E6_GAPS, TABLE1, TABLE1_GREY, TABLE2, TABLE2_GREY, TABLE3_ROWS
from summation import totals_by_summation

def report(num: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}: {detail} [{elapsed:.2f}s]")


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    ok = True
    even = generate_table(SubsetTag.EVEN_POWER, 4, 9)
    grey = set()
    for n2, recs in even.rows:
        ok &= [r.n1 for r in recs] == TABLE1[n2]
        grey |= {r.n1 for r in recs if not r.generates}
    ok &= grey == TABLE1_GREY
    odd = generate_table(SubsetTag.ODD_POWER, 3, 9)
    grey = set()
    for n2, recs in odd.rows:
        ok &= [r.n1 for r in recs] == TABLE2[n2]
        grey |= {r.n1 for r in recs if not r.generates}
    ok &= grey == TABLE2_GREY
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, ok, "predecessor tables match both reference grids, grey flags included", elapsed)
    assert ok


def test_criterion_2_assumption_table():
    t0 = time.perf_counter()
    rows = [(r.start, r.values, r.new_odds) for r in reproduce_assumption_table(19)]
    ok = rows == TABLE3_ROWS
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(2, ok, "six demonstration rows for [1,19] under the pinned truncation rule", elapsed)
    assert ok


def test_criterion_3_counting_identity():
    t0 = time.perf_counter()
    ok = True
    for k in range(2, 13):
        rep = totals(k)
        ok &= rep.identity_holds
        ok &= totals_by_summation(k) == (rep.t_odd, rep.t_even)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(3, ok, "totals identity and summation forms agree for k=2..12", elapsed)
    assert ok


def test_criterion_4_worked_example():
    t0 = time.perf_counter()
    s = range_step(19)
    ok = (s.n_odd, s.n_even, s.chosen) == (29, 25, 25)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 0.1
    report(4, ok, "range step at N=19 gives candidates 29/25 and picks 25", elapsed)
    assert ok


def test_criterion_5_stalls_only_at_p2_p3():
    t0 = time.perf_counter()
    bad = []
    for n in range(3, 10**5 + 1, 2):
        s = range_step(n)
        if s.p_n in (2, 3):
            if s.growth > 0:
                bad.append(n)
        elif s.chosen <= n:
            bad.append(n)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    report(5, ok, f"growth stalls exactly at p=2,3 over odd N <= 1e5 (violations: {bad[:5]})", elapsed)
    assert ok


def test_criterion_6_injectivity():
    t0 = time.perf_counter()
    rep = uniqueness_check(10**5)
    elapsed = time.perf_counter() - t0
    ok = rep.violations == () and elapsed < 10.0
    report(
        6,
        ok,
        f"no (n2, x) collisions among {rep.records_checked} records with n1 <= 1e5",
        elapsed,
    )
    assert ok


def test_criterion_7_duality():
    t0 = time.perf_counter()
    bad = 0
    for n1 in range(1, 10**5 + 1, 2):
        n2, x = odd_successor(n1)
        rec = predecessor_of(n2, x)
        if rec is None or rec.n1 != n1:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 10.0
    report(7, ok, "odd_successor inverts predecessor_of for every odd n1 <= 1e5", elapsed)
    assert ok


def test_criterion_8_forward_sweep():
    t0 = time.perf_counter()
    timed = verify_forward(10**7)
    elapsed = time.perf_counter() - t0
    ok = timed.failures == () and timed.verified == (10**7 + 1) // 2
    ok &= elapsed < 60.0
    runs = [verify_forward(10**7, shards=s) for s in (1, 4, 16)]
    for r in runs[1:]:
        ok &= (r.verified, r.failures, r.max_steps_used) == (
            runs[0].verified,
            runs[0].failures,
            runs[0].max_steps_used,
        )
    report(
        8,
        ok,
        f"1e7 sweep: {timed.verified} verified, 0 failures, identical for 1/4/16 shards",
        elapsed,
    )
    assert ok


def test_criterion_9_cycle_scan():
    t0 = time.perf_counter()
    scan = cycle_scan(10**6)
    elapsed = time.perf_counter() - t0
    cycles = scan.cycles
    ok = scan.undecided == () and len(cycles) == 1 and cycles[0].values == (1, 4, 2, 1)
    ok &= chain_product(cycles[0]) == 1
    ok &= elapsed < 60.0
    report(9, ok, "scan to 1e6 finds exactly the cycle 1,4,2 with unit product", elapsed)
    assert ok


FULL_COVERAGE_CAP = 9_038_141
# every value of the inverse tree truncated at FULL_COVERAGE_CAP and x <= 60
FULL_COVERAGE_NODES = 2_683_277


def test_criterion_10_inverse_coverage():
    t0 = time.perf_counter()
    caps = chain_caps_below(10**4)
    predicted = frozenset(n for n, (peak, run) in caps.items() if peak > 10**6 or run > 60)
    full_cap = max(peak for peak, _ in caps.values())
    ok = predicted == CAP_1E6_GAPS
    ok &= full_cap == FULL_COVERAGE_CAP
    ok &= [n for n, (peak, _) in caps.items() if peak == full_cap] == [9663]
    ok &= max(run for _, run in caps.values()) == 15
    base = inverse_bfs(10**4, 10**6, 60)
    doubled = inverse_bfs(10**4, 2 * 10**6, 120)
    full = inverse_bfs(10**4, full_cap, 60)
    elapsed = time.perf_counter() - t0
    exact_gaps = base.unreached == tuple(sorted(predicted))
    # at one bound the reached set is the odds outside the gaps
    stable = base.unreached == doubled.unreached
    full_coverage = full.unreached == ()
    ok &= full.nodes_expanded == FULL_COVERAGE_NODES
    ok &= exact_gaps and stable and full_coverage and elapsed < 60.0
    missing = list(base.unreached)
    report(
        10,
        ok,
        f"inverse BFS of [1,1e4] at cap 1e6 misses exactly the {len(missing)} predicted odds"
        f" {missing}: {exact_gaps}; stable under doubled caps: {stable};"
        f" full coverage at cap {full_cap}: {full_coverage}",
        elapsed,
    )
    assert ok, (
        f"unreached at cap 1e6: {missing}, oracle predicts {sorted(predicted)}; "
        f"reached set stable when caps double: {stable}; "
        f"unreached at cap {full_cap}: {list(full.unreached)}; "
        f"nodes expanded at cap {full_cap}: {full.nodes_expanded}"
    )
