"""Brute-force harness: sweeps, cycle scan, table reproduction, cross-checks."""

import inspect
import json
import time
import tracemalloc

import pytest

from collatzkit import (
    DEFAULT_MAX_STEPS,
    CycleScanReport,
    Trajectory,
    chain_product,
    cross_check_totals,
    cycle_scan,
    inverse_bfs,
    verify_forward,
)
from collatzkit.core import POOL_MIN_BOUND
from collatzkit.verify import (
    SIEVE_MAX_DEPTH,
    WINDOW_BITS,
    _block_bounds,
    _merge,
    _sieve,
    _sieve_depth,
    _sweep_block,
    _walk_class,
    assumption_bold_values,
    render_assumption_table,
    reproduce_assumption_table,
)

from literal import T, chain_caps_below, descent_steps, heirs, oracle_sweep, records
from paper_tables import TABLE3_ROWS

# the depth _sieve_depth gives every bound from 2^17 up to 2^24
DEPTH = 16


def test_descent_steps_budget():
    assert descent_steps(3, 5) is None  # 3 needs 6 steps to dip below itself
    assert descent_steps(3, 6) == 6
    assert descent_steps(7, 11) == 11
    assert descent_steps(7, 10) is None
    for n, need in ((3, 6), (7, 11)):
        assert (n, "maxStepsExceeded") in verify_forward(n, need - 1, shards=1).failures
        assert verify_forward(n, need, shards=1).failures == ()


def test_descent_records_below_1e5():
    # the glide records: each odd start whose descent count beats every
    # smaller start's (Roosendaal), and the sweep's maximum up to each
    records = [(1, 0)]
    for n in range(3, 10**5, 2):
        if (steps := descent_steps(n, 10**4)) > records[-1][1]:
            records.append((n, steps))
    assert records == [(1, 0), (3, 6), (7, 11), (27, 96), (703, 132), (10087, 171), (35655, 220)]
    assert [(n, verify_forward(n, shards=1).max_steps_used) for n, _ in records] == records


def first_ancestor(lo):
    # an odd start at or below every ancestor of a start >= lo: the
    # ancestor (2n - 1)/3 on row x = 1 is below (8n - 5)/9 on row x = 2
    return max(1, ((2 * lo - 1) // 3 - 1) | 1)


def settled(blocks, max_steps, depth):
    # _sweep_block on each of the contiguous blocks, then _merge, as _sweep
    # merges its shards. An ancestor below the first block fails or
    # descends as the literal walk says, so the result covers the odd starts
    # from first_ancestor(lo) on: a block's own largest count is private,
    # since the ancestor of its record holder may lie below it
    lo, hi = blocks[0][0], blocks[-1][1]
    results = [oracle_sweep(first_ancestor(lo), lo, max_steps)]
    results += [_sweep_block(a, b, max_steps, depth) for a, b in blocks]
    return _merge(results, lo, hi, max_steps, depth)


@pytest.mark.parametrize("max_steps", [1, 3, 6, 20, 30, 100, 300, 100_000])
def test_sieved_sweep_matches_oracle_to_1e6(max_steps):
    expected = oracle_sweep(1, 10**6 + 1, max_steps)
    report = verify_forward(10**6, max_steps, shards=1)
    assert (report.verified, list(report.failures), report.max_steps_used) == expected
    assert report.ok == (not expected[1])
    # split as _sweep splits it for 1, 3 and 16 shards, at an odd depth and
    # an even one: a skipped start's ancestor may fail in an earlier block
    for blocks in (1, 3, 16):
        for depth in (15, 16):
            assert settled(_block_bounds(10**6, blocks), max_steps, depth) == expected, (blocks, depth)


@pytest.mark.parametrize("max_steps", [30, 100, 200])
def test_fallback_sees_a_failed_ancestor_in_an_earlier_block(max_steps):
    # the second block holds skipped starts whose ancestors fail in the
    # first: only a fallback after the merge can walk them
    blocks = [(1, 333_333), (333_333, 1_000_001)]
    expected = oracle_sweep(1, 1_000_001, max_steps)
    assert settled(blocks, max_steps, DEPTH) == expected
    failed = {n for n, _ in expected[1]}
    assert any(m < 333_333 <= n for m in failed for n in heirs(m) if n in failed)


def test_fallback_walks_down_a_line_of_failed_heirs():
    # at 100 steps 703 fails (it needs 132), and so do its heir 1055 and
    # that one's heir 1583; 7527 fails, and so do its heir 11291 and that
    # one's heir 12703, through rows x = 2 and x = 1. Each heir lies in a
    # class that survives and was skipped, so each is walked only because
    # the start before it failed: the second heir of each line, only in
    # _merge's second wave. In 16 blocks a line spans two or three
    lines = [(703, 1055, 1583), (7527, 11291, 12703)]
    for m, heir, next_heir in lines:
        assert heir in heirs(m) and next_heir in heirs(heir)
    assert (3 * 11291 + 1) // 2 != 12703 == (9 * 11291 + 5) // 8
    expected = oracle_sweep(1, 20_001, 100)
    assert {n for line in lines for n in line} <= {n for n, _ in expected[1]}
    for depth in (_sieve_depth(20_000), DEPTH):
        survivors = set(_sieve(depth)[1][0])
        assert all(n % (1 << depth) in survivors for line in lines for n in line[1:])
        for shards in (1, 3, 16):
            blocks = _block_bounds(20_000, shards)
            block_failures = {n for b in blocks for n, _ in _sweep_block(*b, 100, depth)[1]}
            assert {line[0] for line in lines} <= block_failures
            assert not block_failures & {n for line in lines for n in line[1:]}
            assert settled(blocks, 100, depth) == expected, (depth, shards)
    home = [i for line in lines for n in line for i, (lo, hi) in enumerate(_block_bounds(20_000, 16)) if lo <= n < hi]
    assert home == [0, 0, 1, 6, 9, 10]


def test_fallback_at_the_deepest_depth_keeps_no_table_beside_the_sieve():
    # once the sieve is built, _merge marks one byte per odd residue mod
    # 2^22, 2 MB, and walks each heir from 3n + 1: a table of ancestors
    # or of survivor rows would take tens of MB more
    depth, hi = SIEVE_MAX_DEPTH, 10**6 + 1
    results = [_sweep_block(1, hi, 100, depth)]
    tracemalloc.start()
    try:
        merged = _merge(results, 1, hi, 100, depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert merged == oracle_sweep(1, hi, 100)


@pytest.mark.parametrize("max_steps", [1, 3, 6, 30, 50, 86, 100_000])
def test_sieved_block_matches_oracle_at_every_depth(max_steps):
    # at 86 steps the largest count below 20,001 is held only by 6395, 13775
    # and 14495, each skipped for an ancestor that fails and walked after
    expected = oracle_sweep(1, 20_001, max_steps)
    for depth in range(1, DEPTH + 1):
        assert settled([(1, 20_001)], max_steps, depth) == expected, depth
    # a block that starts past 1 and ends off any class boundary
    expected = oracle_sweep(first_ancestor(20_003), 31_337, max_steps)
    for depth in (5, 12, DEPTH):
        assert settled([(20_003, 31_337)], max_steps, depth) == expected


def test_sweep_block_mixes_outcomes_inside_one_class():
    # 8 starts of every class that survives depth 16; their descent counts
    # run from 29 to 365, so at each budget some class has starts that
    # descend and starts that run out
    mod = 1 << DEPTH
    lo, hi = 10**6 + 1, 10**6 + 1 + 8 * mod
    for max_steps in (40, 100, 300):
        expected = oracle_sweep(first_ancestor(lo), hi, max_steps)
        assert settled([(lo, hi)], max_steps, DEPTH) == expected, max_steps
        failed = {n for n, _ in expected[1]}
        classes = [range(lo + (r - lo) % mod, hi, mod) for r in _sieve(DEPTH)[1][0]]
        assert any(0 < sum(n in failed for n in starts) < len(starts) for starts in classes), max_steps


def test_sieve_thresholds_are_exact():
    # every depth builds: _sieve raises if an exit class other than that of
    # 1 mod 4 fails to descend from its residue on
    for depth in range(1, SIEVE_MAX_DEPTH + 1):
        _sieve(depth)
    exits, survivors = (list(zip(*table)) for table in _sieve(DEPTH))
    assert len(survivors) == 2114  # of the 2^15 odd classes mod 2^16
    # only the class of 1 mod 4 holds a start below 3, the start 1 that
    # the sweep settles by convention
    assert [(mod, r) for mod, r, _ in exits if r < 3] == [(4, 1)]
    # each class's smallest start >= 3 descends at exactly the class's count
    for mod, r, steps in exits:
        n = r if r >= 3 else r + mod
        assert descent_steps(n, 10**4) == steps, (mod, r)
    # around the largest residue of a sieved class, at the class's own count
    top = max(r for _, r, _ in exits)
    assert top == 65_439
    steps = next(s for _, r, s in exits if r == top)
    lo, hi = top - 4000, top + 2**17 + 1
    for max_steps in (steps - 1, steps, 100_000):
        assert settled([(lo, hi)], max_steps, DEPTH) == oracle_sweep(first_ancestor(lo), hi, max_steps)


def test_sieve_depth_is_unchanged_below_2_24_and_never_falls():
    # the depth depends on the bit length alone, so the first and last
    # bounds of each length cover every bound; every odd one below 2^16 too
    bounds = sorted({b for j in range(41) for b in (2**j - 1, 2**j, 2**j + 1) if b >= 1} | set(range(1, 2**16, 2)))
    for b in bounds:
        if b < 2**24:
            assert _sieve_depth(b) == max(1, min(16, b.bit_length() - 2)), b
    depths = [_sieve_depth(b) for b in bounds]
    assert depths == sorted(depths)
    assert depths[-1] == SIEVE_MAX_DEPTH > _sieve_depth(2**24 - 1) == 16


def test_deep_sieve_reports_match_depth_16_and_the_oracle():
    # every depth the rule picks past 2^24, on [1, 1e6] split as _sweep
    # splits it: 100 steps leave failures whose heirs _merge must walk.
    # test_sieved_sweep_matches_oracle_to_1e6 checks depth 16 on the same
    expected = oracle_sweep(1, 10**6 + 1, 100)
    deep = sorted({_sieve_depth(2**j) for j in range(24, 41)})
    assert deep[0] > DEPTH and deep[-1] == SIEVE_MAX_DEPTH
    for depth in deep:
        for blocks in (1, 3, 16):
            assert settled(_block_bounds(10**6, blocks), 100, depth) == expected, (blocks, depth)


@pytest.mark.parametrize("depth", [18, 20, SIEVE_MAX_DEPTH])
def test_deep_sieve_block_across_a_class_boundary(depth):
    # the window holds each class's starts for a = 0 and a = 1; at the
    # window's largest count, one step short of it and one past it
    lo, hi = (1 << depth) - 3000, (1 << depth) + 3001
    top = oracle_sweep(lo, hi, 10**4)[2]
    for max_steps in (top - 1, top, top + 1):
        expected = oracle_sweep(first_ancestor(lo), hi, max_steps)
        assert settled([(lo, hi)], max_steps, depth) == expected, max_steps


def test_sieve_columns_hold_at_the_deepest_depth():
    # the int64 columns hold every row: array("q") raises on an overflow,
    # and T^k(r) < 3^k for r < 2^k bounds them all; the rows with the
    # largest entries are recomputed by a literal walk
    k = SIEVE_MAX_DEPTH
    exits, survivors = _sieve(k)
    assert {col.typecode for col in exits + survivors} == {"q"} and 3**k < 2**63
    rows = list(zip(*survivors))
    assert len(rows) == 93_222
    for col in range(4):
        r, c3, v, steps = max(rows, key=lambda row: row[col])
        m, c = r, 0
        for _ in range(k):
            c += m % 2
            m = T(m)
        assert (c3, v, steps) == (3**c, m, k + c), r
    assert max(exits[0]) <= 1 << k and max(exits[2]) <= 2 * k


def walk_one(n, w, used, max_steps):
    # the kernel on one class that holds the one start n, whose chain
    # reaches w after `used` steps (c3 = 3 is never used for one start),
    # walked even when an ancestor would settle it: the drop's step count,
    # "cycle", or None past the budget
    descended, failures, top = _walk_class([(range(n, n + 1), w, 3, used)], max_steps, skip=0)
    if descended:
        assert (descended, failures) == (1, [])
        return top
    ((start, reason),) = failures
    assert (start, top) == (n, 0)
    return None if reason == "maxStepsExceeded" else reason


def test_walk_class_finds_the_terminal_cycle():
    # the chain from 1 comes back to 1 after 1 -> 4 -> 2 -> 1
    assert walk_one(1, 4, 1, 3) == "cycle"
    assert walk_one(1, 4, 1, 2) is None
    assert walk_one(3, 10, 1, 100) == 6


def test_walk_class_meets_the_budget_exactly_inside_a_window():
    # every start walked below 200,001 at depth 16, one step short of its
    # drop, at it and one past it, each from its surviving class's row
    mod = 1 << DEPTH
    walked = [
        (n, c3 * a + v, steps)
        for r, c3, v, steps in zip(*_sieve(DEPTH)[1])
        for a, n in enumerate(range(r, 200_001, mod))
    ]
    assert len(walked) > 6000
    for n, w, used in walked:
        need = descent_steps(n, 10**4)
        for max_steps in (need - 1, need, need + 1):
            assert walk_one(n, w, used, max_steps) == descent_steps(n, max_steps), (n, max_steps)


def test_walk_class_finds_a_halving_run_that_ends_at_or_below_n():
    # w = m*2^shift halves down to m at exactly `shift` steps, across
    # window edges: back at n is a return, just below it a drop
    for shift in range(1, 3 * WINDOW_BITS):
        assert walk_one(21, 21 << shift, 0, 100) == "cycle", shift
        assert walk_one(21, 19 << shift, 0, 100) == shift, shift
        assert walk_one(21, 19 << shift, 0, shift - 1) is None, shift


def test_verify_forward_19():
    report = verify_forward(19, 10**3)
    assert report.verified == 10
    assert report.failures == ()


def test_verify_forward_trivial():
    report = verify_forward(1, 10)
    assert report.verified == 1
    assert report.failures == ()
    assert report.max_steps_used == 0


def test_sweeps_share_one_default_budget():
    for sweep in (verify_forward, cycle_scan):
        assert inspect.signature(sweep).parameters["max_steps"].default == DEFAULT_MAX_STEPS


@pytest.mark.parametrize("sweep", [verify_forward, cycle_scan])
@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"bound": 1e3}, TypeError),
        ({"bound": True}, TypeError),
        ({"bound": 0}, ValueError),
        ({"bound": 99, "max_steps": 50.5}, TypeError),
        ({"bound": 99, "max_steps": True}, TypeError),
        ({"bound": 99, "max_steps": 0}, ValueError),
    ],
)
def test_sweeps_reject_what_is_not_a_positive_int(sweep, kwargs, error):
    with pytest.raises(error):
        sweep(**kwargs)


@pytest.mark.parametrize("shards, error", [(2.0, TypeError), (True, TypeError), (0, ValueError)])
def test_verify_forward_rejects_bad_shards(shards, error):
    with pytest.raises(error):
        verify_forward(99, shards=shards)


@pytest.mark.parametrize("k_max, error", [(6.0, TypeError), (True, TypeError), (1, ValueError), (0, ValueError)])
def test_cross_check_rejects_bad_k_max(k_max, error):
    with pytest.raises(error, match="k_max"):
        cross_check_totals(k_max)


def test_verify_forward_records_budget_failures():
    # with one step allowed, only the start 1 is confirmed
    report = verify_forward(19, 1)
    assert [f[0] for f in report.failures] == [3, 5, 7, 9, 11, 13, 15, 17, 19]
    # with three steps, every 4k+1 start descends; the 4k+3 starts need more
    report = verify_forward(19, 3)
    assert [f[0] for f in report.failures] == [3, 7, 11, 15, 19]
    assert all(reason == "maxStepsExceeded" for _, reason in report.failures)
    assert report.verified + len(report.failures) == 10


def test_verify_forward_deterministic_across_shards():
    # above POOL_MIN_BOUND, so more than one shard runs in a pool
    bound = POOL_MIN_BOUND + 1001
    for max_steps in (20, 10_000):
        reports = [verify_forward(bound, max_steps, shards=s).to_dict() for s in (1, 3, 4, 16)]
        for r in reports:
            del r["wall_time"], r["shards"]
        assert all(r == reports[0] for r in reports[1:])
    assert reports[0]["verified"] == (bound + 1) // 2


def test_report_dict_shares_the_failures_it_holds():
    # json.dumps writes the tuples as it writes lists, so no copy is made,
    # which at budget 1 would be one list per odd start
    report = verify_forward(1001, 1, shards=1)
    assert len(report.failures) == 500
    assert report.to_dict()["failures"] is report.failures
    assert json.loads(json.dumps(report.to_dict()))["failures"] == [list(f) for f in report.failures]


def test_block_bounds_cover_all_odds():
    for bound in (1, 7, 100, 101, 1000):
        for shards in (1, 3, 4, 16, 1000):
            blocks = _block_bounds(bound, shards)
            seen = []
            for lo, hi in blocks:
                seen.extend(range(lo, hi, 2))
            assert seen == list(range(1, bound + 1, 2))


def test_cycle_scan_finds_only_terminal_cycle():
    cycles = cycle_scan(10**4).cycles
    assert len(cycles) == 1
    assert cycles[0].values == (1, 4, 2, 1)


@pytest.mark.parametrize("bound", [20_001, POOL_MIN_BOUND + 1])
def test_cycle_scan_undecided_matches_oracle(bound):
    for max_steps in (1, 6, 20, 100):
        report = cycle_scan(bound, max_steps)
        assert list(report.undecided) == [n for n, _ in oracle_sweep(3, bound + 1, max_steps)[1]]
        assert [c.values for c in report.cycles] == [(1, 4, 2, 1)]
    report = cycle_scan(bound)
    assert report.undecided == ()
    assert [c.values for c in report.cycles] == [(1, 4, 2, 1)]


def test_cycle_scan_report_is_exported():
    assert isinstance(cycle_scan(1), CycleScanReport)


def test_cycle_scan_report_ok_needs_exactly_the_terminal_cycle():
    # the report alone decides: no start undecided and 1 -> 4 -> 2 the only cycle
    assert not CycleScanReport(bound=1, cycles=(), undecided=()).ok
    assert not CycleScanReport(bound=1, cycles=(Trajectory((4, 2, 1, 4)),), undecided=()).ok
    assert CycleScanReport(bound=1, cycles=(Trajectory((1, 4, 2, 1)),), undecided=()).ok
    assert not CycleScanReport(bound=1, cycles=(Trajectory((1, 4, 2, 1)),), undecided=(27,)).ok


def test_cycle_scan_bound_one():
    cycles = cycle_scan(1).cycles
    assert [c.values for c in cycles] == [(1, 4, 2, 1)]


def test_cycle_product_is_one():
    (cycle,) = cycle_scan(100).cycles
    assert chain_product(cycle) == 1


def test_assumption_table_19_rows_bit_exact():
    rows = reproduce_assumption_table(19)
    assert [(r.start, r.values, r.new_odds) for r in rows] == TABLE3_ROWS


def test_assumption_table_small():
    rows = reproduce_assumption_table(3)
    assert [r.start for r in rows] == [1, 3]
    assert rows[0].values == (4, 2, 1)
    assert rows[1].values == (3, 10, 5, 16, 8, 4)
    assert rows[1].new_odds == (3,)  # 5 is above the bound 3


def test_assumption_rows_claim_every_odd_once():
    for n0 in (19, 99, 999):
        rows = reproduce_assumption_table(n0)
        claimed = [m for r in rows for m in r.new_odds]
        assert sorted(claimed) == list(range(1, n0 + 1, 2))
        assert len(set(claimed)) == len(claimed)


def test_assumption_bold_values_19():
    bold = assumption_bold_values(19)
    assert set(range(1, 20, 2)) <= bold
    assert {23, 29} <= bold  # the 5 mod 6 numbers of the grown range [1, 29]
    assert 35 not in bold and 53 not in bold


def test_render_assumption_table_marks_merges():
    text = render_assumption_table(reproduce_assumption_table(19), 19)
    lines = text.strip().split("\n")
    assert len(lines) == 6
    assert lines[0].endswith("| 1")
    assert "..." not in lines[0]  # the root row ends at 1
    assert all("..." in line for line in lines[1:])


def test_cross_check_totals():
    entries = cross_check_totals(6)
    assert all(e.counts_match for e in entries)
    first = entries[0]  # k = 2
    assert (first.root_row_count, first.opow_count, first.epow_count) == (2, 1, 0)
    assert first.totals.t_total == 3


def test_cross_check_totals_deep():
    t0 = time.time()
    entries = cross_check_totals(12)
    assert all(e.counts_match for e in entries)
    assert time.time() - t0 < 10.0


def test_cross_check_breakdown_matches_record_enumeration():
    # recount by enumerating the records literally, self pair in the root row
    entry = next(e for e in cross_check_totals(4) if e.totals.k_n == 4)
    buckets = [0, 0, 0]
    for n2, _, _ in records(entry.totals.n):
        buckets[0 if n2 == 1 else 1 if n2 % 6 == 5 else 2] += 1
    assert tuple(buckets) == (entry.root_row_count, entry.opow_count, entry.epow_count)


def test_forward_inverse_agreement_small_bounds():
    # with caps an order of magnitude above the observed peak, the inverse
    # expansion reaches exactly what the forward sweep verifies
    for bound in (29, 101, 999):
        report = verify_forward(bound)
        assert report.failures == ()
        # the largest value on any chain is 3m + 1 for its largest odd m
        peak = 3 * max(p for p, _ in chain_caps_below(bound).values()) + 1
        cov = inverse_bfs(bound, 10 * peak, 60)
        assert cov.unreached == ()
        assert cov.reached_count == (bound + 1) // 2


def test_verify_report_wall_time_positive():
    report = verify_forward(999)
    assert report.wall_time >= 0
    assert isinstance(report.wall_time, float)
