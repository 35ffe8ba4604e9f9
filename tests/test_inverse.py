"""Inverse recurrence: classification, predecessor records, tables, tree walk."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzkit import (
    SubsetTag,
    classify,
    core,
    cross_check_totals,
    generate_table,
    inverse,
    inverse_bfs,
    odd_successor,
    predecessor_of,
    predecessors,
    table_to_csv,
    uniqueness_check,
)
from collatzkit.cli import main

from literal import chain_caps, chain_caps_below, count_records_by_class, literal_bfs, records
from paper_tables import CAP_1E6_GAPS, TABLE1, TABLE1_GREY, TABLE2, TABLE2_GREY


@pytest.mark.parametrize(
    "n,tag,index",
    [
        (9, SubsetTag.MULTIPLE_OF_THREE, None),
        (3, SubsetTag.MULTIPLE_OF_THREE, None),
        (7, SubsetTag.EVEN_POWER, 1),
        (1, SubsetTag.EVEN_POWER, None),
        (13, SubsetTag.EVEN_POWER, 2),
        (5, SubsetTag.ODD_POWER, 1),
        (11, SubsetTag.ODD_POWER, 2),
    ],
)
def test_classify(n, tag, index):
    c = classify(n)
    assert c.tag is tag
    assert c.index == index


def test_classify_rejects_even():
    with pytest.raises(ValueError):
        classify(6)


def test_predecessor_of_examples():
    rec = predecessor_of(1, 4)
    assert rec is not None and rec.n1 == 5
    rec = predecessor_of(5, 3)
    assert rec is not None and rec.n1 == 13
    for x in range(1, 21):
        assert predecessor_of(9, x) is None


def test_predecessor_of_self_pair():
    rec = predecessor_of(1, 2)
    assert rec is not None
    assert rec.n1 == 1
    assert (rec.n2, rec.x) == (1, 2)
    assert rec.generates


def test_predecessors_row_five():
    recs = predecessors(5, 6)
    assert [(r.x, r.n1) for r in recs] == [(1, 3), (3, 13), (5, 53)]


def test_predecessors_multiple_of_three_empty():
    assert predecessors(3, 20) == []
    assert predecessors(9, 40) == []


def test_predecessors_row_one_excludes_self_pair():
    recs = predecessors(1, 6)
    assert [(r.x, r.n1) for r in recs] == [(4, 5), (6, 21)]


def test_table_even_matches_reference():
    table = generate_table(SubsetTag.EVEN_POWER, 4, 9)
    assert [n2 for n2, _ in table.rows] == [1, 7, 13, 19]
    grey = set()
    for n2, recs in table.rows:
        assert [r.x for r in recs] == list(range(2, 19, 2))
        assert [r.n1 for r in recs] == TABLE1[n2]
        grey |= {r.n1 for r in recs if not r.generates}
    assert grey == TABLE1_GREY


def test_table_odd_matches_reference():
    table = generate_table(SubsetTag.ODD_POWER, 3, 9)
    assert [n2 for n2, _ in table.rows] == [5, 11, 17]
    grey = set()
    for n2, recs in table.rows:
        assert [r.x for r in recs] == list(range(1, 18, 2))
        assert [r.n1 for r in recs] == TABLE2[n2]
        grey |= {r.n1 for r in recs if not r.generates}
    assert grey == TABLE2_GREY


def test_table_single_cell():
    table = generate_table(SubsetTag.ODD_POWER, 1, 1)
    ((n2, recs),) = table.rows
    assert n2 == 5
    assert (recs[0].x, recs[0].n1, recs[0].generates) == (1, 3, False)


def test_table_rejects_multiple_of_three():
    with pytest.raises(ValueError):
        generate_table(SubsetTag.MULTIPLE_OF_THREE, 1, 1)


def test_rows_match_a_literal_grid():
    # predecessors and generate_table against predecessor_of, cell by cell
    grid = {
        n2: [rec for x in range(1, 31) if (rec := predecessor_of(n2, x)) is not None]
        for n2 in range(1, 302, 2)
    }
    for n2, recs in grid.items():
        for x_max in range(1, 31):
            assert predecessors(n2, x_max) == [r for r in recs if r.x <= x_max and (r.n2, r.x) != (1, 2)]
    for tag, first in ((SubsetTag.EVEN_POWER, 1), (SubsetTag.ODD_POWER, 5)):
        row_values = list(range(first, 302, 6))
        for cols in range(1, 16):
            table = generate_table(tag, len(row_values), cols)
            x_max = 2 * cols if tag is SubsetTag.EVEN_POWER else 2 * cols - 1
            assert [n2 for n2, _ in table.rows] == row_values
            for n2, recs in table.rows:
                assert list(recs) == [r for r in grid[n2] if r.x <= x_max]
    for recs in grid.values():
        for r in recs:
            assert r.n1_class == classify(r.n1)
            assert r.generates == (r.n1 % 3 != 0)


def test_table_csv_shape():
    table = generate_table(SubsetTag.ODD_POWER, 1, 2)
    assert table_to_csv(table) == (
        "n2,x,n1,class,generates\n"
        "5,1,3,multiple-of-three,false\n"
        "5,3,13,even-power,true\n"
    )


def test_uniqueness_small_and_trivial():
    assert uniqueness_check(100).violations == ()
    assert uniqueness_check(1).violations == ()


@pytest.mark.parametrize("bound", [1, 3, 7, 17, 100, 101, 1003])
def test_uniqueness_counts_records(bound):
    # every record (n2, x) -> n1 <= bound, less the self pair (1, 2) -> 1
    assert uniqueness_check(bound).records_checked == sum(1 for _ in records(bound)) - 1


def test_record_counter_matches_the_row_walk():
    # the cross-check's literal counter buckets the records of _records by
    # row class at every bound, not only at the bounds (4^k - 1)/3
    for n in range(1, 400):
        buckets = [0, 0, 0]
        for n2, _, _ in inverse._records(range(1, 3 * n + 2, 2), n):
            buckets[0 if n2 == 1 else 1 if n2 % 6 == 5 else 2] += 1
        assert inverse._count_records_by_class([n]) == [tuple(buckets)], n


# the cross-check's bounds N_k = (4^k - 1)/3, k = 2..12
CROSS_CHECK_NS = [(4**k - 1) // 3 for k in range(2, 13)]


@pytest.mark.parametrize("calls", [1, 2, 3])
@pytest.mark.parametrize(
    "ns",
    # 5461 = N_7 is the n1 of row 1's record at x = 14
    [list(range(1, 400, 2)), CROSS_CHECK_NS, [1001], [5459, 5461, 5463]],
    ids=["odd-below-400", "cross-check", "single", "adjacent"],
)
def test_record_counter_serves_every_n_of_one_call(ns, calls):
    # one pass over the marks of the largest n counts every n of the call as
    # the literal row walk does, whichever other n share the call: the ns
    # are dealt into up to `calls` interleaved calls, each with its own
    # largest n
    got = {}
    for c in range(min(calls, len(ns))):
        got.update(zip(ns[c::calls], inverse._count_records_by_class(ns[c::calls])))
    assert [got[n] for n in ns] == [count_records_by_class(n) for n in ns]


def test_record_counter_agrees_at_the_window_edges():
    # each N whose prefix of (N + 1) // 2 bytes ends one byte before, at or
    # one byte past the end of the first or the second window
    w = inverse.COUNT_WINDOW
    ns = [2 * (j * w + d) - 1 for j in (1, 2) for d in (-1, 0, 1)]
    assert [(n + 1) // 2 % w for n in ns] == [w - 1, 0, 1] * 2
    expected = [count_records_by_class(n) for n in ns]
    assert inverse._count_records_by_class(ns) == expected
    assert [inverse._count_records_by_class([n])[0] for n in ns] == expected


def test_record_counter_counts_no_class_for_a_record_marked_twice(monkeypatch, capsys):
    # no real column overlaps another, so add a column that marks n1 = 3
    # (row 5 at x = 1, index 1) a second time: its byte is a collision and
    # counts in no class, so the 6i - 1 count of every k falls one short
    # and the cross-check fails
    real = inverse._columns
    monkeypatch.setattr(inverse, "_columns", lambda bound: [*real(bound), (5, 1, slice(1, 2, 2))])
    entries = cross_check_totals(6)
    assert [e.opow_count for e in entries] == [e.totals.t_odd - 1 for e in entries]
    assert [(e.root_row_count, e.epow_count) for e in entries] == [(e.totals.k_n, e.totals.t_even) for e in entries]
    assert not any(e.counts_match for e in entries)
    assert main(["cross-check", "--kmax", "6"]) == 1
    assert capsys.readouterr().out.count("[MISMATCH]") == 5


def test_record_counts_at_the_cross_check_bounds():
    pinned = [(10, 116_505, 58_248), (11, 466_030, 233_010), (12, 1_864_131, 932_060)]
    assert [count_records_by_class(n) for n in CROSS_CHECK_NS[-3:]] == pinned


def _column_records(bound):
    n = (bound + 1) // 2
    return sorted(
        (n2 + 6 * k, x, 2 * j + 1)
        for n2, x, sl in inverse._columns(bound)
        for k, j in enumerate(range(n)[sl])
    )


def _row_records(bound):
    # a row past n2 = (3*bound + 1) / 2 has no record, as n1 >= (2*n2 - 1) / 3
    rows = inverse._records(range(1, (3 * bound + 1) // 2 + 1, 2), bound)
    return sorted(r for r in rows if r[:2] != inverse.SELF_ITERATION)


def test_columns_hold_the_records_of_the_row_walk():
    # the uniqueness scan's columns against the row walk, self pair dropped
    for bound in [*range(1, 2001), 999_983]:
        assert _column_records(bound) == _row_records(bound), bound


def test_uniqueness_checks_one_record_per_odd_above_one():
    # each odd n1 in (1, bound] has exactly one record, its odd successor's
    for bound in range(1, 2000):
        report = uniqueness_check(bound)
        assert report.records_checked == report.records_expected == (bound + 1) // 2 - 1
        assert report.ok


def test_uniqueness_large_bound():
    report = uniqueness_check(10**7)
    assert report.records_checked == 4_999_999
    assert report.violations == ()


def test_uniqueness_reports_every_collision(monkeypatch):
    # no real column overlaps another, so feed the check columns that do:
    # 5 from three sources, 9 from two, everything else once
    columns = [
        (5, 1, slice(1, 6, 2)),  # rows 5, 11, 17 at x = 1: n1 = 3, 7, 11
        (1, 4, slice(2, 3, 16)),  # n1 = 5
        (7, 2, slice(4, 9, 4)),  # rows 7, 13 at x = 2: n1 = 9, 17
        (99, 3, slice(2, 3, 8)),  # n1 = 5
        (23, 3, slice(2, 3, 8)),  # n1 = 5
        (43, 1, slice(4, 5, 2)),  # n1 = 9
    ]
    monkeypatch.setattr(inverse, "_columns", lambda bound: iter(columns))
    report = uniqueness_check(17)
    assert report.records_checked == 9
    assert report.violations == (
        (5, ((1, 4), (23, 3), (99, 3))),
        (9, ((7, 2), (43, 1))),
    )
    assert not report.ok


def test_uniqueness_fails_on_either_clause_alone(monkeypatch):
    # a collision fails the scan with the expected record count: 5 and 9
    # have two sources each, 13 and 15 none, and the count is 8 all the same
    real = inverse._columns
    columns = [
        (5, 1, slice(1, 6, 2)),  # rows 5, 11, 17 at x = 1: n1 = 3, 7, 11
        (1, 4, slice(2, 3, 16)),  # n1 = 5
        (7, 2, slice(4, 9, 4)),  # rows 7, 13 at x = 2: n1 = 9, 17
        (99, 3, slice(2, 3, 8)),  # n1 = 5
        (43, 1, slice(4, 5, 2)),  # n1 = 9
    ]
    monkeypatch.setattr(inverse, "_columns", lambda bound: iter(columns))
    report = uniqueness_check(17)
    assert report.records_checked == report.records_expected == 8
    assert [n1 for n1, _ in report.violations] == [5, 9]
    assert not report.ok
    # and a missed column fails it with no collision
    monkeypatch.setattr(inverse, "_columns", lambda bound: itertools.islice(real(bound), 1, None))
    report = uniqueness_check(1001)
    assert report.violations == ()
    assert report.records_checked < report.records_expected
    assert not report.ok


def test_duality_exhaustive_small():
    # every record inverts through odd_successor, n1 <= 2000
    for n1 in range(1, 2001, 2):
        n2, x = odd_successor(n1)
        rec = predecessor_of(n2, x)
        assert rec is not None
        assert rec.n1 == n1


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10**8))
def test_duality_property(k):
    n1 = 2 * k + 1
    n2, x = odd_successor(n1)
    rec = predecessor_of(n2, x)
    assert rec is not None and rec.n1 == n1


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=40))
def test_parity_law(seed, x):
    n2 = 2 * seed - 1
    rec = predecessor_of(n2, x)
    if n2 % 3 == 0:
        assert rec is None
    elif n2 % 6 == 1:
        assert (rec is not None) == (x % 2 == 0)
    else:
        assert (rec is not None) == (x % 2 == 1)


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=40))
def test_grey_mark_law(seed, x):
    # a record generates further records iff its n1 is not a multiple of 3
    n2 = 2 * seed - 1
    rec = predecessor_of(n2, x)
    if rec is not None:
        assert rec.generates == (rec.n1 % 3 != 0)
        assert rec.generates == bool(predecessors(rec.n1, 8)) or rec.n1 == 1


def test_inverse_bfs_reaches_small_range():
    report = inverse_bfs(29, 10**4, 40)
    assert report.unreached == ()
    assert report.reached_count == 15


def test_inverse_bfs_root_only():
    report = inverse_bfs(1, 1, 1)
    assert report.unreached == ()
    assert report.reached_count == 1
    assert report.nodes_expanded == 1


def test_inverse_bfs_reaches_27():
    report = inverse_bfs(27, 10**4, 40)
    assert 27 not in report.unreached


def test_inverse_bfs_monotone_in_caps():
    base = inverse_bfs(99, 10**3, 10)
    wider = inverse_bfs(99, 2 * 10**3, 10)
    taller = inverse_bfs(99, 10**3, 20)
    # at one bound, reaching a superset is leaving a subset of the gaps
    assert set(wider.unreached) <= set(base.unreached)
    assert set(taller.unreached) <= set(base.unreached)


def test_inverse_bfs_validates_caps():
    with pytest.raises(ValueError):
        inverse_bfs(100, 50, 10)


def test_coverage_partition():
    # the gaps are distinct odds <= bound, ascending, and the rest is reached
    report = inverse_bfs(99, 10**3, 10)
    assert report.unreached
    assert list(report.unreached) == sorted(set(report.unreached) & set(range(1, 100, 2)))
    assert report.reached_count + len(report.unreached) == 50


LITERAL_GRID = [
    (1, 1, 1),
    (1, 1, 2),
    (1, 5, 4),
    (99, 99, 1),
    (99, 99, 2),
    (99, 99, 60),
    (999, 10**4, 1),
    (999, 10**4, 2),
    # rows n2 <= x_low = (3*value_cap + 1) >> x_max stop at their exponent
    # cap, the others at value_cap: x_low is 3, 1 and 0 here, and 2 below
    (999, 10**4, 13),
    (999, 10**4, 14),
    (999, 10**4, 15),
    (2001, 2001, 11),
    (2001, 10**5, 60),
    # no row is shifted by x_max: at 10**9 that shift would not finish
    (2001, 10**5, 10**9),
    (10**4, 10**4, 60),
    (10**4, 10**5, 8),
    (10**4, 10**6, 8),
    (10**4, 10**6, 14),
    (10**4, 10**6, 60),
]


@pytest.mark.parametrize("bound,value_cap,x_max", LITERAL_GRID)
def test_inverse_bfs_matches_literal_bfs(bound, value_cap, x_max):
    report = inverse_bfs(bound, value_cap, x_max)
    reached, unreached, expanded = literal_bfs(bound, value_cap, x_max)
    assert report.reached_count == len(reached)
    assert report.unreached == tuple(sorted(unreached))
    assert report.nodes_expanded == expanded


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("bound,value_cap,x_max", LITERAL_GRID)
def test_pooled_inverse_bfs_matches_literal_bfs(monkeypatch, cpus, bound, value_cap, x_max):
    # every cap pools on more than one CPU, in rounds of at most `budget`
    # nodes per part; budget 1 only where the rounds stay few enough to run
    reached, unreached, expanded = literal_bfs(bound, value_cap, x_max)
    monkeypatch.setattr(core, "_cpus", lambda: cpus)
    monkeypatch.setattr(core, "POOL_MIN_BOUND", 1)
    for budget in (1, 1000, inverse.WALK_BUDGET):
        if expanded > 5000 * budget:
            continue
        monkeypatch.setattr(inverse, "WALK_BUDGET", budget)
        report = inverse_bfs(bound, value_cap, x_max)
        assert report.reached_count == len(reached)
        assert report.unreached == tuple(sorted(unreached))
        assert report.nodes_expanded == expanded


@pytest.mark.parametrize("x_max,nodes", [(60, 297_714), (14, 297_100)])
def test_inverse_bfs_node_counts(x_max, nodes):
    assert inverse_bfs(10**4, 10**6, x_max).nodes_expanded == nodes


@pytest.mark.parametrize(
    "value_cap,x_max,expected",
    [
        # 2,717,873 is the peak on the chains of 4591, 6121, 6887, 8161 and
        # 9183; only 9663 (peak 9,038,141) needs a higher cap
        (2_717_873, 60, {9663}),
        (2_717_872, 60, {4591, 6121, 6887, 8161, 9183, 9663}),
        # 7407 and 9375 stay below 1e6 but need a halving run of 15
        (10**6, 14, CAP_1E6_GAPS | {7407, 9375}),
    ],
)
def test_inverse_bfs_gaps_match_forward_oracle_at_thresholds(value_cap, x_max, expected):
    predicted = {
        n
        for n, (peak, run) in chain_caps_below(10**4).items()
        if peak > value_cap or run > x_max
    }
    assert predicted == expected
    assert inverse_bfs(10**4, value_cap, x_max).unreached == tuple(sorted(expected))


def test_chain_caps_of_9663():
    # 9663's chain peaks at the cap that full coverage of [1, 1e4] needs
    assert chain_caps(9663) == (9_038_141, 6)
