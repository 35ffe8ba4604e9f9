"""Every integer argument with a floor, checked the same way.

Each entry passes the value under test as one argument and valid values for
the others. One below the floor raises ValueError, while a float or a bool
raises TypeError (even where it equals a value in range, since
True == 1 and 2.0 == 2). The floor itself is accepted.
"""

import pytest

from collatzkit import (
    SubsetTag,
    classify,
    cross_check_totals,
    cycle_scan,
    generate_table,
    geom_sum,
    geom_weighted_sum,
    i_epow_max,
    i_opow_max,
    inverse_bfs,
    iterate_ranges,
    kj_even,
    kj_odd,
    odd_successor,
    power_relation_integer,
    predecessor_of,
    predecessors,
    range_step,
    reproduce_assumption_table,
    step,
    totals,
    trajectory,
    uniqueness_check,
    v2,
    verify_forward,
)
from collatzkit.counting import i_epow_floor, i_opow_floor
from collatzkit.verify import assumption_bold_values

from summation import totals_by_summation

# name -> (call with the value under test, the least value it accepts)
DOMAINS = {
    "step.n": (step, 1),
    "v2.n": (v2, 1),
    "odd_successor.n": (odd_successor, 1),
    "trajectory.n": (trajectory, 1),
    "trajectory.max_steps": (lambda v: trajectory(27, v), 1),
    "power_relation_integer.n2_i": (lambda v: power_relation_integer(v, 1, 1), 1),
    "power_relation_integer.x_i": (lambda v: power_relation_integer(1, v, 1), 1),
    "power_relation_integer.n2_j": (lambda v: power_relation_integer(1, 1, v), 1),
    "i_opow_max.p_n": (i_opow_max, 2),
    "i_epow_max.p_n": (i_epow_max, 2),
    "geom_sum.a": (lambda v: geom_sum(v, 2), 0),
    "geom_sum.b": (lambda v: geom_sum(0, v), 0),
    "geom_sum.b_from_a": (lambda v: geom_sum(2, v), 2),
    "geom_weighted_sum.a": (lambda v: geom_weighted_sum(v, 2), 0),
    "geom_weighted_sum.b": (lambda v: geom_weighted_sum(0, v), 0),
    "geom_weighted_sum.b_from_a": (lambda v: geom_weighted_sum(2, v), 2),
    "totals.k_n": (totals, 2),
    "totals_by_summation.k_n": (totals_by_summation, 2),  # the tests' literal oracle
    "kj_odd.p_n": (lambda v: kj_odd(v, 1), 2),
    "kj_odd.i_opow": (lambda v: kj_odd(5, v), 1),
    "kj_even.p_n": (lambda v: kj_even(v, 1), 2),
    "kj_even.i_epow": (lambda v: kj_even(5, v), 1),
    "i_opow_floor.p_n": (lambda v: i_opow_floor(v, 1), 2),
    "i_opow_floor.f": (lambda v: i_opow_floor(5, v), 1),
    "i_epow_floor.p_n": (lambda v: i_epow_floor(v, 1), 2),
    "i_epow_floor.f": (lambda v: i_epow_floor(5, v), 1),
    "range_step.n": (range_step, 3),
    "odd_range_candidate.n": (lambda v: range_step(v).n_odd, 3),
    "even_range_candidate.n": (lambda v: range_step(v).n_even, 3),
    "iterate_ranges.n0": (lambda v: iterate_ranges(v, 1), 3),
    "iterate_ranges.max_iters": (lambda v: iterate_ranges(3, v), 1),
    "verify_forward.bound": (lambda v: verify_forward(v, shards=1), 1),
    "verify_forward.max_steps": (lambda v: verify_forward(101, v, 1), 1),
    "verify_forward.shards": (lambda v: verify_forward(101, shards=v), 1),
    "cycle_scan.bound": (cycle_scan, 1),
    "cycle_scan.max_steps": (lambda v: cycle_scan(101, v), 1),
    "reproduce_assumption_table.n0": (reproduce_assumption_table, 3),
    "assumption_bold_values.n0": (assumption_bold_values, 3),
    "cross_check_totals.k_max": (cross_check_totals, 2),
    "classify.n": (classify, 1),
    "predecessor_of.n2": (lambda v: predecessor_of(v, 1), 1),
    "predecessor_of.x": (lambda v: predecessor_of(5, v), 1),
    "predecessors.n2": (lambda v: predecessors(v, 4), 1),
    "predecessors.x_max": (lambda v: predecessors(5, v), 1),
    "generate_table.row_count": (lambda v: generate_table(SubsetTag.ODD_POWER, v, 2), 1),
    "generate_table.col_count": (lambda v: generate_table(SubsetTag.ODD_POWER, 2, v), 1),
    "uniqueness_check.bound": (uniqueness_check, 1),
    "inverse_bfs.bound": (lambda v: inverse_bfs(v, 101, 8), 1),
    "inverse_bfs.value_cap": (lambda v: inverse_bfs(101, v, 8), 101),
    "inverse_bfs.x_max": (lambda v: inverse_bfs(101, 1001, v), 1),
}


@pytest.mark.parametrize("name", DOMAINS)
def test_floor_is_accepted(name):
    call, floor = DOMAINS[name]
    call(floor)


@pytest.mark.parametrize("name", DOMAINS)
def test_below_floor_is_value_error(name):
    call, floor = DOMAINS[name]
    with pytest.raises(ValueError):
        call(floor - 1)


@pytest.mark.parametrize("bad", [float, lambda floor: True], ids=["float", "bool"])
@pytest.mark.parametrize("name", DOMAINS)
def test_non_int_is_type_error(name, bad):
    call, floor = DOMAINS[name]
    with pytest.raises(TypeError):
        call(bad(floor))
