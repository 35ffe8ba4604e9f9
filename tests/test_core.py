"""Forward dynamics: step rule, valuations, trajectories, chain products."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzkit import (
    Trajectory,
    chain_product,
    odd_successor,
    step,
    trajectory,
    v2,
)

from literal import steps_to_one


@pytest.mark.parametrize(
    "n,expected",
    [(22, 11), (1, 4), (27, 82), (4, 2), (2, 1), (7, 22)],
)
def test_step(n, expected):
    assert step(n) == expected


def test_step_rejects_nonpositive():
    with pytest.raises(ValueError):
        step(0)
    with pytest.raises(TypeError):
        step(1.5)


@pytest.mark.parametrize("n,expected", [(40, 3), (1, 0), (52, 2), (1024, 10), (96, 5)])
def test_v2(n, expected):
    assert v2(n) == expected


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=10**9))
def test_v2_strips_exactly(k, odd_seed):
    m = (2 * odd_seed - 1) << k
    assert v2(m) == k


@pytest.mark.parametrize("n,expected", [(7, (11, 1)), (1, (1, 2)), (17, (13, 2))])
def test_odd_successor(n, expected):
    assert odd_successor(n) == expected


def test_odd_successor_rejects_even():
    with pytest.raises(ValueError):
        odd_successor(8)


def test_odd_successor_consistency_exhaustive():
    # follow step() through the halving run and compare, for all odd n <= 10**6
    for n in range(1, 10**6 + 1, 2):
        w = 3 * n + 1
        x = 0
        while w % 2 == 0:
            w //= 2
            x += 1
        assert odd_successor(n) == (w, x)


def test_trajectory_of_nine_matches_table_row():
    t = trajectory(9, 100)
    assert t.terminated
    assert t.values[:4] == (9, 28, 14, 7)
    assert t.values[-1] == 1


def test_trajectory_of_one_is_empty():
    t = trajectory(1, 100)
    assert len(t.values) - 1 == 0
    assert t.terminated
    assert t.values == (1,)
    assert t.even_steps == t.odd_steps == 0


def test_trajectory_27_terminates_in_111_steps():
    assert steps_to_one(27) == 111  # oracle agrees with the frozen value
    t = trajectory(27, 200)
    assert t.terminated
    assert len(t.values) - 1 == 111
    assert t.peak == 9232


def test_trajectory_respects_max_steps():
    t = trajectory(27, 10)
    assert not t.terminated
    assert len(t.values) - 1 == 10


def test_step_factors():
    assert chain_product(Trajectory((3, 10))) == Fraction(10, 3)
    assert chain_product(Trajectory((10, 5))) == Fraction(1, 2)
    with pytest.raises(ValueError):
        Trajectory((3, 9))


def test_chain_product_two_steps():
    t = Trajectory((3, 10, 5))
    assert chain_product(t) == Fraction(5, 3)


def test_hand_built_chains_must_follow_the_rule():
    for build, values in (
        (Trajectory, (3, 9)),
        (Trajectory, (0,)),
        (Trajectory, ()),
        (lambda loop: Trajectory(loop + loop[:1]), (1, 2)),
        (lambda loop: Trajectory(loop + loop[:1]), (1, 2, 4)),
    ):
        with pytest.raises(ValueError):
            build(values)
    # a value equal to the rule's image but not an int is no step
    with pytest.raises(TypeError):
        Trajectory((2, 1.0))
    with pytest.raises(TypeError):
        Trajectory((2, True))
    assert not Trajectory((3, 10, 5)).terminated
    loop = (1, 4, 2)
    assert Trajectory(loop + loop[:1]).terminated


def test_chain_product_of_terminal_cycle_is_one():
    members = (1, 4, 2)
    loop = Trajectory(members + members[:1])
    assert loop.values == (1, 4, 2, 1)
    assert loop.even_steps == 2
    assert loop.odd_steps == 1
    assert chain_product(loop) == 1


def test_chain_product_full_run_from_seven():
    t = trajectory(7)
    assert chain_product(t) == Fraction(1, 7)


def test_chain_product_empty_rejected():
    with pytest.raises(ValueError):
        chain_product(trajectory(1))


def test_telescoping_bulk():
    # product of step factors collapses to last/first; 10**4 seeded starts <= 10**6
    rng = random.Random(20240917)
    for _ in range(10**4):
        n = rng.randrange(1, 10**6 + 1)
        t = trajectory(n)
        assert t.terminated
        if len(t.values) > 1:
            assert chain_product(t) == Fraction(t.values[-1], t.start)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=10**9))
def test_telescoping_property(n):
    t = trajectory(n)
    if len(t.values) > 1:
        assert chain_product(t) == Fraction(t.values[-1], t.start)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=10**9))
def test_no_two_consecutive_odd_steps(n):
    t = trajectory(n, max_steps=500)
    for a, b in zip(t.values, t.values[1:]):
        assert not (a % 2 == 1 and b % 2 == 1)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=10**9))
def test_step_factor_values(n):
    t = trajectory(n, max_steps=500)
    for before, after in zip(t.values, t.values[1:]):
        factor = chain_product(Trajectory((before, after)))
        if before % 2 == 0:
            assert factor == Fraction(1, 2)
        else:
            assert factor == Fraction(3 * before + 1, before)


def test_trajectory_steps_chain():
    t = trajectory(97)
    for a, b in zip(t.values, t.values[1:]):
        assert b == step(a)
    assert t.even_steps + t.odd_steps == len(t.values) - 1
