"""Congruence-system arithmetic: closed form vs brute force."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloneleak.modnum import (
    CongruenceSolutionSet,
    delta,
    require_dim,
    satisfies_system,
    solve_aligned_system,
    system_gcd,
)
from oracle_helpers import enumerate_system

dims = st.integers(min_value=2, max_value=30)
counts = st.integers(min_value=0, max_value=6)


def test_delta():
    assert delta(2) == 0
    assert delta(3) == 1
    assert delta(10) == 0
    assert delta(17) == 1


def test_require_dim():
    require_dim(2)
    with pytest.raises(ValueError):
        require_dim(1)
    with pytest.raises(TypeError):
        require_dim(2.0)


def test_system_gcd_examples():
    # p*(q+1) - 1: the whole criterion in one integer
    assert system_gcd(5, 1, 1) == 1
    assert system_gcd(4, 1, 2) == 2
    assert system_gcd(9, 2, 1) == 3
    assert system_gcd(7, 1, 0) == 7  # gcd(d, 0) = d: single signal leaks maximally
    assert system_gcd(6, 0, 3) == 1  # all-noise subsets never leak


def test_solve_examples():
    sol = solve_aligned_system(3, 2, 1)
    assert sol.g == 3
    assert sol.as_set() == {(0, 0), (1, 1), (2, 2)}

    sol = solve_aligned_system(4, 1, 2)
    assert sol.g == 2
    assert sol.as_set() == {(0, 0), (2, 2)}

    sol = solve_aligned_system(5, 1, 1)
    assert sol.g == 1
    assert sol.solutions == ((0, 0),)
    assert sol.g == 1


def test_enumerate_examples():
    assert enumerate_system(3, 2, 1).as_set() == {(0, 0), (1, 1), (2, 2)}
    assert enumerate_system(2, 1, 0).as_set() == {(0, 0), (1, 1)}
    assert enumerate_system(6, 2, 1).g == 3


def test_third_fraction_families():
    # p=2, q=1 at multiples of 3: solutions sit at thirds of d with a = b
    for d in (3, 6, 9, 12):
        sol = solve_aligned_system(d, 2, 1)
        assert sol.as_set() == {(0, 0), (d // 3, d // 3), (2 * d // 3, 2 * d // 3)}
    # p=1, q=2 at even d: a single extra solution at the half point
    for d in (2, 4, 6, 8):
        sol = solve_aligned_system(d, 1, 2)
        assert sol.as_set() == {(0, 0), (d // 2, d // 2)}


def test_all_noise_is_always_trivial():
    for d in range(2, 20):
        for q in range(1, 7):
            assert solve_aligned_system(d, 0, q).g == 1


def test_shape_validation():
    with pytest.raises(ValueError):
        solve_aligned_system(4, 0, 0)
    with pytest.raises(ValueError):
        solve_aligned_system(4, -1, 2)
    with pytest.raises(ValueError):
        enumerate_system(1, 1, 1)


def test_shape_counts_must_be_ints():
    # bool is an int subclass, so True would otherwise pass as p = 1, and a
    # float p would fail later inside range with an unrelated message
    cases = [(True, 0, "bool"), (0, False, "bool"), (2.0, 1, "float"), (1, 1.0, "float")]
    for p, q, kind in cases:
        for solve in (system_gcd, solve_aligned_system, enumerate_system):
            with pytest.raises(TypeError, match=kind):
                solve(4, p, q)


@given(dims, counts, counts)
def test_closed_form_matches_enumeration(d, p, q):
    if p + q < 1:
        q = 1
    fast = solve_aligned_system(d, p, q)
    slow = enumerate_system(d, p, q)
    assert fast.g == slow.g
    assert fast.as_set() == slow.as_set()


@given(dims, counts, counts)
def test_solutions_satisfy_both_congruences(d, p, q):
    if p + q < 1:
        p = 1
    sol = solve_aligned_system(d, p, q)
    assert (0, 0) in sol.as_set()
    assert len(sol.solutions) == sol.g == system_gcd(d, p, q)
    for a, b in sol.solutions:
        assert satisfies_system(d, p, q, a, b)


@given(dims, counts, counts)
def test_trivial_iff_gcd_one(d, p, q):
    if p + q < 1:
        q = 2
    sol = solve_aligned_system(d, p, q)
    assert (sol.g == 1) == (sol.as_set() == {(0, 0)})
    assert sol.nontrivial() == tuple(s for s in sol.solutions if s != (0, 0))


def test_solution_set_is_a_dataclass_record():
    sol = solve_aligned_system(6, 2, 1)
    assert isinstance(sol, CongruenceSolutionSet)
    assert (sol.d, sol.p, sol.q) == (6, 2, 1)
