"""Subset enumeration, position maps, and exact binomials."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaycache.combinatorics import binomial, enumerate_subsets, position_in
from support import subset_rank


def factorial_binomial(n: int, k: int) -> int:
    """Independent oracle: C(n, k) straight from factorials."""
    if k < 0 or k > n:
        return 0
    return math.factorial(n) // (math.factorial(k) * math.factorial(n - k))


def pascal_row(n: int) -> list[int]:
    """Independent oracle: row n of Pascal's triangle by addition only."""
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row


class TestEnumerateSubsets:
    def test_3_choose_2_full_listing(self):
        assert enumerate_subsets(3, 2) == [(1, 2), (1, 3), (2, 3)]

    def test_4_choose_2_first_last(self):
        subsets = enumerate_subsets(4, 2)
        assert len(subsets) == 6
        assert subsets[0] == (1, 2)
        assert subsets[-1] == (3, 4)

    def test_15_choose_4_count_matches_factorial_oracle(self):
        assert len(enumerate_subsets(15, 4)) == factorial_binomial(15, 4) == 1365

    def test_empty_and_full(self):
        assert enumerate_subsets(3, 0) == [()]
        assert enumerate_subsets(3, 3) == [(1, 2, 3)]

    @pytest.mark.parametrize("m,k", [(3, -1), (3, 4), (-1, 0)])
    def test_invalid_arguments(self, m, k):
        with pytest.raises(ValueError):
            enumerate_subsets(m, k)

    @given(st.integers(0, 9), st.data())
    @settings(max_examples=60)
    def test_properties(self, m, data):
        k = data.draw(st.integers(0, m))
        subsets = enumerate_subsets(m, k)
        assert len(subsets) == binomial(m, k)
        assert len(set(subsets)) == len(subsets)
        assert subsets == sorted(subsets)
        for s in subsets:
            assert list(s) == sorted(set(s))
            assert all(1 <= x <= m for x in s)

    def test_order_is_stable(self):
        assert enumerate_subsets(7, 3) == enumerate_subsets(7, 3)


class TestPositionIn:
    def test_singletons_from_pairs(self):
        assert position_in((1, 3), 1) == 1
        assert position_in((1, 3), 3) == 2

    def test_first_position_of_shared_relay(self):
        assert position_in((2, 3), 2) == 1
        assert position_in((1, 2), 2) == 2

    def test_not_a_member(self):
        with pytest.raises(ValueError, match="not a member"):
            position_in((1, 3), 2)

    @given(st.sets(st.integers(1, 50), min_size=1, max_size=8))
    @settings(max_examples=80)
    def test_inverse_of_element_access(self, elements):
        subset = tuple(sorted(elements))
        for j, v in enumerate(subset, start=1):
            assert position_in(subset, v) == j


class TestBinomial:
    def test_trivial_values(self):
        assert binomial(5, 1) == 5
        assert binomial(6, 7) == 0
        assert binomial(4, -2) == 0
        assert binomial(0, 0) == 1

    def test_against_pascal_oracle(self):
        row = pascal_row(15)
        assert binomial(15, 3) == row[3] == 455
        for k in range(16):
            assert binomial(15, k) == row[k]

    def test_large_values_are_exact(self):
        assert binomial(200, 100) == factorial_binomial(200, 100)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestSubsetRank:
    @given(st.integers(0, 9), st.data())
    @settings(max_examples=40)
    def test_agrees_with_enumeration(self, m, data):
        k = data.draw(st.integers(0, m))
        for i, s in enumerate(enumerate_subsets(m, k)):
            assert subset_rank(m, s) == i

    def test_large_ground_set_uses_closed_form(self):
        # C(60, 30) > 2^20, so this exercises the non-table path.
        first = tuple(range(1, 31))
        last = tuple(range(31, 61))
        assert subset_rank(60, first) == 0
        assert subset_rank(60, last) == binomial(60, 30) - 1

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            subset_rank(5, (2, 1))
