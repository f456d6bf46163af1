"""Cyclic interval representation: membership, wrap, indicator, enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrperm import Interval, QrpermError, all_intervals


def test_members_and_wrap():
    plain = Interval(10, 2, 3)
    assert list(plain.members()) == [2, 3, 4]
    wrapped = Interval(10, 8, 4)
    assert list(wrapped.members()) == [8, 9, 0, 1]
    assert list(Interval(5, 3, 5).members()) == [3, 4, 0, 1, 2]


def test_contains_agrees_with_members():
    for iv in (Interval(7, 0, 1), Interval(7, 5, 4), Interval(7, 0, 7)):
        inside = set(iv.members())
        for x in range(7):
            assert iv.contains(x) == (x in inside)


def test_indicator_matches_members():
    for iv in (Interval(9, 0, 4), Interval(9, 7, 5), Interval(9, 8, 1),
               Interval(9, 0, 9)):
        ind = iv.indicator()
        assert ind.dtype == np.int64
        assert ind.sum() == iv.length
        assert set(np.nonzero(ind)[0].tolist()) == frozenset(iv.members())


def test_validation():
    with pytest.raises(QrpermError):
        Interval(0, 0, 1)
    with pytest.raises(QrpermError, match="start"):
        Interval(5, 5, 1)
    with pytest.raises(QrpermError, match="start"):
        Interval(5, -1, 1)
    with pytest.raises(QrpermError, match="length"):
        Interval(5, 0, 0)
    with pytest.raises(QrpermError, match="length"):
        Interval(5, 0, 6)


def test_all_intervals_count_and_uniqueness():
    # n(n-1) proper intervals plus the full circle exactly once
    for n in (1, 2, 3, 8, 13):
        sets = [frozenset(iv.members()) for iv in all_intervals(n)]
        assert len(sets) == n * (n - 1) + 1
        assert len(set(sets)) == len(sets)
        assert frozenset(range(n)) in sets


@given(st.integers(1, 40), st.data())
@settings(max_examples=120)
def test_membership_is_cyclic_shift_invariant(n, data):
    start = data.draw(st.integers(0, n - 1))
    length = data.draw(st.integers(1, n))
    shift = data.draw(st.integers(0, n - 1))
    iv = Interval(n, start, length)
    shifted = Interval(n, (start + shift) % n, length)
    for x in range(n):
        assert iv.contains(x) == shifted.contains((x + shift) % n)
