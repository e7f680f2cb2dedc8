"""Unit tests for the numpy candidate store (core/sorted_store.py)."""
import numpy as np
import pytest

from repro.core.sorted_store import SortedStore


def test_insert_keeps_sorted():
    st = SortedStore()
    for sc, t in [(3.0, 1), (1.0, 2), (2.0, 3)]:
        st.insert(sc, t)
    assert list(st.scores) == [1.0, 2.0, 3.0]
    assert list(st.ts) == [2, 3, 1]


def test_equal_scores_ordered_by_t():
    st = SortedStore()
    st.insert(1.0, 5)
    st.insert(1.0, 2)
    st.insert(1.0, 9)
    assert list(st.ts) == [2, 5, 9]


def test_topk_best_first_tiebreak():
    st = SortedStore()
    for sc, t in [(1.0, 1), (2.0, 2), (2.0, 3), (3.0, 4)]:
        st.insert(sc, t)
    assert st.topk(3) == [4, 3, 2]


def test_contains_and_remove():
    st = SortedStore()
    st.insert(1.5, 7)
    assert st.contains(1.5, 7)
    assert not st.contains(1.5, 8)
    st.remove_entry(1.5, 7)
    assert len(st) == 0
    with pytest.raises(KeyError):
        st.remove_entry(1.5, 7)


def test_count_below_strict():
    st = SortedStore()
    for sc, t in [(1.0, 1), (2.0, 2), (2.0, 3), (3.0, 4)]:
        st.insert(sc, t)
    assert st.count_below(2.0) == 1
    assert st.count_below(3.5) == 4


def test_dominate_prefix_evicts_at_k():
    st = SortedStore()
    for i in range(5):
        st.insert(float(i), i)
    # two dominations of the lowest 3 entries with k=2 evicts them
    assert st.dominate_prefix(3, 2) == 0
    assert st.dominate_prefix(3, 2) == 3
    assert list(st.scores) == [3.0, 4.0]


def test_dominate_prefix_noop():
    st = SortedStore()
    st.insert(1.0, 1)
    assert st.dominate_prefix(0, 2) == 0
    assert len(st) == 1


def test_min_and_kth_scores():
    st = SortedStore()
    assert st.min_score() == float("-inf")
    assert st.kth_from_top(1) == float("-inf")
    for sc in (1.0, 5.0, 3.0):
        st.insert(sc, int(sc))
    assert st.min_score() == 1.0
    assert st.kth_from_top(1) == 5.0
    assert st.kth_from_top(3) == 1.0
    assert st.kth_from_top(4) == float("-inf")


def test_remove_at_array():
    st = SortedStore()
    for i in range(4):
        st.insert(float(i), i)
    st.remove_at(np.array([0, 2]))
    assert list(st.scores) == [1.0, 3.0]
