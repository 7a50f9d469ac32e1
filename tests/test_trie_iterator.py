"""Tests for the LFTJ trie-iterator API over sorted arrays."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.leapfrog.iterator import TrieIterator
from repro.storage.relation import Relation
from repro.storage.sorted import SortedRelation


def make_iterator(rows, order=(0, 1)):
    relation = Relation("R", ("a", "b"), rows)
    return TrieIterator(SortedRelation(relation, order))


def level_values(iterator):
    """Collect the distinct values at the current (freshly opened) level."""
    values = []
    while not iterator.at_end:
        values.append(iterator.key())
        iterator.next()
    return values


class TestBasicNavigation:
    def test_first_level_enumerates_distinct_keys(self):
        iterator = make_iterator([(2, 1), (1, 5), (2, 9), (7, 0)])
        iterator.open()
        assert level_values(iterator) == [1, 2, 7]

    def test_second_level_scoped_to_parent(self):
        iterator = make_iterator([(1, 3), (1, 5), (2, 4)])
        iterator.open()
        iterator.seek(1)
        iterator.open()
        assert level_values(iterator) == [3, 5]

    def test_up_restores_parent_level(self):
        iterator = make_iterator([(1, 3), (1, 5), (2, 4)])
        iterator.open()
        iterator.open()
        iterator.up()
        assert iterator.key() == 1
        iterator.next()
        assert iterator.key() == 2

    def test_seek_to_existing_value(self):
        iterator = make_iterator([(1, 0), (4, 0), (9, 0)])
        iterator.open()
        iterator.seek(4)
        assert iterator.key() == 4

    def test_seek_lands_on_least_geq(self):
        iterator = make_iterator([(1, 0), (4, 0), (9, 0)])
        iterator.open()
        iterator.seek(5)
        assert iterator.key() == 9

    def test_seek_past_end(self):
        iterator = make_iterator([(1, 0), (4, 0)])
        iterator.open()
        iterator.seek(10)
        assert iterator.at_end

    def test_next_to_end(self):
        iterator = make_iterator([(1, 0)])
        iterator.open()
        iterator.next()
        assert iterator.at_end

    def test_duplicate_keys_collapse(self):
        iterator = make_iterator([(1, 0), (1, 1), (1, 2)])
        iterator.open()
        assert level_values(iterator) == [1]


class TestErrors:
    def test_empty_relation_starts_at_end(self):
        iterator = make_iterator([])
        assert iterator.at_end

    def test_open_below_max_depth(self):
        iterator = make_iterator([(1, 2)])
        iterator.open()
        iterator.open()
        with pytest.raises(RuntimeError):
            iterator.open()

    def test_up_at_root(self):
        iterator = make_iterator([(1, 2)])
        with pytest.raises(RuntimeError):
            iterator.up()

    def test_key_without_open(self):
        iterator = make_iterator([(1, 2)])
        with pytest.raises(RuntimeError):
            iterator.key()

    def test_key_at_end(self):
        iterator = make_iterator([(1, 0)])
        iterator.open()
        iterator.next()
        with pytest.raises(RuntimeError):
            iterator.key()


class TestOrders:
    def test_order_picks_the_first_level(self):
        iterator = make_iterator([(1, 9), (2, 8), (3, 9)], order=(1, 0))
        iterator.open()
        assert level_values(iterator) == [8, 9]

    def test_second_level_under_a_permuted_order(self):
        iterator = make_iterator([(1, 9), (2, 8), (3, 9)], order=(1, 0))
        iterator.open()
        iterator.seek(9)
        iterator.open()
        assert level_values(iterator) == [1, 3]

    def test_single_column_order(self):
        relation = Relation("R", ("a", "b"), [(4, 1), (2, 2), (4, 3)])
        iterator = TrieIterator(SortedRelation(relation, (0,)))
        assert iterator.max_depth == 1
        iterator.open()
        assert level_values(iterator) == [2, 4]
        with pytest.raises(RuntimeError):
            iterator.open()


class TestSeekCounting:
    def test_seeks_are_counted(self):
        iterator = make_iterator([(1, 0), (2, 0), (3, 0)])
        iterator.open()
        before = iterator.seeks
        iterator.seek(3)
        assert iterator.seeks > before

    def test_each_binary_search_counts_once(self):
        iterator = make_iterator([(1, 0), (2, 0), (3, 0)])
        iterator.open()  # the first key's block end
        assert iterator.seeks == 1
        iterator.next()  # the next key's block end
        assert iterator.seeks == 2
        iterator.seek(3)  # the key, then its block end
        assert iterator.seeks == 4
        iterator.seek(9)  # past the end: no block to bound
        assert iterator.seeks == 5 and iterator.at_end


#: keys at each end of int64, where the overflow fallback walks
extreme_keys = st.one_of(
    st.integers(2**63 - 4, 2**63 - 1),
    st.integers(-(2**63 - 1), -(2**63 - 4)),
)


@given(
    st.lists(st.tuples(extreme_keys, extreme_keys), min_size=1, max_size=30),
    extreme_keys,
)
@settings(max_examples=60)
def test_seek_at_the_ends_of_int64(rows, target):
    iterator = make_iterator(rows)
    iterator.open()
    iterator.seek(target)
    expected = [k for k in sorted({row[0] for row in rows}) if k >= target]
    if expected:
        assert iterator.key() == expected[0]
    else:
        assert iterator.at_end


@given(
    st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=40)
)
@settings(max_examples=80)
def test_level_one_enumerates_exactly_distinct_first_columns(rows):
    iterator = make_iterator(rows)
    if not rows:
        assert iterator.at_end
        return
    iterator.open()
    assert level_values(iterator) == sorted({row[0] for row in rows})


@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=40
    ),
    st.integers(0, 9),
)
@settings(max_examples=80)
def test_seek_postcondition(rows, target):
    iterator = make_iterator(rows)
    iterator.open()
    iterator.seek(target)
    keys = sorted({row[0] for row in rows})
    expected = [k for k in keys if k >= target]
    if expected:
        assert iterator.key() == expected[0]
    else:
        assert iterator.at_end


@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=40
    )
)
@settings(max_examples=60)
def test_full_trie_walk_reconstructs_relation(rows):
    iterator = make_iterator(rows)
    reconstructed = set()
    iterator.open()
    while not iterator.at_end:
        first = iterator.key()
        iterator.open()
        while not iterator.at_end:
            reconstructed.add((first, iterator.key()))
            iterator.next()
        iterator.up()
        iterator.next()
    assert reconstructed == set(rows)
