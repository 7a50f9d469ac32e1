"""Tests for sorted relations, including property-based cursor laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import kernels
from repro.engine.kernels import use_backend
from repro.storage.relation import Relation
from repro.storage.sorted import SortedRelation, _sort_cost

rows_strategy = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=60
)

#: a few keys at each end of int64 and around zero
extreme_values = st.one_of(
    st.integers(2**63 - 4, 2**63 - 1),
    st.integers(-(2**63 - 1), -(2**63 - 4)),
    st.integers(-2, 2),
)


def make_sorted(rows, order=(0, 1)):
    return SortedRelation(Relation("R", ("a", "b"), rows), order)


class TestConstruction:
    def test_rows_are_sorted_lexicographically(self):
        sr = make_sorted([(3, 1), (1, 2), (1, 1), (2, 9)])
        assert sr.rows == [(1, 1), (1, 2), (2, 9), (3, 1)]

    def test_order_permutes_columns(self):
        sr = make_sorted([(1, 2), (3, 0)], order=(1, 0))
        assert sr.rows == [(0, 3), (2, 1)]
        assert sr.columns == ("b", "a")

    def test_columns_outside_the_order_are_dropped(self):
        relation = Relation("R", ("a", "b", "c"), [(1, 2, 3)])
        sr = SortedRelation(relation, (2, 0))
        assert sr.columns == ("c", "a")
        assert sr.rows == [(3, 1)]

    def test_duplicate_order_positions_rejected(self):
        with pytest.raises(ValueError):
            make_sorted([], order=(0, 0))

    def test_out_of_range_position_rejected(self):
        with pytest.raises(ValueError):
            make_sorted([], order=(5,))

    def test_sort_cost_monotone(self):
        assert _sort_cost(0) == 0
        assert _sort_cost(1) == 1
        assert _sort_cost(100) > _sort_cost(10) > 0


class TestLazySort:
    """The rows are sorted on their first read, into one plain list on
    either backend; the length and ``sort_cost`` need no sort."""

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_sorts_once_on_first_read(self, backend):
        with use_backend(backend):
            sr = make_sorted([(3, 1), (1, 2), (1, 1)])
            assert len(sr) == 3 and sr.sort_cost == _sort_cost(3)
            assert "rows" not in vars(sr)  # nothing sorted yet
            rows = sr.rows
        assert type(rows) is list and rows == [(1, 1), (1, 2), (3, 1)]
        assert sr.rows is rows

    def test_reads_a_column_block_as_rows(self):
        block = kernels.block_from_rows([(3, 1), (1, 2), (1, 1)])
        sr = SortedRelation(Relation.over_rows("R", ("a", "b"), block), (1, 0))
        assert sr.rows == [(1, 1), (1, 3), (2, 1)]
        assert all(type(value) is int for row in sr.rows for value in row)


class TestReads:
    def test_key_at_reads_one_key_of_one_row(self):
        sr = make_sorted([(3, 1), (1, 2)], order=(1, 0))
        assert [sr.key_at(0, i) for i in range(2)] == [1, 2]
        assert [sr.key_at(1, i) for i in range(2)] == [3, 1]

    def test_name_and_length_come_from_the_base(self):
        sr = make_sorted([(1, 1), (1, 1)])
        assert sr.name == "R" and len(sr) == 2
        assert sr.rows == [(1, 1), (1, 1)]  # duplicate rows are kept

    def test_empty_relation(self):
        sr = make_sorted([])
        assert len(sr) == 0 and sr.sort_cost == 0 and sr.rows == []
        assert sr.lower_bound(0, 5, 0, 0) == sr.upper_bound(0, 5, 0, 0) == 0

    def test_keys_wider_than_int64_sort_as_python_ints(self):
        """The store never converts to int64, so keys that overflow the
        batched walk's pack — or int64 itself — sort and bound as ints."""
        rows = [(2**70, 1), (-(2**65), 2), (0, 3), (2**70, 0)]
        with use_backend("numpy"):
            sr = make_sorted(rows)
            assert sr.rows == sorted(rows)
            assert sr.lower_bound(0, 2**70, 0, 4) == 2
            assert sr.upper_bound(0, 2**64, 0, 4) == 2

    @given(rows_strategy, st.integers(-1, 21))
    @settings(max_examples=40, deadline=None)
    def test_same_store_on_both_backends(self, rows, value):
        stores = []
        for backend in kernels.KERNEL_BACKENDS:
            with use_backend(backend):
                sr = make_sorted(rows)
                n = len(sr)
                stores.append((
                    sr.rows,
                    sr.lower_bound(0, value, 0, n),
                    sr.upper_bound(0, value, 0, n),
                ))
        assert stores[0] == stores[1]


class TestBounds:
    def test_lower_bound_finds_first_geq(self):
        sr = make_sorted([(1, 0), (3, 0), (3, 1), (5, 0)])
        assert sr.lower_bound(0, 3, 0, 4) == 1
        assert sr.lower_bound(0, 4, 0, 4) == 3
        assert sr.lower_bound(0, 9, 0, 4) == 4

    def test_upper_bound_finds_first_greater(self):
        sr = make_sorted([(1, 0), (3, 0), (3, 1), (5, 0)])
        assert sr.upper_bound(0, 3, 0, 4) == 3
        assert sr.upper_bound(0, 0, 0, 4) == 0

    def test_second_level_bounds_within_prefix_block(self):
        sr = make_sorted([(1, 5), (1, 7), (1, 9), (2, 1)])
        lo = sr.lower_bound(0, 1, 0, 4)
        hi = sr.upper_bound(0, 1, lo, 4)
        assert (lo, hi) == (0, 3)
        assert sr.lower_bound(1, 7, lo, hi) == 1
        assert sr.upper_bound(1, 7, lo, hi) == 2

    @given(rows_strategy, st.integers(0, 21))
    @settings(max_examples=80)
    def test_lower_bound_postcondition(self, rows, value):
        sr = make_sorted(rows)
        index = sr.lower_bound(0, value, 0, len(sr.rows))
        for row in sr.rows[:index]:
            assert row[0] < value
        for row in sr.rows[index:]:
            assert row[0] >= value

    @given(rows_strategy, st.integers(0, 21))
    @settings(max_examples=80)
    def test_upper_bound_postcondition(self, rows, value):
        sr = make_sorted(rows)
        index = sr.upper_bound(0, value, 0, len(sr.rows))
        for row in sr.rows[:index]:
            assert row[0] <= value
        for row in sr.rows[index:]:
            assert row[0] > value


    @given(
        st.lists(st.tuples(extreme_values, extreme_values), min_size=1, max_size=40),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_second_level_bounds_against_a_linear_scan(self, rows, data):
        """``lower_bound`` / ``upper_bound`` at depth 1, inside a depth-0
        block, with keys at the ends of int64, agree with a linear scan."""
        sr = make_sorted(rows)
        n = len(sr)
        key = data.draw(st.sampled_from([row[0] for row in rows]))
        lo, hi = sr.lower_bound(0, key, 0, n), sr.upper_bound(0, key, 0, n)
        assert (lo, hi) == (
            sum(row[0] < key for row in sr.rows),
            sum(row[0] <= key for row in sr.rows),
        )
        value = data.draw(extreme_values)
        block = sr.rows[lo:hi]
        assert sr.lower_bound(1, value, lo, hi) == lo + sum(
            row[1] < value for row in block
        )
        assert sr.upper_bound(1, value, lo, hi) == lo + sum(
            row[1] <= value for row in block
        )
