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

    def test_keep_rest_appends_unnamed_columns(self):
        relation = Relation("R", ("a", "b", "c"), [(1, 2, 3)])
        sr = SortedRelation(relation, (2,))
        assert sr.columns == ("c", "a", "b")
        assert sr.rows == [(3, 1, 2)]

    def test_keep_rest_false_drops_columns(self):
        relation = Relation("R", ("a", "b", "c"), [(1, 2, 3)])
        sr = SortedRelation(relation, (2, 0), keep_rest=False)
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


class TestRelease:
    """One store: once it is released every accessor says so, by name."""

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_every_accessor_raises_after_release(self, backend):
        sr = SortedRelation(
            Relation("R", ("a", "b"), [(3, 1), (1, 2), (1, 1)]), (0, 1),
            backend=backend,
        )
        assert len(sr) == 3 and sr.distinct_prefix_count(1) == 2
        sr.release()
        assert sr.sort_cost == _sort_cost(3)
        for access in (
            lambda: sr.rows,
            lambda: len(sr),
            lambda: sr.key_at(0, 0),
            lambda: sr.lower_bound(0, 1, 0, 3),
            lambda: sr.upper_bound(0, 1, 0, 3),
            lambda: sr.value_range(0, 1, 0, 3),
            lambda: sr.distinct_prefix_count(1),
        ):
            with pytest.raises(RuntimeError, match="sorted rows of R were released"):
                access()


class TestLazySort:
    """The rows are sorted on their first read, with the backend in force
    when the relation was made; the length and ``sort_cost`` need no sort."""

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_sorts_once_on_first_read(self, backend, monkeypatch):
        calls = []
        sort_projected = kernels.sort_projected

        def counted(*args):
            calls.append(args)
            return sort_projected(*args)

        monkeypatch.setattr(kernels, "sort_projected", counted)
        with use_backend(backend):
            sr = make_sorted([(3, 1), (1, 2), (1, 1)])
        assert len(sr) == 3 and sr.sort_cost == _sort_cost(3) and not calls
        other = "numpy" if backend == "python" else "python"
        with use_backend(other):
            assert sr.rows == [(1, 1), (1, 2), (3, 1)]
        assert isinstance(sr.rows, kernels.ColumnBlock) == (backend == "numpy")
        assert len(calls) == 1


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

    def test_value_range(self):
        sr = make_sorted([(1, 0), (3, 0), (3, 1), (5, 0)])
        assert sr.value_range(0, 3, 0, 4) == (1, 3)
        assert sr.value_range(0, 2, 0, 4) == (1, 1)

    def test_second_level_bounds_within_prefix_block(self):
        sr = make_sorted([(1, 5), (1, 7), (1, 9), (2, 1)])
        lo, hi = sr.value_range(0, 1, 0, 4)
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


class TestDistinctPrefixes:
    def test_counts(self):
        sr = make_sorted([(1, 1), (1, 2), (2, 1), (2, 1)])
        assert sr.distinct_prefix_count(0) == 1
        assert sr.distinct_prefix_count(1) == 2
        assert sr.distinct_prefix_count(2) == 3

    def test_empty_relation(self):
        sr = make_sorted([])
        assert sr.distinct_prefix_count(0) == 0
        assert sr.distinct_prefix_count(1) == 0

    def test_length_beyond_arity_rejected(self):
        with pytest.raises(ValueError):
            make_sorted([(1, 2)]).distinct_prefix_count(3)

    @given(rows_strategy)
    @settings(max_examples=60)
    def test_matches_set_semantics(self, rows):
        sr = make_sorted(rows)
        expected = len({row[:1] for row in sr.rows})
        assert sr.distinct_prefix_count(1) == expected
        expected2 = len(set(sr.rows))
        assert sr.distinct_prefix_count(2) == expected2
