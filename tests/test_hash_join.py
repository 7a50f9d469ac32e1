"""Tests for the symmetric hash join and comparison filters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import kernels
from repro.engine.frame import Frame
from repro.engine.hash_join import (
    apply_comparisons,
    join_columns,
    join_output_variables,
    semijoin,
    symmetric_hash_join,
)
from repro.engine.memory import MemoryBudget, OutOfMemoryError
from repro.engine.stats import ExecutionStats
from repro.query.atoms import Comparison, Constant, Variable

X, Y, Z = Variable("x"), Variable("y"), Variable("z")

pairs = st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=40)


def test_join_output_variables_order():
    assert join_output_variables((X, Y), (Y, Z)) == (X, Y, Z)
    assert join_output_variables((X,), (Y,)) == (X, Y)


def test_join_columns_resolve_key_and_new_variables():
    assert join_columns((X, Y), (Y, Z), (Y,)) == ((1,), (0,), (1,))
    assert join_columns((X, Y, Z), (Z, X), (X, Z)) == ((0, 2), (1, 0), ())
    assert join_columns((X,), (Y,), ()) == ((), (), (0,))


class TestSymmetricHashJoin:
    def _join(self, left_rows, right_rows, memory=None):
        stats = ExecutionStats()
        out = symmetric_hash_join(
            Frame((X, Y), left_rows),
            Frame((Y, Z), right_rows),
            [Y],
            worker=0,
            stats=stats,
            phase="join",
            memory=memory,
        )
        return out, stats

    def test_simple_join(self):
        out, _ = self._join([(1, 2)], [(2, 3)])
        assert out.variables == (X, Y, Z)
        assert out.rows == [(1, 2, 3)]

    def test_no_matches(self):
        out, _ = self._join([(1, 2)], [(9, 3)])
        assert out.rows == []

    @given(pairs, pairs)
    @settings(max_examples=60)
    def test_matches_nested_loop(self, left, right):
        out, _ = self._join(left, right)
        expected = sorted(
            (x, y, z) for (x, y) in left for (y2, z) in right if y == y2
        )
        assert sorted(out.rows) == expected

    def test_cross_product_on_empty_key(self):
        stats = ExecutionStats()
        out = symmetric_hash_join(
            Frame((X,), [(1,), (2,)]),
            Frame((Y,), [(7,), (8,)]),
            [],
            0,
            stats,
            "join",
        )
        assert sorted(out.rows) == [(1, 7), (1, 8), (2, 7), (2, 8)]

    def test_multi_variable_key(self):
        stats = ExecutionStats()
        out = symmetric_hash_join(
            Frame((X, Y), [(1, 2), (1, 3)]),
            Frame((X, Y, Z), [(1, 2, 9)]),
            [X, Y],
            0,
            stats,
            "join",
        )
        assert out.rows == [(1, 2, 9)]

    def test_work_charged(self):
        _, stats = self._join([(1, 2)] * 10, [(2, 3)] * 5)
        assert stats.phase_cpu("join") >= 2 * 15 + 50

    def test_memory_accounting_charges_output(self):
        memory = MemoryBudget(per_worker_tuples=10)
        with pytest.raises(OutOfMemoryError):
            # 4 x 4 matching rows -> 16 output tuples > budget of 10
            self._join([(1, 2)] * 4, [(2, 3)] * 4, memory=memory)

    def test_inputs_alone_do_not_charge_memory(self):
        memory = MemoryBudget(per_worker_tuples=10)
        # 20 input rows but no matches -> no output, no allocation
        out, _ = self._join([(1, 2)] * 10, [(9, 3)] * 10, memory=memory)
        assert out.rows == []

    @pytest.mark.parametrize("backend", kernels.KERNEL_BACKENDS)
    @pytest.mark.parametrize("left, right", [([], [(1, 2)]), ([(1, 2)], [])])
    def test_empty_input_keeps_the_output_width(self, backend, left, right):
        """An empty row list has no width; the frame's variables do."""
        with kernels.use_backend(backend):
            out, _ = self._join(left, right)
            kept, probed = semijoin(
                Frame((X, Y), left), Frame((Y,), [row[:1] for row in right]), (1,)
            )
        assert out.variables == (X, Y, Z) and kept.variables == (X, Y)
        assert out.rows == [] and kept.rows == [] and probed == len(right)
        if backend == "numpy":
            assert len(out.rows.columns) == 3 and len(kept.rows.columns) == 2
        else:
            assert isinstance(out.rows, list) and isinstance(kept.rows, list)


class TestApplyComparisons:
    def test_ready_comparison_filters(self):
        frame = Frame((X, Y), [(1, 2), (3, 2)])
        stats = ExecutionStats()
        out, deferred = apply_comparisons(
            frame, [Comparison(X, "<", Y)], 0, stats, "f"
        )
        assert out.rows == [(1, 2)]
        assert deferred == []

    def test_unready_comparison_deferred(self):
        frame = Frame((X,), [(1,)])
        comparison = Comparison(X, "<", Z)
        out, deferred = apply_comparisons(
            frame, [comparison], 0, ExecutionStats(), "f"
        )
        assert out.rows == [(1,)]
        assert deferred == [comparison]

    def test_constant_comparison(self):
        frame = Frame((X,), [(1,), (5,)])
        out, _ = apply_comparisons(
            frame, [Comparison(X, ">=", Constant(5))], 0, ExecutionStats(), "f"
        )
        assert out.rows == [(5,)]

    def test_no_comparisons_no_charge(self):
        frame = Frame((X,), [(1,)])
        stats = ExecutionStats()
        out, deferred = apply_comparisons(frame, [], 0, stats, "f")
        assert out is frame
        assert stats.total_cpu == 0

    def test_mixed_ready_and_deferred(self):
        frame = Frame((X, Y), [(1, 2), (2, 1)])
        ready = Comparison(X, "<", Y)
        later = Comparison(Y, "<", Z)
        out, deferred = apply_comparisons(
            frame, [ready, later], 0, ExecutionStats(), "f"
        )
        assert out.rows == [(1, 2)]
        assert deferred == [later]
