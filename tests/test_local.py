"""Tests for per-worker local execution helpers."""

import pytest

from repro.engine import local as local_module
from repro.engine.frame import Frame
from repro.engine.local import (
    SORT_COMPARISON_WEIGHT,
    local_tributary_join,
    scanned_query,
)
from repro.engine.memory import MemoryBudget, OutOfMemoryError
from repro.engine.stats import ExecutionStats
from repro.planner.api import run_query
from repro.query.atoms import Variable
from repro.query.parser import parse_query
from repro.workloads.registry import get_workload

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


class TestScannedQuery:
    def test_constants_are_stripped(self):
        query = parse_query('Q(y) :- R(3, y), S(y, "joe").')
        scanned = scanned_query(query)
        assert scanned.atoms[0].terms == (Y,)
        for atom in scanned.atoms:
            assert not atom.constants()

    def test_aliases_become_relation_names(self):
        query = parse_query("Q(x,y,z) :- R:E(x,y), S:E(y,z).")
        scanned = scanned_query(query)
        assert [a.relation for a in scanned.atoms] == ["R", "S"]

    def test_comparisons_and_head_preserved(self):
        query = parse_query("Q(x) :- R(x,y), x < y.")
        scanned = scanned_query(query)
        assert scanned.comparisons == query.comparisons
        assert scanned.head == query.head

    def test_repeated_variables_collapse(self):
        query = parse_query("Q(x,y) :- R(x,x,y).")
        scanned = scanned_query(query)
        assert scanned.atoms[0].terms == (X, Y)


class TestLocalTributaryJoin:
    def _frames(self):
        return {
            "R": Frame((X, Y), [(1, 2), (2, 3)]),
            "S": Frame((Y, Z), [(2, 5), (3, 6)]),
        }

    def test_join_and_charges(self):
        query = scanned_query(parse_query("Q(x,y,z) :- R(x,y), S(y,z)."))
        stats = ExecutionStats()
        rows = local_tributary_join(query, self._frames(), 0, stats)
        assert set(rows) == {(1, 2, 5), (2, 3, 6)}
        assert stats.phase_cpu("sort") > 0
        assert stats.phase_cpu("tributary join") > 0

    def test_sort_weight_applied(self):
        query = scanned_query(parse_query("Q(x,y,z) :- R(x,y), S(y,z)."))
        stats = ExecutionStats()
        local_tributary_join(query, self._frames(), 0, stats)
        # 4 input tuples, each n log n with n=2 -> raw cost 4; weighted
        assert stats.phase_cpu("sort") == pytest.approx(
            4 * SORT_COMPARISON_WEIGHT
        )

    def test_memory_charged_before_sorting(self):
        query = scanned_query(parse_query("Q(x,y,z) :- R(x,y), S(y,z)."))
        memory = MemoryBudget(per_worker_tuples=3)
        with pytest.raises(OutOfMemoryError) as excinfo:
            local_tributary_join(
                query, self._frames(), 7, ExecutionStats(), memory=memory
            )
        assert excinfo.value.worker == 7
        assert excinfo.value.phase == "sort"

    def test_custom_phases(self):
        query = scanned_query(parse_query("Q(x,y,z) :- R(x,y), S(y,z)."))
        stats = ExecutionStats()
        local_tributary_join(
            query,
            self._frames(),
            0,
            stats,
            sort_phase="phase-a",
            join_phase="phase-b",
        )
        assert set(stats.phases()) == {"phase-a", "phase-b"}


class TestWholeClusterBatch:
    """``BATCH_TUPLE_CAP`` holds the largest registry cluster: at bench
    scale on 64 workers a Tributary join round is one shared walk over the
    workers' frames."""

    @pytest.mark.parametrize("name", ["Q1", "Q6"])
    def test_a_bench_scale_join_round_is_one_frames_walk(self, name, monkeypatch):
        batches = []
        walk_frames = local_module._walk_frames

        def spy(shape, query, tasks):
            batches.append(len(tasks))
            return walk_frames(shape, query, tasks)

        monkeypatch.setattr(local_module, "_walk_frames", spy)
        workload = get_workload(name)
        result = run_query(
            workload.query, workload.dataset("bench"), strategy="HC_TJ",
            workers=64, runtime="serial", kernels="numpy",
        )
        assert result.rows and not result.failed
        assert batches == [64]
