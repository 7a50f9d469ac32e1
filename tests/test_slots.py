"""Every slot holds a :class:`Frame`, and on numpy kernels its rows stay a
:class:`ColumnBlock` from the scan to ``finalize()`` — through the
Tributary join, the merge-join steps, the semijoin filter and a hybrid plan's
stage boundary alike (``tests/test_kernels_differential.py`` pins the same for
the hash strategies and HC_TJ on Q1)."""

import pytest

from repro.engine import kernels
from repro.engine.frame import Frame
from repro.engine.kernels import ColumnBlock, use_backend
from repro.engine.runtime import resolve_runtime
from repro.engine.scheduler import PlanExecution
from repro.engine.stats import ExecutionStats
from repro.planner.api import make_cluster
from repro.planner.physical import Scan, lower
from repro.query.catalog import Catalog
from repro.workloads.registry import WORKLOADS

CELLS = [
    ("Q1", "RS_TJ"),
    ("Q1", "BR_TJ"),
    ("Q1", "HC_TJ"),
    ("Q8", "HYBRID"),
    ("Q7", "SJ_HJ"),
]


def _stepped(name, strategy, backend, monkeypatch, workers=8):
    """The workload at unit scale, stepped to the end under ``backend``: the
    plan, the slots the scheduler bound, the result, and the size of every
    row list that was converted into a block on the way (planning, whose
    statistics select under the default backend, is not on the way)."""
    workload = WORKLOADS[name]
    database = workload.dataset("unit")
    physical = lower(workload.query, strategy, Catalog(database))
    converted = []
    convert = kernels.block_from_rows

    def spying_conversion(rows):
        converted.append(len(rows))
        return convert(rows)

    monkeypatch.setattr(kernels, "block_from_rows", spying_conversion)
    cluster = make_cluster(database, workers=workers)
    stats = ExecutionStats(
        query=workload.query.name, strategy=strategy, workers=cluster.workers
    )
    with use_backend(backend):
        execution = PlanExecution(physical, cluster, stats, resolve_runtime("serial"))
        try:
            while not execution.finished:
                execution.step()
        finally:
            execution.close()
        run = execution.finalize()
    assert stats.wcoj_scalar_walks == 0
    return physical, execution._state.slots, run, converted


def _assert_plain_result(run):
    assert type(run.rows) is list and run.rows
    assert all(type(row) is tuple for row in run.rows)
    assert all(type(value) is int for row in run.rows for value in row)


@pytest.mark.parametrize("name, strategy", CELLS)
def test_numpy_slots_hold_frames_of_blocks(name, strategy, monkeypatch):
    physical, slots, run, converted = _stepped(name, strategy, "numpy", monkeypatch)
    assert all(isinstance(v, Frame) for values in slots.values() for v in values)
    ops = [op for round_ in physical.rounds for op in round_.ops]
    database = WORKLOADS[name].dataset("unit")
    # each Scan converts its relation once, and nothing else is converted:
    # no operator's output — a Tributary join's included — by the next one
    assert converted == [
        len(database[op.atom.relation]) for op in ops if isinstance(op, Scan)
    ]
    bound = 0
    for op in ops:
        for out in op.output_slots():
            assert all(isinstance(frame.rows, ColumnBlock) for frame in slots[out])
            bound += 1
    assert bound >= 3
    _assert_plain_result(run)


@pytest.mark.parametrize("name, strategy", CELLS)
def test_python_slots_hold_frames_of_lists(name, strategy, monkeypatch):
    _, slots, run, converted = _stepped(name, strategy, "python", monkeypatch)
    assert not converted
    frames = [v for values in slots.values() for v in values]
    assert frames and all(
        isinstance(frame, Frame) and type(frame.rows) is list for frame in frames
    )
    _assert_plain_result(run)


@pytest.mark.parametrize(
    "name, strategy, scans", [("Q1", "HC_TJ", 3), ("Q6", "HC_TJ", 5), ("Q3", "RS_HJ", 8)]
)
def test_numpy_converts_one_row_list_per_scan(name, strategy, scans, monkeypatch):
    """At 64 workers a Scan converts its whole relation once and deals views
    of that block; it does not convert each worker's fragment."""
    physical, slots, run, converted = _stepped(
        name, strategy, "numpy", monkeypatch, workers=64
    )
    ops = [op for round_ in physical.rounds for op in round_.ops]
    relations = [op.atom.relation for op in ops if isinstance(op, Scan)]
    assert len(relations) == scans
    database = WORKLOADS[name].dataset("unit")
    assert converted == [len(database[relation]) for relation in relations]
    _assert_plain_result(run)
