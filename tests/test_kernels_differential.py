"""Differential tests: python and numpy kernel backends are bit-identical.

The kernel layer must be a pure wall-clock change: for every strategy and
query, result rows come back in the same order and every counted metric —
tuples sent, producer/consumer skew per shuffle, seeks, sort_cost, CPU
charges, wall clock, peak memory — is exactly equal, no tolerance.  This is
the invariant that lets the paper's figures be reproduced under either
backend interchangeably.
"""

import pytest

from repro.engine import kernels, runtime as runtime_module
from repro.engine.frame import Frame
from repro.engine.kernels import ColumnBlock, use_backend
from repro.engine.runtime import resolve_runtime
from repro.engine.scheduler import PlanExecution
from repro.engine.shm import SHARED_MIN_ROWS
from repro.engine.stats import ExecutionStats
from repro.leapfrog.tributary import SeekBudgetExceeded, TributaryJoin
from repro.planner.api import make_cluster, run_query
from repro.planner.physical import Exchange, LocalHashJoin, Scan, lower
from repro.planner.plans import ALL_STRATEGIES
from repro.query.catalog import Catalog
from repro.query.parser import parse_query
from repro.storage.generators import twitter_database
from repro.storage.relation import Relation
from repro.workloads.registry import WORKLOADS

TRIANGLE = parse_query(
    "T(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z), T:Twitter(z,x)."
)
PROJECTION = parse_query("P(x) :- R:Twitter(x,y), S:Twitter(y,x).")
COMPARISON = parse_query(
    "C(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z), x < z."
)
TWO_PATH = parse_query("P(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z).")

QUERIES = {
    "triangle": TRIANGLE,
    "projection": PROJECTION,
    "comparison": COMPARISON,
}


def assert_identical(reference, candidate):
    """Byte-identical rows and exactly equal counted metrics."""
    assert reference.rows == candidate.rows  # same rows, same order
    a, b = reference.stats, candidate.stats
    assert a.failed == b.failed
    assert a.failure == b.failure
    assert a.shuffles == b.shuffles  # tuples sent + both skews, per shuffle
    assert a.tuples_shuffled == b.tuples_shuffled
    assert a.total_cpu == b.total_cpu  # includes seeks and sort_cost charges
    assert a.wall_clock == b.wall_clock
    assert a.phases() == b.phases()
    assert a.worker_loads() == b.worker_loads()
    assert a.peak_memory == b.peak_memory
    assert a.result_count == b.result_count
    assert a.cpu_skew == b.cpu_skew


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_all_strategies_identical_across_kernel_backends(
    strategy, seed, query_name
):
    db = twitter_database(nodes=120, edges=500, seed=seed)
    query = QUERIES[query_name]
    python = run_query(query, db, strategy=strategy, workers=6, kernels="python")
    numpy = run_query(query, db, strategy=strategy, workers=6, kernels="numpy")
    assert not python.failed
    assert_identical(python, numpy)


@pytest.mark.parametrize("seed", [0, 42])
def test_semijoin_plan_identical_across_kernel_backends(seed):
    db = twitter_database(nodes=120, edges=500, seed=seed)
    python = run_query(TWO_PATH, db, strategy="SJ_HJ", workers=6, kernels="python")
    numpy = run_query(TWO_PATH, db, strategy="SJ_HJ", workers=6, kernels="numpy")
    assert not python.failed
    assert_identical(python, numpy)


def test_oom_failure_identical_across_kernel_backends():
    """A budget violation must fail identically: same failing worker, same
    phase, same partially-accumulated stats."""
    db = twitter_database(nodes=120, edges=500, seed=1)
    python = run_query(
        TRIANGLE, db, strategy="RS_TJ", workers=4, memory_tuples=400,
        kernels="python",
    )
    numpy = run_query(
        TRIANGLE, db, strategy="RS_TJ", workers=4, memory_tuples=400,
        kernels="numpy",
    )
    assert python.failed and numpy.failed
    assert_identical(python, numpy)


def test_kernels_compose_with_parallel_runtime():
    db = twitter_database(nodes=120, edges=500, seed=7)
    python = run_query(
        TRIANGLE, db, strategy="HC_TJ", workers=6, runtime="parallel:3",
        kernels="python",
    )
    numpy = run_query(
        TRIANGLE, db, strategy="HC_TJ", workers=6, runtime="parallel:3",
        kernels="numpy",
    )
    assert_identical(python, numpy)


# ----------------------------------------------------------------------
# The representation: columnar from the first exchange to the result
# ----------------------------------------------------------------------


def _stepped(strategy, backend, monkeypatch):
    """Q1 at unit scale, stepped to the end under ``backend``: the plan, the
    slots the scheduler bound, the result, and the size of every row list
    that was converted into a block on the way."""
    workload = WORKLOADS["Q1"]
    database = workload.dataset("unit")
    converted = []
    convert = kernels.block_from_rows

    def spying_conversion(rows):
        converted.append(len(rows))
        return convert(rows)

    monkeypatch.setattr(kernels, "block_from_rows", spying_conversion)
    physical = lower(workload.query, strategy, Catalog(database))
    cluster = make_cluster(database, workers=8)
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
    return physical, execution._state.slots, run, converted


@pytest.mark.parametrize("strategy", ["RS_HJ", "BR_HJ", "HC_HJ", "HC_TJ"])
def test_numpy_frames_are_converted_once_and_stay_columnar(strategy, monkeypatch):
    physical, slots, run, converted = _stepped(strategy, "numpy", monkeypatch)
    ops = [op for round_ in physical.rounds for op in round_.ops]
    scanned = sum(
        len(frame) for op in ops if isinstance(op, Scan) for frame in slots[op.out]
    )
    # every scanned row became columnar exactly once, and nothing else ever
    # did: no intermediate is converted (or converted back) between operators
    assert scanned and sum(converted) == scanned
    bound = 0
    for op in ops:
        if isinstance(op, Exchange) and op.skip_if_anchor and op.input == run.anchor:
            continue  # the broadcast anchor stays where the scan put it
        if isinstance(op, (Exchange, LocalHashJoin)):
            assert all(isinstance(frame.rows, ColumnBlock) for frame in slots[op.out])
            bound += 1
    assert bound >= 3
    # ... and tuples are made once, at the result: plain ints in plain tuples
    assert type(run.rows) is list and run.rows
    assert all(type(row) is tuple for row in run.rows)
    assert all(type(value) is int for row in run.rows for value in row)


@pytest.mark.parametrize("strategy", ["RS_HJ", "HC_TJ"])
def test_python_frames_are_lists_throughout(strategy, monkeypatch):
    _, slots, run, converted = _stepped(strategy, "python", monkeypatch)
    assert not converted
    frames = [v for values in slots.values() for v in values if isinstance(v, Frame)]
    assert frames and all(type(frame.rows) is list for frame in frames)
    assert type(run.rows) is list and all(type(row) is tuple for row in run.rows)


@pytest.mark.parametrize(
    "name, strategy",
    [
        ("Q7", "RS_HJ"),  # scan filter: y >= 1990 AND y < 2000
        ("Q7", "HC_HJ"),
        ("Q4", "RS_HJ"),  # join filter: f1 > f2
        ("Q8", "HYBRID"),  # de-duplicating ScanIntermediate at the boundary
    ],
)
def test_filters_and_dedup_identical_across_kernel_backends(name, strategy):
    workload = WORKLOADS[name]
    database = workload.dataset("unit")
    python = run_query(
        workload.query, database, strategy=strategy, workers=8, kernels="python"
    )
    numpy = run_query(
        workload.query, database, strategy=strategy, workers=8, kernels="numpy"
    )
    assert not python.failed and python.rows
    assert_identical(python, numpy)  # row for row, order included


def test_large_blocks_cross_the_process_pipe_as_blocks(monkeypatch):
    """Per-worker frames above the size the shared-memory transport starts
    at: on numpy kernels they are column blocks and are pickled as they are."""
    shipped = []
    encode = runtime_module._encode_payload

    def spying_encode(item):
        encoded = encode(item)
        if isinstance(item, Frame):
            shipped.append((item, encoded))
        return encoded

    monkeypatch.setattr(runtime_module, "_encode_payload", spying_encode)
    db = twitter_database(nodes=30_000, edges=34_000, seed=3)
    numpy = run_query(
        TWO_PATH, db, strategy="RS_HJ", workers=2, runtime="parallel:2:proc",
        kernels="numpy",
    )
    assert any(
        len(frame) > SHARED_MIN_ROWS and isinstance(frame.rows, ColumnBlock)
        for frame, _ in shipped
    )
    assert all(encoded is frame for frame, encoded in shipped)
    python = run_query(TWO_PATH, db, strategy="RS_HJ", workers=2, kernels="python")
    assert len(python.rows) > SHARED_MIN_ROWS
    assert_identical(python, numpy)


# ----------------------------------------------------------------------
# Seek accounting on partially-consumed iterations
# ----------------------------------------------------------------------


def _triangle_join(max_seeks=None):
    query = parse_query("Q(x,y,z) :- R(x,y), S(y,z), T(z,x).")
    # +5 steps mod 15 close triangles (5+5+5 = 15); +1 edges add seek noise
    rows = [(i, (i + 1) % 15) for i in range(15)] + [(i, (i + 5) % 15) for i in range(15)]
    relation = Relation("R", ("a", "b"), rows)
    return TributaryJoin(
        query,
        {"R": relation, "S": relation.renamed("S"), "T": relation.renamed("T")},
        max_seeks=max_seeks,
    )


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_partial_iteration_records_seeks(backend):
    with use_backend(backend):
        exhausted = _triangle_join()
        list(exhausted.iterate())

        partial = _triangle_join()
        iterator = partial.iterate()
        next(iterator)  # consume a single result, then abandon the generator
        iterator.close()
    assert partial.stats.seeks > 0
    assert partial.stats.seeks < exhausted.stats.seeks


def test_seek_budget_abort_records_seeks():
    join = _triangle_join(max_seeks=10)
    with pytest.raises(SeekBudgetExceeded):
        list(join.iterate())
    assert join.stats.seeks > 10  # the overshooting count is recorded
