"""A local join routes its own output for the regular exchange that alone
reads it, and that exchange only assembles each consumer's runs.

Routing is a wall-clock change only: the assembled buckets are the ones the
stable partition of the producers' concatenation gives, so rows, their
order and every counted metric equal the python backend's, which never
routes.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import kernels, shuffle as shuffle_module
from repro.engine.kernels import use_backend
from repro.planner.api import make_cluster, run_query
from repro.planner.physical import (
    HYBRID_STRATEGY,
    Exchange,
    ExchangeKind,
    LocalHashJoin,
    lower,
)
from repro.engine.runtime import resolve_runtime
from repro.engine.scheduler import PlanExecution
from repro.engine.stats import ExecutionStats
from repro.query.catalog import Catalog
from repro.query.parser import parse_query
from repro.storage.generators import twitter_database
from repro.workloads.registry import get_workload

TRIANGLE = parse_query(
    "T(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z), T:Twitter(z,x)."
)
PATH = parse_query(
    "P(x,y,z,w) :- R:Twitter(x,y), S:Twitter(y,z), T:Twitter(z,w)."
)
# x < z waits for step 1's output: the routed join filters before routing
PENDING = parse_query(
    "C(x,y,z,w) :- R:Twitter(x,y), S:Twitter(y,z), T:Twitter(z,w), x < z."
)
RUNTIMES = ["serial", "parallel:3", "parallel:3:proc"]


@pytest.fixture(scope="module")
def db():
    return twitter_database(nodes=150, edges=700, seed=3)


# ----------------------------------------------------------------------
# Kernel level: assembly equals the partition of the concatenation
# ----------------------------------------------------------------------

values = st.integers(-(2**40), 2**40)


@st.composite
def producers(draw):
    width = draw(st.integers(1, 4))
    row = st.tuples(*[values] * width)
    parts = draw(st.lists(st.lists(row, max_size=12), min_size=1, max_size=5))
    key = draw(st.permutations(range(width)))
    key = key[: draw(st.integers(1, width))]
    return width, parts, tuple(key)


@given(
    producers(),
    st.integers(1, 9),
    st.one_of(st.just(0), st.integers(0, 2**32 - 1)),
)
@settings(max_examples=150, deadline=None)
@example((2, [[], [(1, 2)], []], (0,)), 8, 0)  # empty producers, idle consumers
@example((3, [[(5, 1, 2), (5, 1, 3), (6, 0, 0)]], (2, 0)), 4, 77)  # one producer
@example((1, [[], []], (0,)), 3, 0)  # nothing at all
def test_assembly_equals_partition_of_the_concatenation(case, workers, salt):
    width, parts, key = case
    with use_backend("numpy"):
        routed = [kernels.route_rows(part, key, workers, salt) for part in parts]
        assembled = kernels.assemble_routed(
            [rows for rows, _ in routed], [cuts for _, cuts in routed], width
        )
        concatenated = kernels.concat_rows(parts, width)
        expected = kernels.shuffle_partition(concatenated, key, workers, salt)
    assert len(assembled) == workers
    for bucket, reference in zip(assembled, expected):
        assert list(bucket) == list(reference)  # same rows, same order
    with use_backend("python"):
        scalar = kernels.shuffle_partition(
            [row for part in parts for row in part], key, workers, salt
        )
    assert [list(bucket) for bucket in assembled] == scalar


def test_a_routed_part_is_its_own_partition_kept_whole():
    rows = [(i, i * 7 % 5) for i in range(40)]
    with use_backend("numpy"):
        gathered, cuts = kernels.route_rows(rows, (1,), 4, 9)
        buckets = kernels.shuffle_partition(rows, (1,), 4, 9)
    assert cuts[0] == 0 and cuts[-1] == len(rows)
    assert [list(gathered[cuts[b]:cuts[b + 1]]) for b in range(4)] == [
        list(bucket) for bucket in buckets
    ]


# ----------------------------------------------------------------------
# Plan level: routed runs equal the python backend's
# ----------------------------------------------------------------------


def _signature(result):
    stats = result.stats
    return (
        result.rows,
        stats.shuffles,
        stats.peak_memory,
        stats.total_cpu,
        stats.phases(),
    )


PLAN_CASES = {
    "RS_HJ": (TRIANGLE, "RS_HJ"),
    "RS_TJ": (TRIANGLE, "RS_TJ"),
    "SJ_HJ": (PATH, "SJ_HJ"),
    "pending": (PENDING, "RS_HJ"),
}


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("case", sorted(PLAN_CASES))
def test_routed_plans_equal_the_python_backend(db, case, runtime):
    query, strategy = PLAN_CASES[case]
    reference = run_query(query, db, strategy=strategy, workers=5, kernels="python")
    routed = run_query(
        query, db, strategy=strategy, workers=5, runtime=runtime, kernels="numpy"
    )
    assert not reference.failed and reference.rows
    assert _signature(routed) == _signature(reference)


@pytest.fixture(scope="module")
def q8():
    workload = get_workload("Q8")
    return workload.query, workload.dataset("unit")


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_hybrid_stage_one_routes_like_the_python_backend(q8, runtime):
    query, database = q8
    plan = lower(query, HYBRID_STRATEGY, Catalog(database))
    assert any(op.route for _, _, _, op in plan.operators() if not op.GLOBAL)
    reference = run_query(
        query, database, strategy=HYBRID_STRATEGY, workers=6, kernels="python"
    )
    routed = run_query(
        query, database, strategy=HYBRID_STRATEGY, workers=6,
        runtime=runtime, kernels="numpy",
    )
    assert _signature(routed) == _signature(reference)


# ----------------------------------------------------------------------
# The routed path is taken, and only where it may be
# ----------------------------------------------------------------------


def test_lowering_routes_only_a_slot_one_regular_exchange_reads(db):
    plan = lower(TRIANGLE, "RS_HJ", Catalog(db))
    joins = [op for _, _, _, op in plan.operators() if isinstance(op, LocalHashJoin)]
    step1, step2 = joins
    (reader,) = [
        op for _, _, _, op in plan.operators()
        if isinstance(op, Exchange) and op.input == step1.out
    ]
    assert reader.kind is ExchangeKind.REGULAR
    assert step1.route == reader.key and reader.key
    assert step2.out == plan.result and step2.route == ()
    # describe() does not show it: EXPLAIN output is unchanged
    assert "route" not in plan.render()


@pytest.mark.parametrize("strategy", ["HC_HJ", "BR_HJ", "HC_TJ"])
def test_slots_read_by_a_later_operator_are_never_routed(db, strategy):
    plan = lower(PATH, strategy, Catalog(db))
    assert all(
        not getattr(op, "route", ()) for _, _, _, op in plan.operators()
    )


def _spied_run(monkeypatch, db, backend):
    calls = {"partition": [], "assemble": []}
    partition = shuffle_module.shuffle_partition
    assemble = shuffle_module.assemble_routed

    def spy_partition(rows, *args, **kwargs):
        calls["partition"].append(len(rows))
        return partition(rows, *args, **kwargs)

    def spy_assemble(parts, *args, **kwargs):
        calls["assemble"].append(sum(map(len, parts)))
        return assemble(parts, *args, **kwargs)

    monkeypatch.setattr(shuffle_module, "shuffle_partition", spy_partition)
    monkeypatch.setattr(shuffle_module, "assemble_routed", spy_assemble)
    result = run_query(TRIANGLE, db, strategy="RS_HJ", workers=4, kernels=backend)
    return calls, result


def test_a_routed_slot_is_assembled_and_scans_are_partitioned(monkeypatch, db):
    calls, result = _spied_run(monkeypatch, db, "numpy")
    two_path = [record for record in result.stats.shuffles if "step2 left" in record.name]
    (moved,) = [record.tuples_sent for record in two_path]
    # R and S on h(y), T on h(x, z): scans only
    scans = sorted(calls["partition"])
    assert len(scans) == 3 and moved not in scans
    assert calls["assemble"] == [moved]


def test_the_python_backend_never_routes(monkeypatch, db):
    calls, _ = _spied_run(monkeypatch, db, "python")
    assert calls["assemble"] == [] and len(calls["partition"]) == 4


def test_result_frames_keep_their_produced_order(db):
    plan = lower(TRIANGLE, "RS_HJ", Catalog(db))
    cluster = make_cluster(db, 4)
    with use_backend("numpy"):
        execution = PlanExecution(
            plan, cluster, ExecutionStats(workers=4), resolve_runtime("serial")
        )
        while not execution.finished:
            execution.step()
        slots = execution._state.slots
        assert all(frame.routing is not None for frame in slots["join@step1"])
        assert all(frame.routing is None for frame in slots[plan.result])


# ----------------------------------------------------------------------
# Faults: a crash in the routed Round recovers as the serial run does
# ----------------------------------------------------------------------

CRASH_STEP1 = {
    "seed": 7,
    "faults": [{"kind": "crash", "round": "step 1", "worker": 1}],
}


@pytest.mark.parametrize("runtime", ["parallel:3", "parallel:3:proc"])
def test_a_crash_in_the_routed_round_retries_like_serial(db, runtime):
    runs = [
        run_query(
            TRIANGLE, db, strategy="RS_HJ", workers=4, runtime=each,
            kernels="numpy", faults=CRASH_STEP1, recovery="retry",
        )
        for each in ("serial", runtime)
    ]
    serial, other = runs
    assert serial.stats.retries == 1 and not serial.failed
    assert _signature(other) == _signature(serial)
    assert other.stats.retries == serial.stats.retries
    clean = run_query(TRIANGLE, db, strategy="RS_HJ", workers=4, kernels="python")
    assert other.rows == clean.rows
