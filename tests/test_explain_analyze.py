"""Metric-conservation tests for EXPLAIN ANALYZE.

The attribution contract: every work unit the simulator charges is owned by
exactly one operator annotation, so the per-operator charges sum to
``total_cpu`` exactly, and every shuffled tuple is owned by exactly one
exchange annotation, so the per-exchange counts sum to ``tuples_shuffled``.
These hold for all six grid strategies and the semijoin plan, on cyclic and
acyclic workloads.  A mid-plan OOM leaves a partial trace whose charges
under-cover ``total_cpu`` by exactly the in-flight operator's work — the
trace never over-attributes.
"""

import json

import pytest

from repro.engine.cluster import Cluster
from repro.planner.executor import execute
from repro.planner.explain import annotate_plan, explain_analyze
from repro.planner.physical import Exchange, lower
from repro.planner.plans import ALL_STRATEGIES
from repro.query.catalog import Catalog
from repro.query.parser import parse_query
from repro.storage.generators import twitter_database
from repro.workloads.registry import get_workload
from tests.golden import capture_analyzed_plans

GRID = [s.name for s in ALL_STRATEGIES]
TRIANGLE = "T(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z), T:Twitter(z,x)."

_DATASETS: dict = {}


def unit_dataset(name):
    if name not in _DATASETS:
        _DATASETS[name] = get_workload(name).dataset("unit")
    return _DATASETS[name]


def analyzed(workload_name, strategy):
    workload = get_workload(workload_name)
    return explain_analyze(
        workload.query, unit_dataset(workload_name),
        strategy=strategy, workers=4,
    )


def assert_conserved(plan):
    stats = plan.stats
    assert sum(plan.operator_charges()) == pytest.approx(
        stats.total_cpu, abs=1e-9
    )
    sent = sum(
        a.shuffle.tuples_sent for a in plan.annotations if a.shuffle is not None
    )
    assert sent == stats.tuples_shuffled


# Q1 is the cyclic triangle; Q7 is acyclic so SJ_HJ applies as well.
CASES = [("Q1", s) for s in GRID] + [("Q7", s) for s in GRID + ["SJ_HJ"]]


@pytest.mark.parametrize("workload_name,strategy", CASES)
def test_charges_conserve(workload_name, strategy):
    plan = analyzed(workload_name, strategy)
    assert not plan.result.failed
    assert_conserved(plan)


@pytest.mark.parametrize("strategy", GRID)
def test_one_annotation_per_operator(strategy):
    plan = analyzed("Q1", strategy)
    assert len(plan.annotations) == len(list(plan.physical.operators()))
    # every annotation points at a real operator slot in the plan
    for annotation in plan.annotations:
        round_ = plan.physical.rounds[annotation.round_index]
        op = round_.ops[annotation.op_index]
        assert annotation.describe == op.describe()


def test_local_phases_uniquely_owned():
    catalog = Catalog(unit_dataset("Q1"))
    for strategy in GRID:
        physical = lower(get_workload("Q1").query, strategy, catalog)
        owners = physical.local_phase_owners()
        assert owners  # at least one charged local phase per plan


def test_exchange_wall_is_shared_phase_wall():
    plan = analyzed("Q1", "RS_HJ")
    stats = plan.stats
    for annotation in plan.annotations:
        if annotation.shuffle is None or annotation.skipped:
            continue
        round_ = plan.physical.rounds[annotation.round_index]
        op = round_.ops[annotation.op_index]
        assert isinstance(op, Exchange)
        assert annotation.wall == stats.phase_wall(op.phase)


def test_skipped_anchor_charges_nothing():
    plan = analyzed("Q1", "BR_HJ")
    skipped = [a for a in plan.annotations if a.skipped]
    assert len(skipped) == 1  # the anchor's elided broadcast
    assert skipped[0].cpu == 0.0 and skipped[0].wall == 0.0
    assert skipped[0].shuffle is None
    assert_conserved(plan)


def test_oom_partial_trace_never_overattributes():
    plan = explain_analyze(
        TRIANGLE,
        twitter_database(nodes=200, edges=900, seed=5),
        strategy="RS_HJ",
        workers=4,
        memory_tuples=700,
    )
    assert plan.result.failed
    # the trace stops before the operator that blew the budget; completed
    # operators own their charges, and the uncovered remainder is exactly
    # the work the in-flight operator charged before the failure
    assert len(plan.annotations) < len(list(plan.physical.operators()))
    charged = sum(plan.operator_charges())
    assert charged <= plan.stats.total_cpu
    failing_phase = plan.stats.failure.split("'")[1]
    assert charged + plan.stats.phase_cpu(failing_phase) == pytest.approx(
        plan.stats.total_cpu, abs=1e-9
    )


def test_annotate_plan_on_manual_execution():
    query = parse_query(TRIANGLE)
    cluster = Cluster(4)
    cluster.load(twitter_database(nodes=200, edges=900, seed=5))
    trace = []
    strategy = next(s for s in ALL_STRATEGIES if s.name == "HC_TJ")
    result = execute(query, cluster, strategy, trace=trace)
    plan = annotate_plan(result.physical, result, trace)
    assert_conserved(plan)


def test_render_reports_totals_and_memory():
    plan = analyzed("Q1", "HC_TJ")
    text = plan.render()
    assert "(analyzed)" in text
    assert "totals: cpu=" in text
    assert "peak memory:" in text
    assert f"results={plan.stats.result_count:,}" in text


def test_failed_render_is_marked():
    plan = explain_analyze(
        TRIANGLE,
        twitter_database(nodes=200, edges=900, seed=5),
        strategy="RS_HJ",
        workers=4,
        memory_tuples=700,
    )
    assert "FAILED:" in plan.render()


def test_accepts_parsed_query():
    parsed = parse_query(TRIANGLE)
    plan = explain_analyze(
        parsed, twitter_database(nodes=200, edges=900, seed=5),
        strategy="RS_HJ", workers=4,
    )
    assert plan.physical.query is parsed
    assert_conserved(plan)


# ----------------------------------------------------------------------
# Golden renders: the traced numbers themselves, byte for byte
# ----------------------------------------------------------------------

with open(capture_analyzed_plans.OUT_PATH) as _handle:
    ANALYZED_GOLDEN = json.load(_handle)

ANALYZED_CASES = list(capture_analyzed_plans.cases())


def test_analyzed_golden_covers_every_case():
    assert sorted(ANALYZED_GOLDEN) == sorted(key for key, *_ in ANALYZED_CASES)


@pytest.mark.parametrize(
    "key,name,strategy,extra",
    ANALYZED_CASES,
    ids=[key for key, *_ in ANALYZED_CASES],
)
def test_analyzed_render_matches_golden(key, name, strategy, extra):
    """``tuples in/out``, the skipped anchor, every shuffle record and every
    charge render exactly as ``tests/golden/analyzed_plans.json`` captured
    them (``tests/golden/capture_analyzed_plans.py`` regenerates it)."""
    rendered = capture_analyzed_plans.render_case(name, strategy, extra)
    assert rendered == ANALYZED_GOLDEN[key]
