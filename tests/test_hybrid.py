"""Hybrid multi-round plans: decomposition, lowering, execution, recovery.

The hybrid strategy splits a conjunctive query into a binary hash-join
stage (the selective path atoms) and a residual WCOJ stage that HyperCube-
shuffles the materialized intermediate alongside the remaining atoms
(:mod:`repro.planner.decompose`).  These tests pin:

- the decomposition search space (connectivity, the keep-variable rule,
  the four-atom admission floor that protects the pure-strategy pins);
- lowering structure (stage tags, the ScanIntermediate boundary, per-stage
  HyperCube configuration over the stage-two subquery);
- end-to-end row correctness against the pure RS_HJ baseline on both
  kernel backends;
- the optimizer's hybrid search: ``costs`` stays the six pure rows, the
  cheapest shape rides in ``hybrids``, and at bench scale Q8 under
  ``auto`` picks the hybrid and measurably beats the pure field;
- fault injection at the cross-stage Round boundary: rows stay correct and
  CPU conservation holds per stage (``recovery:stage2`` attribution).
"""

import pytest

from repro.engine.cluster import Cluster
from repro.planner import decompose, optimizer
from repro.planner.decompose import (
    default_decomposition,
    enumerate_decompositions,
    intermediate_alias,
    lower_hybrid,
    stage_one_query,
    stage_two_query,
)
from repro.planner.executor import execute_physical
from repro.planner.explain import explain_analyze
from repro.planner.optimizer import (
    cheapest_hybrid,
    estimate_costs,
    optimize,
    price_plan,
)
from repro.planner.physical import (
    HYBRID_STRATEGY,
    ConfigureHyperCube,
    Exchange,
    ScanIntermediate,
    lower,
)
from repro.planner.plans import ALL_STRATEGIES
from repro.query.catalog import Catalog
from repro.query.parser import parse_query
from repro.workloads.registry import WORKLOADS, get_workload

STRATEGY_NAMES = tuple(s.name for s in ALL_STRATEGIES)

TRIANGLE = parse_query(
    "T(x, y, z) :- R:Twitter(x, y), S:Twitter(y, z), U:Twitter(z, x)."
)

PATH_CYCLE = parse_query(
    "PathCycle(a, e) :- A:Twitter(a, b), B:Twitter(b, c), "
    "E1:Twitter(c, d), E2:Twitter(d, e), E3:Twitter(e, c)."
)


@pytest.fixture(scope="module")
def q8():
    return get_workload("Q8")


@pytest.fixture(scope="module")
def q8_unit(q8):
    return q8.dataset("unit")


@pytest.fixture(scope="module")
def q8_catalog(q8_unit):
    return Catalog(q8_unit)


# ----------------------------------------------------------------------
# Decomposition search space
# ----------------------------------------------------------------------


def test_small_queries_admit_no_decomposition():
    # fewer than four atoms: hybrids never compete with the pure grid,
    # keeping the optimizer's triangle/2-cycle golden pins intact
    assert enumerate_decompositions(TRIANGLE) == ()


def test_q8_decompositions_are_connected_and_well_formed(q8):
    shapes = enumerate_decompositions(q8.query)
    assert shapes
    body_aliases = {atom.alias for atom in q8.query.atoms}
    for shape in shapes:
        stage_aliases = set(shape.stage_one)
        residual = set(shape.residual)
        assert stage_aliases | residual == body_aliases
        assert not stage_aliases & residual
        assert 2 <= len(shape.stage_one) <= len(body_aliases) - 2
        # the boundary must be a real join, never a cartesian re-shuffle
        residual_vars = {
            v
            for atom in q8.query.atoms
            if atom.alias in residual
            for v in atom.variables()
        }
        assert set(shape.keep) & residual_vars


def test_keep_variables_cover_head_and_residual(q8):
    head = set(q8.query.head)
    for shape in enumerate_decompositions(q8.query):
        stage_vars = {
            v
            for atom in q8.query.atoms
            if atom.alias in shape.stage_one
            for v in atom.variables()
        }
        residual_vars = {
            v
            for atom in q8.query.atoms
            if atom.alias in shape.residual
            for v in atom.variables()
        }
        keep = set(shape.keep)
        # everything downstream still needs is kept, nothing else
        assert keep == stage_vars & (residual_vars | head)
        assert shape.dedup == (len(keep) < len(stage_vars))


def test_stage_queries_are_valid_conjunctive_queries(q8):
    shape = enumerate_decompositions(q8.query)[0]
    one = stage_one_query(q8.query, shape)
    two = stage_two_query(q8.query, shape)
    assert tuple(one.head) == shape.keep
    assert {a.alias for a in one.atoms} == set(shape.stage_one)
    assert two.head == q8.query.head
    assert two.atoms[0].relation == shape.alias
    assert tuple(two.atoms[0].terms) == shape.keep
    assert {a.alias for a in two.atoms[1:]} == set(shape.residual)


def test_intermediate_alias_avoids_collisions():
    query = parse_query(
        "Q(a, c) :- I1:Twitter(a, b), I2:Twitter(b, c), "
        "X:Twitter(c, d), Y:Twitter(d, a)."
    )
    assert intermediate_alias(query) == "I3"


def test_default_decomposition_is_deterministic(q8, q8_catalog):
    first = default_decomposition(q8.query, q8_catalog)
    second = default_decomposition(q8.query, q8_catalog)
    assert first == second
    with pytest.raises(ValueError):
        default_decomposition(TRIANGLE, q8_catalog)


# ----------------------------------------------------------------------
# Lowering structure
# ----------------------------------------------------------------------


def test_lowered_hybrid_is_multistage(q8, q8_catalog):
    plan = lower(q8.query, HYBRID_STRATEGY, q8_catalog)
    assert plan.strategy == HYBRID_STRATEGY
    assert plan.is_multistage
    assert plan.stages() == (1, 2)
    ops = [op for _, _, _, op in plan.operators()]
    boundary = [op for op in ops if isinstance(op, ScanIntermediate)]
    assert len(boundary) == 1
    config = next(op for op in ops if isinstance(op, ConfigureHyperCube))
    # the stage-two HyperCube is configured over the residual subquery
    # (intermediate + leftover atoms), not the original query
    assert config.query is not None
    assert boundary[0].out in {a.alias for a in config.query.atoms}


def test_stage_tags_render_only_for_multistage(q8, q8_catalog):
    hybrid = lower(q8.query, HYBRID_STRATEGY, q8_catalog)
    assert "[stage 1]" in hybrid.render() and "[stage 2]" in hybrid.render()
    pure = lower(q8.query, "RS_HJ", q8_catalog)
    assert "[stage" not in pure.render()


@pytest.mark.parametrize("case", ["Q8", "PathCycle"])
def test_stage_two_is_the_hc_tj_composition(case, q8, q8_catalog):
    # the hybrid's second stage is not a copy of the HC_TJ lowering: both
    # come out of the same builders, so lowering the stage-two subquery on
    # its own yields the very same exchanges and Tributary round
    if case == "Q8":
        query, catalog = q8.query, q8_catalog
    else:
        query = PATH_CYCLE
        catalog = Catalog(get_workload("Q1").dataset("unit"))
    shape = default_decomposition(query, catalog)
    hybrid = lower_hybrid(query, catalog, decomposition=shape)
    pure = lower(
        stage_two_query(query, shape), "HC_TJ", catalog,
        variable_order=hybrid.variable_order,
    )
    boundary, tributary = hybrid.rounds[-2:]
    _, shuffle, local = pure.rounds

    def exchanges(round_):
        return [op for op in round_.ops if isinstance(op, Exchange)]

    assert len(exchanges(boundary)) == len(shape.residual) + 1
    assert exchanges(boundary) == exchanges(shuffle)
    assert tributary.ops == local.ops
    assert tributary.local_workers == local.local_workers
    # equal operators render equally: the plans describe() the same stage
    assert [op.describe() for op in exchanges(boundary) + list(tributary.ops)] == [
        op.describe() for op in exchanges(shuffle) + list(local.ops)
    ]


# ----------------------------------------------------------------------
# Execution correctness
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kernels", ["python", "numpy"])
def test_hybrid_rows_match_pure_baseline(q8, q8_unit, q8_catalog, kernels):
    cluster = Cluster(16)
    cluster.load(q8_unit)
    hybrid = execute_physical(
        lower(q8.query, HYBRID_STRATEGY, q8_catalog), cluster, kernels=kernels
    )
    baseline_cluster = Cluster(16)
    baseline_cluster.load(q8_unit)
    baseline = execute_physical(
        lower(q8.query, "RS_HJ", q8_catalog), baseline_cluster, kernels=kernels
    )
    assert not hybrid.failed and not baseline.failed
    assert sorted(hybrid.rows) == sorted(baseline.rows)


def test_path_cycle_hybrid_rows_match_baseline():
    database = get_workload("Q1").dataset("unit")
    catalog = Catalog(database)
    cluster = Cluster(8)
    cluster.load(database)
    hybrid = execute_physical(
        lower(PATH_CYCLE, HYBRID_STRATEGY, catalog), cluster
    )
    baseline_cluster = Cluster(8)
    baseline_cluster.load(database)
    baseline = execute_physical(
        lower(PATH_CYCLE, "RS_HJ", catalog), baseline_cluster
    )
    assert sorted(hybrid.rows) == sorted(baseline.rows)


# ----------------------------------------------------------------------
# Optimizer integration
# ----------------------------------------------------------------------


def test_pure_cost_rows_unchanged_by_hybrid_search(q8, q8_catalog):
    plain = estimate_costs(q8.query, q8_catalog, workers=16)
    searched = estimate_costs(q8.query, q8_catalog, workers=16, hybrid=True)
    assert plain.hybrids == ()
    assert {c.strategy for c in plain.costs} == set(STRATEGY_NAMES)
    # the six pure rows are priced identically whether hybrids compete
    assert searched.costs == plain.costs
    assert len(searched.hybrids) == 1
    assert searched.hybrids[0].strategy == HYBRID_STRATEGY
    assert searched.hybrid_decomposition is not None
    assert searched.hybrids[0].detail == searched.hybrid_decomposition.describe()


def test_ranking_and_render_include_hybrid_row(q8, q8_catalog):
    report = estimate_costs(q8.query, q8_catalog, workers=16, hybrid=True)
    ranked = report.ranking()
    assert len(ranked) == 7
    assert ranked[0].strategy == report.choice
    assert report.cost_of(HYBRID_STRATEGY) is report.hybrids[0]
    assert "HYBRID shape:" in report.render()


def test_auto_picks_hybrid_on_q8_at_bench_scale(q8):
    database = q8.dataset("bench")
    catalog = Catalog(database)
    report = estimate_costs(
        q8.query, catalog, workers=64,
        memory_tuples=q8.memory_tuples, hybrid=True,
    )
    assert report.choice == HYBRID_STRATEGY
    hybrid_cost = report.cost_of(HYBRID_STRATEGY)
    for name in STRATEGY_NAMES:
        assert hybrid_cost.cost < report.cost_of(name).cost


def test_auto_measured_hybrid_beats_hc_tj_on_q8_bench(q8):
    database = q8.dataset("bench")
    catalog = Catalog(database)
    optimized = optimize(
        q8.query, catalog, workers=64,
        memory_tuples=q8.memory_tuples, cache=None,
    )
    assert optimized.choice == HYBRID_STRATEGY
    cluster = Cluster(64)
    cluster.load(database)
    hybrid = execute_physical(optimized.physical, cluster, kernels="numpy")
    assert not hybrid.failed
    pure_cluster = Cluster(64)
    pure_cluster.load(database)
    pure = execute_physical(
        lower(q8.query, "HC_TJ", catalog), pure_cluster, kernels="numpy"
    )
    # HC_TJ is the best measured pure strategy on Q8 at bench scale
    assert hybrid.stats.wall_clock < pure.stats.wall_clock
    assert sorted(hybrid.rows) == sorted(pure.rows)


def test_lowering_decides_the_shape_and_estimate_once(q8, q8_catalog, monkeypatch):
    # lowering estimates the intermediate and plans stage one once each;
    # pricing reads both off the plan and derives neither again
    calls = {"estimate": 0, "stage one plans": 0}
    real_estimate = decompose.estimate_intermediate
    real_plan = decompose.left_deep_plan

    def estimate(*args, **kwargs):
        calls["estimate"] += 1
        return real_estimate(*args, **kwargs)

    def plan(query, *args, **kwargs):
        calls["stage one plans"] += query.name.endswith("~s1")
        return real_plan(query, *args, **kwargs)

    for module in (decompose, optimizer):
        monkeypatch.setattr(module, "estimate_intermediate", estimate, raising=False)
        monkeypatch.setattr(module, "left_deep_plan", plan)
    shape = enumerate_decompositions(q8.query)[0]
    physical = lower_hybrid(q8.query, q8_catalog, decomposition=shape)
    assert calls == {"estimate": 1, "stage one plans": 1}
    priced = price_plan(physical, q8_catalog, workers=16)
    assert calls == {"estimate": 1, "stage one plans": 1}
    assert physical.decomposition == shape
    assert priced.detail == shape.describe()
    assert priced.intermediate_sizes[-1] == physical.intermediate.cardinality


def reference_decomposition(query, catalog, workers):
    """The reference shape ranking: cost, then rendering, then stage-one
    size, then aliases (the last two keys never decide a registry query)."""
    return min(
        enumerate_decompositions(query),
        key=lambda shape: (
            price_plan(
                lower_hybrid(query, catalog, decomposition=shape), catalog, workers
            ).cost,
            shape.describe(),
            len(shape.stage_one),
            shape.stage_one,
        ),
    )


@pytest.mark.parametrize(
    "name", [name for name, w in WORKLOADS.items() if enumerate_decompositions(w.query)]
)
def test_cheapest_hybrid_picks_the_reference_shape(name):
    workload = get_workload(name)
    catalog = Catalog(workload.dataset("unit"))
    best = cheapest_hybrid(workload.query, catalog, 64)
    assert best.physical.decomposition == reference_decomposition(
        workload.query, catalog, 64
    )
    assert default_decomposition(workload.query, catalog) == best.physical.decomposition


def test_optimize_lowers_the_reported_decomposition(q8, q8_catalog):
    optimized = optimize(q8.query, q8_catalog, workers=16, cache=None)
    if optimized.choice != HYBRID_STRATEGY:
        pytest.skip("hybrid not predicted to win at this scale")
    shape = optimized.report.hybrid_decomposition
    boundary = next(
        op
        for _, _, _, op in optimized.physical.operators()
        if isinstance(op, ScanIntermediate)
    )
    assert boundary.out == shape.alias
    assert boundary.variables == shape.keep


# ----------------------------------------------------------------------
# Fault injection at the cross-stage boundary
# ----------------------------------------------------------------------


def _stage_conservation(analyzed):
    stats = analyzed.stats
    charges = sum(analyzed.operator_charges())
    assert charges + analyzed.recovery_cpu == pytest.approx(stats.total_cpu)
    summaries = analyzed.stage_summaries()
    assert sum(s.cpu + s.recovery_cpu for s in summaries) == pytest.approx(
        stats.total_cpu
    )
    assert sum(s.wall for s in summaries) == pytest.approx(stats.wall_clock)


def test_fault_at_stage_boundary_recovers_and_conserves(q8, q8_unit):
    clean = explain_analyze(q8.query, q8_unit, strategy=HYBRID_STRATEGY, workers=16)
    _stage_conservation(clean)
    faults = {
        "faults": [
            {
                "kind": "crash",
                "round": "stage boundary",
                "worker": 2,
                "phase": "hypercube shuffle",
            }
        ]
    }
    analyzed = explain_analyze(
        q8.query, q8_unit, strategy=HYBRID_STRATEGY, workers=16,
        faults=faults, recovery="retry",
    )
    assert analyzed.stats.retries == 1
    assert analyzed.stats.faults_injected == 1
    assert sorted(analyzed.result.rows) == sorted(clean.result.rows)
    # the wasted attempt is re-charged into the stage-qualified phase
    assert "recovery:stage2" in analyzed.stats.phases()
    assert analyzed.recovery_cpu > 0
    _stage_conservation(analyzed)
    summaries = {s.stage: s for s in analyzed.stage_summaries()}
    assert summaries[2].recovery_cpu == analyzed.recovery_cpu
    assert summaries[1].recovery_cpu == 0
    assert "stage 2:" in analyzed.render()


def test_fault_in_stage_one_charges_stage_one_recovery(q8, q8_unit):
    clean = explain_analyze(q8.query, q8_unit, strategy=HYBRID_STRATEGY, workers=16)
    faults = {
        "faults": [
            {"kind": "crash", "round": "step 1", "worker": 1, "phase": "step1:join"}
        ]
    }
    analyzed = explain_analyze(
        q8.query, q8_unit, strategy=HYBRID_STRATEGY, workers=16,
        faults=faults, recovery="retry",
    )
    assert sorted(analyzed.result.rows) == sorted(clean.result.rows)
    assert "recovery:stage1" in analyzed.stats.phases()
    _stage_conservation(analyzed)


def test_pure_plans_keep_the_unqualified_recovery_phase(q8, q8_unit):
    faults = {
        "faults": [
            {"kind": "crash", "round": "step 1", "worker": 1, "phase": "step1:join"}
        ]
    }
    analyzed = explain_analyze(
        q8.query, q8_unit, strategy="RS_HJ", workers=16,
        faults=faults, recovery="retry",
    )
    assert "recovery" in analyzed.stats.phases()
    assert not any(":" in p for p in analyzed.stats.phases() if p.startswith("recovery"))
    assert analyzed.recovery_cpu == analyzed.stats.phase_cpu("recovery")
