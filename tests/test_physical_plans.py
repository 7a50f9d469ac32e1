"""Snapshot tests: lowering output is pinned, structure is validated.

``tests/golden/physical_plans.json`` holds the rendered
:class:`~repro.planner.physical.PhysicalPlan` for every paper workload
under all six grid strategies (plus the semijoin plan for the acyclic
ones), lowered against the unit-scale catalog.  Lowering is pure — no
cluster, no execution — so these snapshots pin the planner layer in
isolation from the scheduler; regenerate them deliberately with
``tests/golden/capture_physical_plans.py`` when the plan shape changes.

Structural tests below the snapshot comparison check the IR invariants the
scheduler and EXPLAIN ANALYZE rely on: slot def-before-use, unique local
phase ownership, and round-shape conventions per strategy family.
"""

import json
import os

import pytest

from repro.planner.physical import (
    HYBRID_STRATEGY,
    SEMIJOIN_STRATEGY,
    Exchange,
    ExchangeKind,
    LocalHashJoin,
    PhysicalOp,
    Scan,
    ScanIntermediate,
    lower,
)
from repro.planner.plans import ALL_STRATEGIES
from repro.query.catalog import Catalog
from repro.query.parser import parse_query
from repro.workloads.registry import get_workload
from tests.golden.capture_physical_plans import PATH_CYCLE_QUERY

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "physical_plans.json"
)
with open(GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)

CASES = sorted(GOLDEN)

_CATALOGS: dict = {}


def unit_catalog(name) -> Catalog:
    if name not in _CATALOGS:
        _CATALOGS[name] = Catalog(get_workload(name).dataset("unit"))
    return _CATALOGS[name]


def lowered(case):
    name, strategy = case.split("/")
    if name == "PathCycle":
        return lower(parse_query(PATH_CYCLE_QUERY), strategy, unit_catalog("Q1"))
    return lower(get_workload(name).query, strategy, unit_catalog(name))


def test_every_workload_and_strategy_is_snapshotted():
    grid = {s.name for s in ALL_STRATEGIES}
    for name in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8"):
        covered = {c.split("/")[1] for c in CASES if c.startswith(f"{name}/")}
        assert grid <= covered
        if not get_workload(name).cyclic:
            assert SEMIJOIN_STRATEGY in covered
    # the multi-stage hybrid shape is pinned for Q8 and the synthetic
    # path+cycle query (multi-step stage one, dedup boundary)
    assert f"Q8/{HYBRID_STRATEGY}" in CASES
    assert f"PathCycle/{HYBRID_STRATEGY}" in CASES


@pytest.mark.parametrize("case", CASES)
def test_rendered_plan_matches_snapshot(case):
    assert lowered(case).render().splitlines() == GOLDEN[case]


def test_hash_join_columns_are_resolved_at_lowering():
    """Key and new-variable positions ride on the operator, resolved once
    and not per worker (Q1: R(x,y), S(y,z), T(z,x))."""
    joins = [
        op
        for round_ in lowered("Q1/RS_HJ").rounds
        for op in round_.ops
        if isinstance(op, LocalHashJoin)
    ]
    assert [op.columns for op in joins] == [
        ((1,), (0,), (1,)),
        ((0, 2), (1, 0), ()),
    ]


@pytest.mark.parametrize("case", CASES)
def test_slots_defined_before_use(case):
    plan = lowered(case)
    defined: set[str] = set()
    for _, _, _, op in plan.operators():
        for slot in op_inputs(op):
            assert slot in defined, f"{op.describe()} reads undefined {slot!r}"
        if hasattr(op, "out"):
            defined.add(op.out)
    assert plan.result in defined


def op_inputs(op: PhysicalOp) -> list[str]:
    """The slot names an operator reads, per operator kind."""
    if isinstance(op, Scan):
        return []
    if isinstance(op, ScanIntermediate):
        return [op.input]
    if isinstance(op, Exchange):
        return [op.input]
    if hasattr(op, "left"):
        return [op.left, op.right]
    if hasattr(op, "target"):
        return [op.target, op.keys]
    if hasattr(op, "inputs"):
        return [slot for _, slot in op.inputs]
    if hasattr(op, "source"):
        return [op.source]
    if hasattr(op, "aliases"):  # anchor/config read scan sizes, not tuples
        return list(op.aliases)
    raise TypeError(op)


@pytest.mark.parametrize("case", CASES)
def test_local_phase_ownership_is_unique(case):
    # raises AssertionError inside if two local operators share a phase
    assert lowered(case).local_phase_owners()


@pytest.mark.parametrize("name", ["Q1", "Q7"])
def test_strategy_family_shapes(name):
    query = get_workload(name).query
    catalog = unit_catalog(name)
    atoms = len(query.atoms)

    rs = lower(query, "RS_HJ", catalog)
    # scan round + one round per binary step
    assert len(rs.rounds) == atoms
    assert all(
        any(isinstance(op, Exchange) for op in round_.ops)
        for round_ in rs.rounds[1:]
    )

    br = lower(query, "BR_HJ", catalog)
    # scan, anchor choice + broadcasts, one fused local round
    kinds = [
        op.kind for _, _, _, op in br.operators() if isinstance(op, Exchange)
    ]
    assert kinds.count(ExchangeKind.BROADCAST) == atoms

    hc = lower(query, "HC_TJ", catalog)
    hc_exchanges = [
        op for _, _, _, op in hc.operators() if isinstance(op, Exchange)
    ]
    assert len(hc_exchanges) == atoms
    assert all(op.kind is ExchangeKind.HYPERCUBE for op in hc_exchanges)
    assert hc.variable_order is not None
