"""Shared experiment harness: run the 6-configuration grid of the paper.

Every figure of the form "query X under RS/BR/HC x HJ/TJ" (Figs. 3, 4, 6, 9,
13, 14, 15, 17) is produced by :func:`run_grid`; the load-balance tables
(Tables 2-4), the operator breakdown (Table 5), and the summary (Table 6)
read the collected :class:`~repro.engine.stats.ExecutionStats`.

Expensive per-query artifacts (the left-deep plan and the Tributary variable
order) are computed once and shared across the six runs, exactly as a real
optimizer would.

:func:`fault_sweep` adds the fault-injection dimension: one query executed
fault-free and then once per fault scenario, emitting recovery-overhead
rows (retries, recovery CPU, overhead ratio, disposition) for the
:mod:`~repro.engine.faults` subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..engine.cluster import Cluster
from ..engine.faults import FaultsLike, PolicyLike
from ..engine.memory import MemoryBudget
from ..engine.runtime import RuntimeLike
from ..planner.api import QueryLike, _as_query
from ..planner.binary import LeftDeepPlan, left_deep_plan, plan_from_order
from ..planner.executor import ExecutionResult, execute
from ..planner.plans import ALL_STRATEGIES, Strategy
from ..query.atoms import ConjunctiveQuery, Variable
from ..query.catalog import Catalog
from ..leapfrog.variable_order import best_join_order, full_variable_order
from ..storage.relation import Database
from ..workloads.registry import Workload, get_workload


@dataclass
class GridResult:
    """Results of one query under every requested strategy."""

    query: ConjunctiveQuery
    workers: int
    results: dict[str, ExecutionResult] = field(default_factory=dict)
    variable_order: tuple[Variable, ...] = ()
    plan: Optional[LeftDeepPlan] = None

    def __getitem__(self, strategy: str) -> ExecutionResult:
        return self.results[strategy]

    def strategies(self) -> tuple[str, ...]:
        return tuple(self.results)

    def consistent(self) -> bool:
        """All non-failed strategies returned the same result set."""
        row_sets = [
            frozenset(result.rows)
            for result in self.results.values()
            if not result.failed
        ]
        return len(set(row_sets)) <= 1

    def best_strategy(self) -> str:
        """The non-failed strategy with the lowest modeled wall clock
        (``"FAIL"`` when every configuration failed)."""
        candidates = {
            name: result.stats.wall_clock
            for name, result in self.results.items()
            if not result.failed
        }
        if not candidates:
            return "FAIL"
        return min(candidates, key=lambda name: candidates[name])


def _shared_artifacts(
    query: ConjunctiveQuery,
    catalog: Catalog,
    plan_order: Optional[Sequence[str]],
) -> tuple[LeftDeepPlan, tuple[Variable, ...]]:
    """The left-deep plan (pinned by ``plan_order`` when given) and the
    Tributary variable order that every strategy of a grid shares."""
    if plan_order is not None:
        plan = plan_from_order(query, catalog, plan_order)
    else:
        plan = left_deep_plan(query, catalog)
    return plan, full_variable_order(query, best_join_order(query, catalog).order)


def _workload_memory(
    workload: Workload, scale: str, enforce_memory: bool
) -> Optional[int]:
    """The per-worker budget a registered workload runs under: its own at
    bench scale when enforced, else unlimited."""
    return workload.memory_tuples if (enforce_memory and scale == "bench") else None


def run_grid(
    query: QueryLike,
    database: Database,
    workers: int = 64,
    strategies: Sequence[Strategy] = ALL_STRATEGIES,
    memory_tuples: Optional[int] = None,
    plan_order: Optional[Sequence[str]] = None,
    runtime: RuntimeLike = None,
) -> GridResult:
    """Run ``query`` under each strategy on fresh clusters over ``database``.

    ``query`` may be Datalog rule text or an already-parsed
    :class:`~repro.query.atoms.ConjunctiveQuery`; it is parsed at most once
    here, and the per-query optimizer artifacts (plan, variable order) are
    computed once and shared across all strategy runs."""
    query = _as_query(query)
    catalog = Catalog(database)
    plan, order = _shared_artifacts(query, catalog, plan_order)
    grid = GridResult(
        query=query, workers=workers, variable_order=order, plan=plan
    )
    for strategy in strategies:
        cluster = Cluster(workers, MemoryBudget(per_worker_tuples=memory_tuples))
        cluster.load(database)
        grid.results[strategy.name] = execute(
            query,
            cluster,
            strategy,
            catalog=catalog,
            variable_order=order,
            plan=plan,
            runtime=runtime,
        )
    return grid


def run_workload(
    name: str,
    scale: str = "bench",
    workers: int = 64,
    strategies: Sequence[Strategy] = ALL_STRATEGIES,
    enforce_memory: bool = True,
    runtime: RuntimeLike = None,
) -> GridResult:
    """Run one registered workload (Q1..Q8) through the strategy grid."""
    workload = get_workload(name)
    return run_grid(
        workload.query,
        workload.dataset(scale),
        workers=workers,
        strategies=strategies,
        memory_tuples=_workload_memory(workload, scale, enforce_memory),
        plan_order=workload.rs_plan_order,
        runtime=runtime,
    )


# ----------------------------------------------------------------------
# Formatting: paper-style rows
# ----------------------------------------------------------------------


def figure_rows(grid: GridResult) -> list[dict[str, object]]:
    """One row per strategy with the three panel metrics of Figs. 3/4/6/9."""
    rows = []
    for name, result in grid.results.items():
        stats = result.stats
        rows.append(
            {
                "strategy": name,
                "failed": result.failed,
                "wall_clock": stats.wall_clock,
                "total_cpu": stats.total_cpu,
                "tuples_shuffled": stats.tuples_shuffled,
                "results": stats.result_count,
                "elapsed_seconds": stats.elapsed_seconds,
            }
        )
    return rows


def format_figure(grid: GridResult, title: str) -> str:
    """Render the three-panel figure as an aligned text table."""
    lines = [title, "-" * len(title)]
    header = (
        f"{'config':>8} {'wall clock':>14} {'total CPU':>14} "
        f"{'tuples shuffled':>16} {'results':>9}"
    )
    lines.append(header)
    for row in figure_rows(grid):
        if row["failed"]:
            lines.append(
                f"{row['strategy']:>8} {'FAIL':>14} {'FAIL':>14} {'FAIL':>16} {'-':>9}"
            )
            continue
        lines.append(
            f"{row['strategy']:>8} {row['wall_clock']:>14,.0f} "
            f"{row['total_cpu']:>14,.0f} {row['tuples_shuffled']:>16,} "
            f"{row['results']:>9,}"
        )
    return "\n".join(lines)


def shuffle_rows(result: ExecutionResult) -> list[dict[str, object]]:
    """Per-shuffle load-balance rows (the format of Tables 2-4)."""
    return [
        {
            "shuffle": record.name,
            "tuples_sent": record.tuples_sent,
            "producer_skew": record.producer_skew,
            "consumer_skew": record.consumer_skew,
        }
        for record in result.stats.shuffles
    ]


def format_shuffle_table(result: ExecutionResult, title: str) -> str:
    """Render per-shuffle load balance in the paper's Tables 2-4 format."""
    lines = [title, "-" * len(title)]
    lines.append(
        f"{'shuffle':<48} {'tuples sent':>12} {'prod skew':>10} {'cons skew':>10}"
    )
    total = 0
    for row in shuffle_rows(result):
        total += int(row["tuples_sent"])
        lines.append(
            f"{str(row['shuffle']):<48} {row['tuples_sent']:>12,} "
            f"{row['producer_skew']:>10.2f} {row['consumer_skew']:>10.2f}"
        )
    lines.append(f"{'Total':<48} {total:>12,} {'N.A.':>10} {'N.A.':>10}")
    return "\n".join(lines)


def fault_sweep(
    query: QueryLike,
    database: Database,
    scenarios: dict[str, FaultsLike],
    strategy: str = "RS_HJ",
    workers: int = 16,
    recovery: PolicyLike = None,
    runtime: RuntimeLike = None,
    memory_tuples: Optional[int] = None,
) -> list[dict[str, object]]:
    """Run one query fault-free, then once per named fault scenario.

    Each scenario is a :class:`~repro.engine.faults.FaultPlan` (or its dict
    form) executed on a fresh cluster under the given ``recovery`` policy.
    Returns one row per run — the fault-free baseline first — with the
    recovery-overhead metrics: retries, injected faults, CPU charged to the
    ``recovery`` phase, total CPU as a ratio of the baseline, whether the
    rows matched the baseline exactly, and the failure disposition (empty,
    ``"aborted"``, or ``"degraded"``).
    """
    from ..planner.api import run_query

    query = _as_query(query)

    def run_one(name: str, faults: FaultsLike) -> dict[str, object]:
        """Execute one sweep entry and project its overhead row."""
        result = run_query(
            query,
            database,
            strategy=strategy,
            workers=workers,
            memory_tuples=memory_tuples,
            runtime=runtime,
            faults=faults,
            recovery=recovery,
        )
        report = result.failure_report
        return {
            "scenario": name,
            "failed": result.failed,
            "disposition": report.disposition if report is not None else "",
            "retries": result.stats.retries,
            "faults_injected": result.stats.faults_injected,
            "recovery_cpu": result.stats.recovery_cpu,
            "total_cpu": result.stats.total_cpu,
            "wall_clock": result.stats.wall_clock,
            "results": result.stats.result_count,
            "rows": frozenset(result.rows),
        }

    rows = [run_one("baseline", None)]
    baseline = rows[0]
    for name, faults in scenarios.items():
        row = run_one(name, faults)
        row["rows_match"] = (not row["failed"]) and row["rows"] == baseline["rows"]
        row["cpu_overhead"] = (
            row["total_cpu"] / baseline["total_cpu"]
            if baseline["total_cpu"]
            else float("nan")
        )
        rows.append(row)
    baseline["rows_match"] = True
    baseline["cpu_overhead"] = 1.0
    for row in rows:
        del row["rows"]
    return rows


def format_fault_sweep(rows: list[dict[str, object]], title: str) -> str:
    """Render :func:`fault_sweep` rows as an aligned recovery-overhead table."""
    lines = [title, "-" * len(title)]
    lines.append(
        f"{'scenario':<24} {'outcome':>10} {'retries':>8} {'recovery cpu':>13} "
        f"{'cpu overhead':>13} {'rows ok':>8}"
    )
    for row in rows:
        if row["failed"]:
            outcome = "ABORT"
        elif row["disposition"] == "degraded":
            outcome = "degraded"
        else:
            outcome = "ok"
        lines.append(
            f"{str(row['scenario']):<24} {outcome:>10} {row['retries']:>8} "
            f"{row['recovery_cpu']:>13,.0f} {row['cpu_overhead']:>13.2f} "
            f"{str(bool(row['rows_match'])):>8}"
        )
    return "\n".join(lines)


def input_size(query: ConjunctiveQuery, database: Database) -> int:
    """Total input tuples over the query's atoms (self-join copies counted
    once per atom, as the paper's Table 6 'Input size' does)."""
    return sum(len(database[atom.relation]) for atom in query.atoms)


def table6_row(
    name: str,
    grid: GridResult,
    database: Database,
) -> dict[str, object]:
    """One row of the paper's Table 6 summary."""
    from ..query.hypergraph import Hypergraph

    query = grid.query
    rs = grid.results.get("RS_HJ")
    hc = grid.results.get("HC_TJ")
    rs_failed = rs is None or rs.failed
    hc_failed = hc is None or hc.failed
    ratio = (
        rs.stats.wall_clock / hc.stats.wall_clock
        if not rs_failed and not hc_failed and hc.stats.wall_clock
        else float("nan")
    )
    return {
        "query": name,
        "tables": len(query.atoms),
        "join_variables": len(query.join_variables()),
        "cyclic": Hypergraph(query).is_cyclic(),
        "input_size": input_size(query, database),
        "rs_shuffled": rs.stats.tuples_shuffled if not rs_failed else None,
        "hc_shuffled": hc.stats.tuples_shuffled if not hc_failed else None,
        "rs_skew": rs.stats.max_consumer_skew if not rs_failed else None,
        "rs_over_hc_time": ratio,
        "best": grid.best_strategy(),
    }


def predict_workload(
    name: str,
    scale: str = "bench",
    workers: int = 64,
    enforce_memory: bool = True,
    database: Optional[Database] = None,
):
    """The cost-based optimizer's prediction for one registered workload.

    Derives the memory budget, left-deep plan and Tributary variable order
    through the helpers :func:`run_workload` runs with, so the returned
    :class:`~repro.planner.optimizer.CostReport` prices the very plans the
    measured grid executes.
    """
    from ..planner.optimizer import estimate_costs

    workload = get_workload(name)
    if database is None:
        database = workload.dataset(scale)
    catalog = Catalog(database)
    plan, order = _shared_artifacts(workload.query, catalog, workload.rs_plan_order)
    return estimate_costs(
        workload.query,
        catalog,
        workers=workers,
        memory_tuples=_workload_memory(workload, scale, enforce_memory),
        plan=plan,
        variable_order=order,
    )


def optimizer_accuracy(
    names: Sequence[str] = (),
    scale: str = "bench",
    workers: int = 64,
    enforce_memory: bool = True,
    runtime: RuntimeLike = None,
    grids: Optional[dict[str, GridResult]] = None,
) -> dict[str, object]:
    """Predicted-vs-measured winner matrix over the paper's query set.

    For every query, runs the cost-based optimizer's prediction
    (:func:`predict_workload`) next to the measured six-strategy grid
    (:func:`run_workload`, reused from ``grids`` when supplied) and records
    whether the predicted winner equals the measured one.  The returned
    report is JSON-serializable — the benchmark suite writes it out as
    ``BENCH_optimizer.json``.
    """
    from ..workloads.registry import PAPER_ORDER

    names = tuple(names) or PAPER_ORDER
    rows: list[dict[str, object]] = []
    for name in names:
        report = predict_workload(
            name, scale=scale, workers=workers, enforce_memory=enforce_memory
        )
        if grids is not None and name in grids:
            grid = grids[name]
        else:
            grid = run_workload(
                name,
                scale=scale,
                workers=workers,
                enforce_memory=enforce_memory,
                runtime=runtime,
            )
        measured = grid.best_strategy()
        rows.append(
            {
                "query": name,
                "predicted": report.choice,
                "measured": measured,
                "hit": report.choice == measured,
                "predicted_wall": {
                    cost.strategy: None if cost.predicted_oom else cost.wall_clock
                    for cost in report.costs
                },
                "predicted_fail": [
                    cost.strategy for cost in report.costs if cost.predicted_oom
                ],
                "measured_wall": {
                    strategy: None if result.failed else result.stats.wall_clock
                    for strategy, result in grid.results.items()
                },
                "measured_fail": [
                    strategy
                    for strategy, result in grid.results.items()
                    if result.failed
                ],
            }
        )
    hits = sum(1 for row in rows if row["hit"])
    return {
        "scale": scale,
        "workers": workers,
        "queries": rows,
        "hits": hits,
        "total": len(rows),
        "accuracy": hits / len(rows) if rows else 0.0,
    }


def format_accuracy(report: dict[str, object]) -> str:
    """Render an :func:`optimizer_accuracy` report as a readable matrix."""
    lines = [
        f"optimizer accuracy ({report['scale']}, p={report['workers']}): "
        f"{report['hits']}/{report['total']}"
    ]
    lines.append(f"{'query':>6} {'predicted':>10} {'measured':>10}  hit")
    for row in report["queries"]:
        mark = "yes" if row["hit"] else "NO"
        lines.append(
            f"{row['query']:>6} {row['predicted']:>10} {row['measured']:>10}  {mark}"
        )
    return "\n".join(lines)
