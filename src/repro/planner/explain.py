"""Query explanation: EXPLAIN (what a strategy would do) and EXPLAIN ANALYZE.

``explain`` assembles the optimizer artifacts the paper's system computes —
the left-deep plan with estimated intermediate sizes, the fractional and
integral HyperCube configurations with expected load and replication, and
the Tributary variable order with its estimated cost — into one readable
report; with a ``strategy`` it also renders the lowered
:class:`~repro.planner.physical.PhysicalPlan`.  Nothing is executed.

``explain_analyze`` *does* execute: it lowers the query, runs the plan
through the operator scheduler with tracing on, and annotates every
operator with its counted metrics — tuples in/out, attributed CPU, the
per-phase wall contribution, and the shuffle record it produced — pulled
from :class:`~repro.engine.stats.ExecutionStats`.  The attribution is
exact and conservative: local operators own their stat phases uniquely
(asserted by :meth:`~repro.planner.physical.PhysicalPlan.local_phase_owners`),
exchanges are charged from their own shuffle record (one work unit per
tuple sent plus one per tuple received, which are equal totals for all
three shuffle kinds), so the per-operator charges sum to ``total_cpu``
and the per-exchange tuple counts sum to ``tuples_shuffled``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..engine.faults import FaultsLike, PolicyLike
from ..engine.runtime import RuntimeLike
from ..engine.scheduler import OperatorTrace
from ..engine.stats import (
    ExecutionStats,
    ShuffleRecord,
    recovery_phase,
)
from ..hypercube.config import HyperCubeConfig, config_workload, optimize_config
from ..hypercube.shares import (
    FractionalShares,
    fractional_shares,
    optimal_fractional_workload,
    replication_factor,
)
from ..leapfrog.variable_order import OrderCost, best_join_order, full_variable_order
from ..query.atoms import ConjunctiveQuery, Variable
from ..query.catalog import Catalog, cardinalities_for
from ..query.hypergraph import Hypergraph
from ..storage.relation import Database
from .api import QueryLike, _as_query, _check_relations, _plan, make_cluster
from .binary import LeftDeepPlan, left_deep_plan
from .executor import ExecutionResult, execute_physical
from .optimizer import CostReport
from .physical import Exchange, PhysicalPlan


@dataclass(frozen=True)
class Explanation:
    """Everything the optimizer decided for one query and cluster size."""

    query: ConjunctiveQuery
    workers: int
    cyclic: bool
    agm_bound: float
    plan: LeftDeepPlan
    fractional: FractionalShares
    hc_config: HyperCubeConfig
    hc_workload: float
    hc_optimal_workload: float
    hc_replication: float
    variable_order: tuple[Variable, ...]
    order_cost: OrderCost
    #: strategy the physical plan below was lowered for (None = not lowered;
    #: for ``"auto"`` this is the optimizer's chosen strategy)
    strategy: Optional[str] = None
    #: the lowered physical plan when a strategy was requested
    physical: Optional[PhysicalPlan] = None
    #: the cost-based optimizer's per-strategy table (``"auto"`` only):
    #: predicted cost of every strategy plus the pick
    cost_report: Optional[CostReport] = None

    def render(self) -> str:
        """The multi-line EXPLAIN report (optimizer artifacts + plan)."""
        lines = [f"query: {self.query}"]
        lines.append(
            f"structure: {'cyclic' if self.cyclic else 'acyclic'}, "
            f"{len(self.query.atoms)} atoms, "
            f"{len(self.query.join_variables())} join variables, "
            f"AGM bound ~{self.agm_bound:,.0f}"
        )
        steps = " >< ".join(self.plan.order)
        lines.append(f"left-deep plan: {steps}")
        sizes = ", ".join(f"{s:,.0f}" for s in self.plan.estimated_sizes)
        lines.append(f"  estimated intermediates: {sizes}")
        shares = ", ".join(
            f"{v.name}={s:.2f}" for v, s in self.fractional.shares.items()
        )
        lines.append(f"fractional shares (p={self.workers}): {shares}")
        lines.append(
            f"hypercube config: {self.hc_config} "
            f"(uses {self.hc_config.workers_used} workers, "
            f"replication ~{self.hc_replication:.1f}x, "
            f"load/optimal {self.hc_workload / max(self.hc_optimal_workload, 1e-9):.2f})"
        )
        order = " < ".join(v.name for v in self.variable_order)
        lines.append(
            f"tributary variable order: {order} "
            f"(estimated cost {self.order_cost.cost:,.0f})"
        )
        if self.cost_report is not None:
            lines.append("")
            lines.append(self.cost_report.render())
        if self.physical is not None:
            lines.append("")
            lines.append(self.physical.render())
        return "\n".join(lines)


def explain(
    query: QueryLike,
    database: Database,
    workers: int = 64,
    strategy: Optional[str] = None,
    memory_tuples: Optional[int] = None,
) -> Explanation:
    """Build the full optimizer explanation for a query (no execution).

    ``query`` may be Datalog rule text or an already-parsed
    :class:`~repro.query.atoms.ConjunctiveQuery`.  With ``strategy`` (one
    of the six grid names or ``"SJ_HJ"``) the lowered physical plan is
    attached and rendered as well.  With ``strategy="auto"`` the cost-based
    optimizer prices all six strategies (under ``memory_tuples`` if given),
    the per-strategy cost table is attached as ``cost_report``, and the
    *chosen* strategy's lowered plan is rendered — the report shows
    predicted and chosen side by side.
    """
    query = _as_query(query)
    _check_relations(query, database)
    catalog = Catalog(database)
    cards = dict(cardinalities_for(query, database))
    hypergraph = Hypergraph(query)
    plan = left_deep_plan(query, catalog)
    fractional = fractional_shares(query, cards, workers)
    config = optimize_config(query, cards, workers)
    best = best_join_order(query, catalog)
    shares = {v: float(d) for v, d in config.dims.items()}
    cost_report: Optional[CostReport] = None
    physical: Optional[PhysicalPlan] = None
    if strategy is not None:
        physical, cost_report, _ = _plan(
            query, strategy, catalog, workers=workers, memory_tuples=memory_tuples
        )
        strategy = physical.strategy  # under "auto", the optimizer's choice
    return Explanation(
        query=query,
        workers=workers,
        cyclic=hypergraph.is_cyclic(),
        agm_bound=hypergraph.agm_bound(cards),
        plan=plan,
        fractional=fractional,
        hc_config=config,
        hc_workload=config_workload(query, cards, config),
        hc_optimal_workload=optimal_fractional_workload(query, cards, workers),
        hc_replication=replication_factor(query, cards, shares),
        variable_order=full_variable_order(query, best.order),
        order_cost=best,
        strategy=strategy,
        physical=physical,
        cost_report=cost_report,
    )


@dataclass(frozen=True)
class OperatorAnnotation:
    """One operator's EXPLAIN ANALYZE row: what it did and what it cost.

    ``cpu`` is the work attributed to this operator (exact: local phases
    are uniquely owned; exchanges charge ``2 x tuples_sent`` out of their
    shared shuffle phase).  ``wall`` is the operator's phase-wall
    contribution — for exchanges that is the *shared* round shuffle-phase
    wall, reported on each exchange of the round."""

    round_index: int
    op_index: int
    describe: str
    tuples_in: int
    tuples_out: int
    cpu: float
    wall: float
    shuffle: Optional[ShuffleRecord] = None
    skipped: bool = False


@dataclass(frozen=True)
class StageSummary:
    """One plan stage's subtotal row in a multi-stage EXPLAIN ANALYZE."""

    stage: int
    cpu: float
    wall: float
    recovery_cpu: float


@dataclass
class AnalyzedPlan:
    """An executed physical plan with per-operator counted metrics."""

    physical: PhysicalPlan
    result: ExecutionResult
    annotations: list[OperatorAnnotation] = field(default_factory=list)

    @property
    def stats(self) -> ExecutionStats:
        """The execution's counted metrics (shared with ``result``)."""
        return self.result.stats

    def operator_charges(self) -> list[float]:
        """Per-operator CPU attribution.

        Sums exactly to ``total_cpu`` minus :attr:`recovery_cpu` — the
        ``recovery`` phases are charged by the retry machinery, never by a
        physical operator, so they are reported separately.
        """
        return [annotation.cpu for annotation in self.annotations]

    @property
    def recovery_cpu(self) -> float:
        """CPU charged to recovery phases (wasted attempts + backoff)."""
        return self.stats.recovery_cpu

    @property
    def recovery_wall(self) -> float:
        """Wall contributed by recovery phases (each priced independently)."""
        return sum(
            self.stats.phase_wall(p) for p in self.stats.recovery_phases()
        )

    def stage_summaries(self) -> tuple[StageSummary, ...]:
        """Per-stage CPU/wall/recovery subtotals, in plan stage order.

        Each stage's CPU is the sum of its operators' attributed charges
        plus the stage's own recovery phase; summed over stages this equals
        ``total_cpu`` exactly (the per-stage conservation invariant a
        multi-stage plan must keep under fault injection).
        """
        rounds = self.physical.rounds
        summaries = []
        for stage in self.physical.stages():
            cpu = sum(
                a.cpu
                for a in self.annotations
                if rounds[a.round_index].stage == stage
            )
            phases: list[str] = []
            for round_ in rounds:
                if round_.stage != stage:
                    continue
                for op in round_.ops:
                    for phase in op.phases:
                        if phase not in phases:
                            phases.append(phase)
            stage_recovery = recovery_phase(stage)
            wall = sum(self.stats.phase_wall(p) for p in phases)
            wall += self.stats.phase_wall(stage_recovery)
            summaries.append(
                StageSummary(
                    stage=stage,
                    cpu=cpu,
                    wall=wall,
                    recovery_cpu=self.stats.phase_cpu(stage_recovery),
                )
            )
        return tuple(summaries)

    def render(self) -> str:
        """The annotated plan: one indented metric line per operator."""
        stats = self.stats
        lines = [
            f"physical plan {self.physical.query.name} "
            f"[{self.physical.strategy}] (analyzed)"
        ]
        multistage = self.physical.is_multistage
        last_round = -1
        for annotation in self.annotations:
            if annotation.round_index != last_round:
                round_ = self.physical.rounds[annotation.round_index]
                header = f"round {annotation.round_index} <{round_.label}>"
                if multistage:
                    header += f" [stage {round_.stage}]"
                lines.append(header + ":")
                last_round = annotation.round_index
            lines.append(f"  {annotation.describe}")
            if annotation.skipped:
                lines.append("      [skipped: anchor stays in place]")
                continue
            detail = (
                f"      tuples in={annotation.tuples_in:,} "
                f"out={annotation.tuples_out:,}  "
                f"cpu={annotation.cpu:,.2f} wall={annotation.wall:,.2f}"
            )
            if annotation.shuffle is not None:
                detail += (
                    f"  [sent={annotation.shuffle.tuples_sent:,} "
                    f"prod_skew={annotation.shuffle.producer_skew:.2f} "
                    f"cons_skew={annotation.shuffle.consumer_skew:.2f}]"
                )
            lines.append(detail)
        lines.append(
            f"totals: cpu={stats.total_cpu:,.2f} wall={stats.wall_clock:,.2f} "
            f"shuffled={stats.tuples_shuffled:,} results={stats.result_count:,}"
        )
        if self.physical.is_multistage:
            for summary in self.stage_summaries():
                line = (
                    f"stage {summary.stage}: cpu={summary.cpu:,.2f} "
                    f"wall={summary.wall:,.2f}"
                )
                if summary.recovery_cpu:
                    line += f" recovery_cpu={summary.recovery_cpu:,.2f}"
                lines.append(line)
        if stats.retries or stats.faults_injected:
            lines.append(
                f"recovery: cpu={self.recovery_cpu:,.2f} "
                f"(wall {self.recovery_wall:,.2f})  "
                f"retries={stats.retries} faults_injected={stats.faults_injected}"
            )
        report = self.result.failure_report
        if report is not None and not stats.failed:
            lines.append(f"degraded: {report.describe()}")
        costs = self.result.cost_report
        if costs is not None:
            try:
                predicted = costs.cost_of(self.physical.strategy).wall_clock
            except KeyError:  # degraded to a strategy outside the grid table
                predicted = None
            line = f"optimizer: chose {costs.choice}"
            if predicted is not None:
                line += (
                    f" (predicted wall {predicted:,.0f}, "
                    f"actual {stats.wall_clock:,.0f})"
                )
            lines.append(line)
        peak = max(stats.peak_memory.values(), default=0)
        lines.append(
            f"peak memory: {peak:,} tuples on the fullest worker "
            f"({len(stats.peak_memory)} workers tracked)"
        )
        if stats.wcoj_scalar_walks:
            lines.append(
                f"wcoj fallbacks: {stats.wcoj_scalar_walks} join(s) walked "
                "scalar (keys overflow the 63-bit pack)"
            )
        if stats.failed:
            lines.append(f"FAILED: {stats.failure} (trace is partial)")
        return "\n".join(lines)


def annotate_plan(
    physical: PhysicalPlan,
    result: ExecutionResult,
    trace: Sequence[OperatorTrace],
) -> AnalyzedPlan:
    """Join an execution trace with its stats into per-operator annotations."""
    stats = result.stats
    physical.local_phase_owners()  # asserts unique ownership of local phases
    annotations: list[OperatorAnnotation] = []
    for entry in trace:
        op = entry.op
        shuffle: Optional[ShuffleRecord] = None
        if isinstance(op, Exchange) and not entry.skipped:
            shuffle = stats.shuffles[entry.shuffle_index]
            # one work unit per tuple sent plus one per tuple received;
            # the totals are equal for all three shuffle kinds
            cpu = 2.0 * shuffle.tuples_sent
            wall = stats.phase_wall(op.phase)
        else:
            cpu = sum(stats.phase_cpu(phase) for phase in op.phases)
            wall = sum(stats.phase_wall(phase) for phase in op.phases)
        annotations.append(
            OperatorAnnotation(
                round_index=entry.round_index,
                op_index=entry.op_index,
                describe=op.describe(),
                tuples_in=entry.tuples_in,
                tuples_out=entry.tuples_out,
                cpu=0.0 if entry.skipped else cpu,
                wall=0.0 if entry.skipped else wall,
                shuffle=shuffle,
                skipped=entry.skipped,
            )
        )
    return AnalyzedPlan(physical=physical, result=result, annotations=annotations)


def explain_analyze(
    query: QueryLike,
    database: Database,
    strategy: str = "HC_TJ",
    workers: int = 64,
    memory_tuples: Optional[int] = None,
    runtime: RuntimeLike = None,
    kernels: Optional[str] = None,
    faults: FaultsLike = None,
    recovery: PolicyLike = None,
) -> AnalyzedPlan:
    """Lower, execute with tracing, and annotate the plan with its metrics.

    ``strategy`` is one of the six grid names or ``"SJ_HJ"``.  The returned
    :class:`AnalyzedPlan` carries the full :class:`ExecutionResult`; on a
    simulated out-of-memory failure the annotations cover the operators
    that completed before the failure.  ``faults``/``recovery`` enable
    deterministic fault injection (retry overhead shows up as a
    ``recovery`` line in the rendered report); when the ``degrade`` policy
    re-plans a broadcast strategy, the annotations describe the fallback
    plan that actually ran.
    """
    parsed = _as_query(query)
    cluster = make_cluster(database, workers=workers, memory_tuples=memory_tuples)
    catalog = Catalog(database)
    physical, cost_report, _ = _plan(
        parsed, strategy, catalog, workers=workers, memory_tuples=memory_tuples
    )
    trace: list[OperatorTrace] = []
    result = execute_physical(
        physical, cluster, runtime=runtime, kernels=kernels, trace=trace,
        faults=faults, recovery=recovery,
    )
    result.cost_report = cost_report
    executed = result.physical if result.physical is not None else physical
    return annotate_plan(executed, result, trace)
