"""Distributed query execution for every shuffle x join strategy.

This is the counterpart of the paper's Myria deployment — but where the
strategies used to be six hand-written execution loops, they are now six
small *lowering* functions (:mod:`~repro.planner.physical`) producing an
explicit :class:`~repro.planner.physical.PhysicalPlan`, executed by the one
operator scheduler (:mod:`~repro.engine.scheduler`).  :func:`execute` is
the stable entry point: lower the query for the chosen strategy, run the
plan, and wrap rows + counted metrics into an :class:`ExecutionResult`;
:func:`execute_physical` runs an already-lowered plan (the seam EXPLAIN
ANALYZE and hybrid planners build on).

Plan shapes (see :mod:`~repro.planner.physical` for the operator IR):

- ``RS_*``  — left-deep pipeline: shuffle both inputs of every binary join
  on the join key (skipping re-shuffles when the intermediate is already
  partitioned on it), join locally; HJ uses the symmetric hash join, TJ uses
  a per-step binary merge join (a degenerate Tributary join).
- ``BR_*``  — keep the largest relation partitioned in place, broadcast all
  the others, then run the whole plan locally on every worker.
- ``HC_*``  — a single HyperCube shuffle of every atom (configuration from
  Sec. 4's Algorithm 1 unless one is supplied), then local evaluation: a
  left-deep hash-join tree for HJ or the full multiway Tributary join for
  TJ (variable order from the Sec. 5 cost model unless supplied).

Simulated out-of-memory (:class:`~repro.engine.memory.OutOfMemoryError`)
turns into a FAILed :class:`ExecutionResult` — the paper's Fig. 9 reports
exactly this outcome for RS_TJ on Q4.

The per-worker local-join phases run through a pluggable worker runtime
(:mod:`~repro.engine.runtime`); result rows and counted metrics are
identical across runtimes and kernel backends by construction, and a
differential suite pins them against golden captures of the historical
per-strategy executor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

from ..engine.cluster import Cluster
from ..engine.faults import (
    FailureReport,
    FaultAbort,
    FaultSession,
    FaultsLike,
    PolicyLike,
    resolve_faults,
    resolve_policy,
)
from ..engine.kernels import use_backend
from ..engine.memory import OutOfMemoryError
from ..engine.runtime import RuntimeLike, resolve_runtime
from ..engine.scheduler import OperatorTrace, run_plan
from ..engine.stats import RECOVERY_PHASE, ExecutionStats
from ..hypercube.config import HyperCubeConfig
from ..query.atoms import ConjunctiveQuery, Variable
from ..query.catalog import Catalog
from .binary import LeftDeepPlan
from .physical import PhysicalPlan, lower
from .plans import Strategy

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .optimizer import CostReport


@dataclass
class ExecutionResult:
    """Result rows plus everything observed while producing them."""

    rows: list[tuple[int, ...]]
    stats: ExecutionStats
    hc_config: Optional[HyperCubeConfig] = None
    variable_order: Optional[tuple[Variable, ...]] = None
    plan: Optional[LeftDeepPlan] = None
    #: the lowered plan that was executed (None only for early failures)
    physical: Optional[PhysicalPlan] = None
    #: per-operator execution trace (present when tracing was requested)
    trace: Optional[list[OperatorTrace]] = None
    #: structured report of an injected-fault abort or degrade (None when no
    #: fault escalated past the scheduler's retry loop)
    failure_report: Optional[FailureReport] = None
    #: the optimizer's per-strategy cost table (``strategy="auto"`` runs
    #: only; see :mod:`~repro.planner.optimizer`)
    cost_report: Optional["CostReport"] = None

    @property
    def failed(self) -> bool:
        """Whether execution failed (OOM or unrecovered injected fault)."""
        return self.stats.failed


#: graceful-degradation fallbacks: broadcast plans re-planned as regular
#: shuffles when a fault exhausts recovery (the ``degrade`` policy)
DEGRADE_FALLBACKS = {"BR_HJ": "RS_HJ", "BR_TJ": "RS_TJ"}


def _degrade(
    report: FailureReport,
    physical: PhysicalPlan,
    cluster: Cluster,
    stats: ExecutionStats,
    runtime: RuntimeLike,
    kernels: Optional[str],
    trace: Optional[list[OperatorTrace]],
) -> Optional[ExecutionResult]:
    """Re-plan a fault-aborted broadcast strategy as a regular shuffle.

    Returns ``None`` when the strategy has no fallback (the caller then
    reports the abort).  The aborted attempt's charges are carried into the
    fallback run's ``recovery`` phase so total CPU still accounts for the
    wasted work; the fallback itself runs fault-free (the adversity is
    presumed tied to the broadcast shape, e.g. a worker that cannot hold a
    replica).  The fallback starts from a fresh memory budget, so peak
    memory reflects the fallback plan only.
    """
    fallback_name = DEGRADE_FALLBACKS.get(physical.strategy)
    if fallback_name is None:
        return None
    wasted = stats.worker_loads()
    if trace is not None:
        trace[:] = []
    catalog = Catalog(cluster.database)
    fallback_plan = lower(physical.query, fallback_name, catalog)
    result = execute_physical(
        fallback_plan, cluster, runtime=runtime, kernels=kernels, trace=trace
    )
    for worker in sorted(wasted):
        if wasted[worker]:
            result.stats.charge(worker, wasted[worker], RECOVERY_PHASE)
    result.stats.retries = stats.retries
    result.stats.faults_injected = stats.faults_injected
    result.failure_report = replace(
        report, disposition="degraded", fallback=fallback_name
    )
    return result


def execute_physical(
    physical: PhysicalPlan,
    cluster: Cluster,
    runtime: RuntimeLike = None,
    kernels: Optional[str] = None,
    trace: Optional[list[OperatorTrace]] = None,
    faults: FaultsLike = None,
    recovery: PolicyLike = None,
) -> ExecutionResult:
    """Run an already-lowered physical plan on a loaded cluster.

    Resets the cluster's memory budget, executes the plan through the
    scheduler under the requested kernel backend and worker runtime, and
    converts a simulated :class:`~repro.engine.memory.OutOfMemoryError`
    into a FAILed result.  Pass a list as ``trace`` to collect the
    per-operator :class:`~repro.engine.scheduler.OperatorTrace` stream
    (partial on failure).

    ``faults`` (a :class:`~repro.engine.faults.FaultPlan` or its dict form)
    enables deterministic fault injection under the ``recovery`` policy
    (``"retry"``/``"retry:N"``/``"degrade"``/``"fail"`` or a
    :class:`~repro.engine.faults.RecoveryPolicy`).  An unrecovered fault
    yields a FAILed result carrying a structured ``failure_report`` —
    except under ``degrade``, where broadcast plans are transparently
    re-planned as regular shuffles (see :data:`DEGRADE_FALLBACKS`) and the
    result reports success with ``disposition="degraded"``.
    """
    if cluster.database is None:
        raise RuntimeError("cluster has no loaded database; call cluster.load()")
    stats = ExecutionStats(
        query=physical.query.name,
        strategy=physical.strategy,
        workers=cluster.workers,
    )
    plan_faults = resolve_faults(faults)
    session = None
    if plan_faults is not None:
        session = FaultSession(
            plan_faults, resolve_policy(recovery), cluster.workers
        )
    worker_runtime = resolve_runtime(runtime)
    cluster.memory.reset()
    started = time.perf_counter()
    try:
        with use_backend(kernels):
            run = run_plan(
                physical, cluster, stats, worker_runtime,
                trace=trace, faults=session,
            )
        result = ExecutionResult(
            rows=run.rows,
            stats=stats,
            hc_config=run.hc_config,
            variable_order=physical.variable_order,
            plan=physical.left_deep,
            physical=physical,
            trace=trace,
        )
    except OutOfMemoryError as oom:
        stats.mark_failed(str(oom), kind="oom")
        result = ExecutionResult(
            rows=[], stats=stats, physical=physical, trace=trace
        )
    except FaultAbort as abort:
        degraded = None
        if abort.report.policy == "degrade":
            degraded = _degrade(
                abort.report, physical, cluster, stats, runtime, kernels, trace
            )
        if degraded is not None:
            result = degraded
        else:
            stats.mark_failed(abort.report.describe(), kind="fault")
            result = ExecutionResult(
                rows=[], stats=stats, physical=physical, trace=trace,
                failure_report=abort.report,
            )
    result.stats.elapsed_seconds = time.perf_counter() - started
    return result


def execute(
    query: ConjunctiveQuery,
    cluster: Cluster,
    strategy: Strategy,
    catalog: Optional[Catalog] = None,
    hc_config: Optional[HyperCubeConfig] = None,
    variable_order: Optional[Sequence[Variable]] = None,
    plan: Optional[LeftDeepPlan] = None,
    hc_seed: int = 0,
    runtime: RuntimeLike = None,
    kernels: Optional[str] = None,
    trace: Optional[list[OperatorTrace]] = None,
    faults: FaultsLike = None,
    recovery: PolicyLike = None,
) -> ExecutionResult:
    """Run ``query`` on ``cluster`` with the given strategy.

    Lowers the query to a :class:`~repro.planner.physical.PhysicalPlan`
    and executes it via :func:`execute_physical`.  ``runtime`` selects how
    the per-worker local-join phases execute: ``"serial"`` (default),
    ``"parallel"``/``"parallel:N"`` (the driver plus ``N - 1`` forked
    processes; ``"parallel:N:proc"`` is the same runtime), or a
    :class:`~repro.engine.runtime.WorkerRuntime` instance.  ``kernels``
    pins the kernel backend (``"python"``/``"numpy"``) for this execution;
    ``None`` keeps the process-wide default (``REPRO_KERNELS``).  Result
    rows and counted metrics are identical across runtimes and kernel
    backends; only the real ``elapsed_seconds`` depends on them.
    ``faults``/``recovery`` enable deterministic fault injection — see
    :func:`execute_physical`.
    """
    if cluster.database is None:
        raise RuntimeError("cluster has no loaded database; call cluster.load()")
    catalog = catalog or Catalog(cluster.database)
    physical = lower(
        query,
        strategy,
        catalog,
        plan=plan,
        hc_config=hc_config,
        variable_order=variable_order,
        hc_seed=hc_seed,
    )
    return execute_physical(
        physical, cluster, runtime=runtime, kernels=kernels, trace=trace,
        faults=faults, recovery=recovery,
    )
