"""Top-level convenience API.

>>> from repro import run_query, twitter_database
>>> db = twitter_database(nodes=500, edges=2000)
>>> result = run_query(
...     "T(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z), T:Twitter(z,x).",
...     db, strategy="HC_TJ", workers=8)
>>> result.stats.tuples_shuffled > 0
True
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..engine.cluster import Cluster
from ..engine.faults import FaultsLike, PolicyLike
from ..engine.memory import MemoryBudget
from ..engine.runtime import RuntimeLike
from ..query.atoms import ConjunctiveQuery, Variable
from ..query.catalog import Catalog
from ..query.parser import parse_query
from ..storage.relation import Database
from .executor import ExecutionResult, execute_physical
from .optimizer import (
    AUTO_STRATEGY,
    GLOBAL_PLAN_CACHE,
    CostReport,
    PlanCache,
    optimize,
)
from .physical import PhysicalPlan, lower
from .plans import Strategy

QueryLike = Union[str, ConjunctiveQuery]


def _as_query(query: QueryLike) -> ConjunctiveQuery:
    if isinstance(query, ConjunctiveQuery):
        return query
    return parse_query(query)


def _check_relations(query: ConjunctiveQuery, database: Database) -> None:
    """Reject a query that names a relation ``database`` does not hold: bad
    input, a :class:`ValueError` like every other (the CLI exits 2)."""
    for atom in query.atoms:
        if atom.relation not in database:
            raise ValueError(
                f"unknown relation {atom.relation!r}; "
                f"known: {sorted(database.relations())}"
            )


def _plan(
    query: ConjunctiveQuery,
    strategy: Union[str, Strategy],
    catalog: Catalog,
    workers: int = 64,
    memory_tuples: Optional[int] = None,
    variable_order: Optional[Sequence[Variable]] = None,
    cache: Optional[PlanCache] = GLOBAL_PLAN_CACHE,
) -> tuple[PhysicalPlan, Optional[CostReport], bool]:
    """The one planning dispatch: any strategy spelling to a lowered plan.

    ``"auto"`` goes through the cost-based optimizer and ``cache``; every
    other spelling :func:`~repro.planner.physical.lower` accepts is lowered
    directly.  Returns the plan, the optimizer's cost report (``None`` for
    an explicit strategy) and whether the plan cache answered.  A query
    naming a relation the catalog's database lacks raises
    :class:`ValueError`.
    """
    _check_relations(query, catalog.database)
    if strategy == AUTO_STRATEGY:
        optimized = optimize(
            query, catalog, workers=workers, memory_tuples=memory_tuples,
            variable_order=variable_order, cache=cache,
        )
        return optimized.physical, optimized.report, optimized.cache_hit
    physical = lower(query, strategy, catalog, variable_order=variable_order)
    return physical, None, False


def make_cluster(
    database: Database,
    workers: int = 64,
    memory_tuples: Optional[int] = None,
) -> Cluster:
    """Build and load a cluster over a database."""
    cluster = Cluster(workers, MemoryBudget(per_worker_tuples=memory_tuples))
    cluster.load(database)
    return cluster


def run_query(
    query: QueryLike,
    database: Database,
    strategy: Union[str, Strategy] = "HC_TJ",
    workers: int = 64,
    memory_tuples: Optional[int] = None,
    variable_order: Optional[Sequence[Variable]] = None,
    runtime: RuntimeLike = None,
    kernels: Optional[str] = None,
    faults: FaultsLike = None,
    recovery: PolicyLike = None,
) -> ExecutionResult:
    """Parse (if needed), plan, and execute a query on a fresh cluster.

    ``strategy`` is one of RS_HJ, RS_TJ, BR_HJ, BR_TJ, HC_HJ, HC_TJ,
    ``"SJ_HJ"`` for the semijoin-reduction plan on acyclic queries,
    ``"HYBRID"`` for the multi-stage binary+WCOJ plan
    (:mod:`~repro.planner.decompose`; the query needs at least four
    atoms), or ``"auto"`` to let the cost-based optimizer
    (:mod:`~repro.planner.optimizer`) pick the cheapest strategy — pure
    or hybrid — from catalog statistics; the result then carries the
    per-strategy cost table as ``result.cost_report``.
    ``runtime`` is ``"serial"`` (default), ``"parallel[:N]"`` (threads),
    ``"parallel:N:proc"`` (forked worker processes — the mode with real
    multicore speedup), or a
    :class:`~repro.engine.runtime.WorkerRuntime` instance.  ``kernels``
    pins the kernel backend (``"python"``/``"numpy"``) for this call;
    ``None`` keeps the process default (``REPRO_KERNELS``).
    ``faults``/``recovery`` enable deterministic fault injection — see
    :func:`~repro.planner.executor.execute_physical`.
    """
    cluster = make_cluster(database, workers=workers, memory_tuples=memory_tuples)
    physical, cost_report, _ = _plan(
        _as_query(query), strategy, Catalog(database),
        workers=workers, memory_tuples=memory_tuples,
        variable_order=variable_order,
    )
    result = execute_physical(
        physical, cluster, runtime=runtime, kernels=kernels,
        faults=faults, recovery=recovery,
    )
    result.cost_report = cost_report
    return result
