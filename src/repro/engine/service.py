"""Concurrent multi-query serving runtime.

The paper (Secs. 4-6) evaluates one query at a time on a dedicated
cluster; a production engine serves many simultaneous queries contending
for the same worker pool, memory budget, and plan cache.  This module is
that serving layer.  :class:`QueryService` admits queries from a FIFO
queue, plans them through the shared plan cache
(:data:`~repro.planner.optimizer.GLOBAL_PLAN_CACHE` by default), and
interleaves their execution *Round by Round* on one shared worker runtime
— the seam the operator scheduler has always had
(:class:`~repro.engine.scheduler.PlanExecution`), now multiplexed.

Four cooperating mechanisms:

- **Admission queue** — submitted queries wait in FIFO order; a query is
  admitted when the in-flight count is below ``max_inflight`` *and* the
  memory governor can reserve its demand.  A query whose demand can never
  fit is rejected at submit time (outcome ``rejected``) instead of
  wedging the queue head.
- **Memory governor** (:class:`MemoryGovernor`) — apportions the
  cluster's per-worker tuple budget across admitted queries.  Each
  admitted query executes against a *private*
  :class:`~repro.engine.memory.MemoryBudget` capped at its grant, reusing
  the engine's residency accounting unchanged; the governor blocks
  admission when the budget is exhausted rather than letting concurrent
  queries OOM each other.
- **Fair round-granularity scheduler** — one global *tick* executes one
  Round of the query at the head of the runnable queue, then rotates it
  to the back.  Scheduling state is driven purely by submission order and
  round counts, so a fixed workload replays deterministically; and
  because every query owns its stats, memory budget, cluster, and
  slot state outright, its counted metrics are bit-identical to a solo
  run regardless of what else is in flight.
- **Cancellation and deadlines** — built on the scheduler's
  Round-boundary checkpoint.  ``deadline_ticks`` (logical time) is
  checked before a query's turn and evicts it cleanly at the boundary;
  ``timeout_seconds`` (wall time) is checked after each Round of a query
  that sets it, whose Rounds alone are checkpointed, and a Round that
  finishes past the deadline is *rolled back* through
  :meth:`~repro.engine.scheduler.PlanExecution.rollback` — its results
  cannot be delivered, so its charges and residency are un-done exactly
  like a failed Round attempt — before the query is evicted.  Either way
  eviction releases the query's entire memory residency and returns its
  grant to the governor.

Each submitted query is one record from :meth:`QueryService.submit` to
its end: the request, its memoized plan and demand, its execution while
admitted, and the :class:`QueryOutcome` built at submit and filled in
as it goes (a grant escalation re-queues the same record).  Every query
ends through one method with status ``ok`` / ``failed`` / ``timeout`` /
``cancelled`` / ``rejected``; it releases the grant, empties an
admitted query's private residency, and stores and counts the outcome.
A failed query never stops the drain: whatever one query's planning,
start, Round or finalization raises becomes that query's ``failed``
outcome.  The service aggregates :class:`ServiceStats` (admissions,
outcomes, plan-cache hit rate, peak in-flight and granted memory).

The solo-query path is untouched: :func:`~repro.engine.scheduler.run_plan`
is :class:`~repro.engine.scheduler.PlanExecution` stepped in a loop, so a
service running one query at a time executes the exact code the golden
captures pin down.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..planner.api import _plan
from ..planner.optimizer import AUTO_STRATEGY, GLOBAL_PLAN_CACHE, PlanCache
from ..planner.physical import PhysicalPlan
from ..query.atoms import ConjunctiveQuery, Variable
from ..query.catalog import Catalog
from ..query.parser import parse_query
from ..storage.relation import Database
from .cluster import Cluster
from .kernels import use_backend
from .memory import MemoryBudget, OutOfMemoryError
from .runtime import RuntimeLike, resolve_runtime
from .scheduler import PlanExecution
from .stats import ExecutionStats

__all__ = [
    "MemoryGovernor",
    "QueryOutcome",
    "QueryRequest",
    "QueryService",
    "ServiceStats",
]

_LOG = logging.getLogger(__name__)

#: terminal outcome statuses a query can finish with
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_CANCELLED = "cancelled"
STATUS_REJECTED = "rejected"

#: the :class:`ServiceStats` counter each terminal status increments
_STATUS_COUNTERS = {
    STATUS_OK: "completed",
    STATUS_FAILED: "failed",
    STATUS_TIMEOUT: "timeouts",
    STATUS_CANCELLED: "cancelled",
    STATUS_REJECTED: "rejected",
}


@dataclass
class QueryRequest:
    """One query submitted to the service.

    ``query`` is Datalog rule text or a parsed
    :class:`~repro.query.atoms.ConjunctiveQuery`; ``database`` is the
    (shared) dataset it runs over.  ``strategy`` is any name
    :func:`~repro.planner.api.run_query` accepts — ``"auto"`` (default)
    goes through the cost-based optimizer and the shared plan cache.

    ``memory_demand`` is the per-worker tuple reservation the governor
    holds for this query; ``None`` derives it from the optimizer's
    predicted peak (with headroom) under ``"auto"``, or falls back to an
    equal share of the service budget.  ``deadline_ticks`` bounds how
    many scheduler ticks may elapse after admission before the query is
    evicted (logical, deterministic); ``timeout_seconds`` is the
    wall-clock analogue, checked after every Round.
    """

    query: Union[str, ConjunctiveQuery]
    database: Database
    strategy: str = AUTO_STRATEGY
    workers: int = 16
    memory_demand: Optional[int] = None
    deadline_ticks: Optional[int] = None
    timeout_seconds: Optional[float] = None
    variable_order: Optional[Sequence[Variable]] = None
    #: display label carried into the outcome (defaults to the query name)
    label: str = ""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"QueryRequest.workers must be >= 1, got {self.workers}")
        for name in ("memory_demand", "deadline_ticks", "timeout_seconds"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"QueryRequest.{name} must be >= 0, got {value}")


@dataclass
class QueryOutcome:
    """What one submitted query came to — the service's per-query report."""

    query_id: int
    label: str
    status: str
    #: result rows (``ok`` outcomes only; empty otherwise)
    rows: list = field(default_factory=list)
    #: the query's isolated counted metrics (None when never admitted)
    stats: Optional[ExecutionStats] = None
    #: the executed (or optimizer-chosen) strategy; "" when never planned
    strategy: str = ""
    #: True when the plan came out of the plan cache without re-costing
    cache_hit: bool = False
    submitted_tick: int = 0
    admitted_tick: int = -1
    finished_tick: int = -1
    rounds_completed: int = 0
    #: grant-escalation restarts this query went through before finishing
    retries: int = 0
    #: submit-to-finish latency in wall seconds (the serving latency)
    wall_seconds: float = 0.0
    #: the query's private memory budget (residency is zero once the
    #: query ends; exposed for tests and diagnostics)
    memory: Optional[MemoryBudget] = None
    #: human-readable failure / eviction detail
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Whether the query completed and delivered rows."""
        return self.status == STATUS_OK


@dataclass
class ServiceStats:
    """Aggregate counters across everything the service has processed."""

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    timeouts: int = 0
    cancelled: int = 0
    rejected: int = 0
    #: scheduler ticks consumed (one tick = one query turn)
    ticks: int = 0
    #: Rounds actually executed (rolled-back Rounds still count: they ran)
    rounds_executed: int = 0
    #: Rounds whose effects were rolled back by timeout eviction
    rounds_rolled_back: int = 0
    peak_inflight: int = 0
    #: plan-cache hits/misses for this service's ``auto`` admissions only
    cache_hits: int = 0
    cache_misses: int = 0
    #: queries re-queued with an escalated grant after under-predicted OOM
    oom_retries: int = 0

    def outcome_counts(self) -> dict[str, int]:
        """Terminal statuses to counts (the bench's outcome histogram)."""
        return {
            status: getattr(self, counter)
            for status, counter in _STATUS_COUNTERS.items()
        }


@dataclass
class MemoryGovernor:
    """Apportions the per-worker tuple budget across admitted queries.

    ``total`` is the service-wide per-worker budget (``None`` disables
    governance, as :class:`~repro.engine.memory.MemoryBudget` does).  Each
    admitted query reserves its demand; reservations are released on any
    terminal outcome.  The residency *within* a grant is enforced by the
    query's private budget — the governor only decides whether a new
    query may start holding tuples at all, which converts concurrent
    memory pressure into queueing delay instead of mid-flight OOMs.
    """

    total: Optional[int] = None
    _grants: dict[int, int] = field(default_factory=dict)
    peak_granted: int = 0

    def __post_init__(self) -> None:
        if self.total is not None and self.total < 0:
            raise ValueError(f"the memory budget must be >= 0, got {self.total}")

    @property
    def granted(self) -> int:
        """Per-worker tuples currently reserved across active queries."""
        return sum(self._grants.values())

    def admissible(self, demand: int) -> bool:
        """Whether a demand could *ever* be satisfied (fits an idle budget)."""
        return self.total is None or demand <= self.total

    def try_reserve(self, query_id: int, demand: int) -> bool:
        """Reserve ``demand`` for a query if capacity allows, else refuse."""
        if self.total is not None and self.granted + demand > self.total:
            return False
        self._grants[query_id] = demand
        if self.granted > self.peak_granted:
            self.peak_granted = self.granted
        return True

    def release(self, query_id: int) -> None:
        """Return a query's reservation to the pool (idempotent)."""
        self._grants.pop(query_id, None)

    def grant_of(self, query_id: int) -> Optional[int]:
        """The active reservation of one query (None when not admitted)."""
        return self._grants.get(query_id)


#: safety headroom multiplied onto the optimizer's predicted peak when the
#: caller did not declare a demand (predictions are within ~1.4x measured;
#: 2x keeps an honest under-prediction from tripping the private budget)
DEMAND_HEADROOM = 2.0


@dataclass
class _Query:
    """One submitted query, from :meth:`QueryService.submit` to its outcome.

    The outcome is built at submit and filled in as the query goes: its
    planning is memoized on first consideration (plan once, not per
    tick), and while it is admitted it holds its isolated execution and
    its deadlines.  A grant escalation re-queues the same record.
    """

    request: QueryRequest
    outcome: QueryOutcome
    submitted_at: float
    physical: Optional[PhysicalPlan] = None
    demand: Optional[int] = None
    #: the admitted query's execution (None while queued)
    execution: Optional[PlanExecution] = None
    #: global tick at which the logical deadline expires (None = none)
    deadline_tick: Optional[int] = None
    #: wall-clock deadline from perf_counter (None = none)
    deadline_time: Optional[float] = None
    cancelled: bool = False

    @property
    def query_id(self) -> int:
        """The id :meth:`QueryService.submit` returned for this query."""
        return self.outcome.query_id


class QueryService:
    """Admit, schedule, and complete many concurrent queries.

    One service owns: a worker runtime shared by every query, a memory
    governor over ``memory_tuples`` per-worker tuples, a plan cache
    (shared :data:`~repro.planner.optimizer.GLOBAL_PLAN_CACHE` unless a
    private one is passed), and one statistics catalog per database.

    Drive it either with :meth:`run_until_complete` (drain everything) or
    tick by tick with :meth:`step` — the latter is what tests and the
    traffic bench use to interleave submissions with execution.  The
    service is single-threaded and cooperative: determinism comes from
    the tick loop, isolation from per-query state ownership, and
    parallelism from the worker runtime *within* each Round (exactly as
    in solo execution).
    """

    def __init__(
        self,
        runtime: RuntimeLike = None,
        kernels: Optional[str] = None,
        max_inflight: int = 8,
        memory_tuples: Optional[int] = None,
        plan_cache: Optional[PlanCache] = GLOBAL_PLAN_CACHE,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("the service needs max_inflight >= 1")
        self.runtime = resolve_runtime(runtime)
        self.kernels = kernels
        self.max_inflight = max_inflight
        self.governor = MemoryGovernor(total=memory_tuples)
        self.plan_cache = plan_cache
        self.stats = ServiceStats()
        self.outcomes: dict[int, QueryOutcome] = {}
        self._queue: deque[_Query] = deque()
        self._runnable: deque[_Query] = deque()
        self._next_id = 0
        self._tick = 0
        self._catalogs: dict[int, tuple[Database, Catalog]] = {}

    # -- submission ----------------------------------------------------------

    def submit(self, request: QueryRequest) -> int:
        """Queue one query; return its id (outcomes are keyed on it).

        A request whose *declared* memory demand exceeds the governor's
        total budget can never be admitted and is rejected immediately;
        derived demands (from the optimizer's prediction) are checked when
        the query reaches the head of the queue, with the same
        ``rejected`` outcome.  The id is returned either way.
        """
        outcome = QueryOutcome(
            query_id=self._next_id, label="", status="", submitted_tick=self._tick
        )
        query = _Query(request, outcome, time.perf_counter())
        self._next_id += 1
        self.stats.submitted += 1
        if request.memory_demand is not None and not self.governor.admissible(
            request.memory_demand
        ):
            self._reject(query, request.memory_demand)
        else:
            self._queue.append(query)
        return query.query_id

    def cancel(self, query_id: int) -> bool:
        """Request cooperative cancellation of a queued or in-flight query.

        Queued queries are removed immediately; in-flight queries are
        evicted at their next scheduler turn (a Round in progress is never
        interrupted — Rounds are the atomic unit).  Returns ``False`` when
        the id is unknown or already finished.
        """
        for query in (*self._queue, *self._runnable):
            if query.query_id != query_id:
                continue
            if query.execution is None:
                self._queue.remove(query)
                self._end(query, STATUS_CANCELLED, "cancelled while queued")
            else:
                query.cancelled = True
            return True
        return False

    # -- the scheduler loop --------------------------------------------------

    def step(self) -> bool:
        """One scheduler tick: admit what fits, run one Round of one query.

        Returns ``True`` while queries remain queued or in flight.
        """
        self._admit()
        if not self._runnable:
            return bool(self._queue)
        query = self._runnable.popleft()
        tick = self._tick
        self._tick += 1
        self.stats.ticks += 1
        with use_backend(self.kernels):
            self._turn(query, tick)
        return bool(self._queue or self._runnable)

    def _turn(self, query: _Query, tick: int) -> None:
        """One query's turn: evict it, or run its next Round and rotate it.

        The query ends here when it was cancelled, its logical deadline
        has passed, its Round or finalization raised, a Round outran its
        wall-clock deadline (that Round is rolled back first) or its last
        Round completed; an OOM under a derived grant re-queues it instead.
        """
        execution = query.execution
        if query.cancelled:
            self._end(query, STATUS_CANCELLED, "cancelled by caller")
            return
        if query.deadline_tick is not None and tick >= query.deadline_tick:
            self._end(
                query,
                STATUS_TIMEOUT,
                f"logical deadline expired at tick {query.deadline_tick}",
            )
            return
        # only a wall-clock timeout can roll the Round back
        checkpoint = None if query.deadline_time is None else execution.checkpoint()
        try:
            execution.step()
        except OutOfMemoryError as oom:
            if self._grant_escalatable(query):
                self._requeue_escalated(query)
            else:
                execution.stats.mark_failed(str(oom), kind="oom")
                self._end(query, STATUS_FAILED, str(oom))
            return
        except Exception as error:
            self._fail(query, error)
            return
        self.stats.rounds_executed += 1
        query.outcome.rounds_completed = execution.rounds_done
        if (
            query.deadline_time is not None
            and time.perf_counter() > query.deadline_time
            and not execution.finished
        ):
            # the Round outran the wall-clock deadline: its results cannot
            # be delivered, so un-do it at the boundary like a failed
            # attempt, then evict
            execution.rollback(checkpoint)
            self.stats.rounds_rolled_back += 1
            query.outcome.rounds_completed = execution.rounds_done
            self._end(
                query,
                STATUS_TIMEOUT,
                f"wall-clock timeout after {query.request.timeout_seconds}s; "
                "last round rolled back",
            )
        elif execution.finished:
            try:
                query.outcome.rows = execution.finalize().rows
            except Exception as error:
                self._fail(query, error)
            else:
                self._end(query, STATUS_OK)
        else:
            self._runnable.append(query)

    def run_until_complete(self) -> list[QueryOutcome]:
        """Drain the service: tick until no query is queued or in flight.

        Returns every outcome recorded so far, in query-id order.
        """
        while self.step():
            pass
        return [self.outcomes[key] for key in sorted(self.outcomes)]

    def open(self) -> None:
        """Start the runtime's workers now rather than in the first Round
        (a process runtime forks its pool here; it outlives the drain)."""
        self.runtime.open_session()

    def close(self) -> None:
        """Stop the runtime's workers; the next Round starts them again."""
        self.runtime.close_session()

    @property
    def inflight(self) -> int:
        """How many queries are currently admitted and runnable."""
        return len(self._runnable)

    @property
    def queued(self) -> int:
        """How many queries are waiting for admission."""
        return len(self._queue)

    # -- admission internals -------------------------------------------------

    def _admit(self) -> None:
        """Admit queued queries in FIFO order while capacity allows.

        Each candidate is planned once (memoized on its record), its
        demand derived, and its reservation attempted.  Admission stops at
        the first query that does not *currently* fit — strict FIFO: later,
        smaller queries never jump a blocked head, trading maximal packing
        for predictable latency ordering.  A head that could *never* fit
        (demand above the whole budget), fails to plan or fails to start
        is removed with a terminal outcome instead of wedging the queue.
        """
        while self._queue and len(self._runnable) < self.max_inflight:
            query = self._queue[0]
            if query.physical is None:
                try:
                    self._prepare(query)
                except Exception as error:
                    self._queue.popleft()
                    self._end(query, STATUS_FAILED, f"planning failed: {error}")
                    continue
            if not self.governor.admissible(query.demand):
                self._queue.popleft()
                self._reject(query, query.demand)
                continue
            if not self.governor.try_reserve(query.query_id, query.demand):
                break
            self._queue.popleft()
            try:
                self._start(query)
            except Exception as error:
                self._fail(query, error)
                continue
            self._runnable.append(query)
            self.stats.admitted += 1
            if len(self._runnable) > self.stats.peak_inflight:
                self.stats.peak_inflight = len(self._runnable)

    def _prepare(self, query: _Query) -> None:
        """Plan a queued query and derive its memory demand (memoized).

        ``auto`` requests go through the plan cache (hit/miss counted once
        per admission here); explicit strategies lower directly.  The
        optimizer is invoked with an *unlimited* memory budget: at serving
        time the governor owns memory, and grants vary with load, so
        baking a grant into the plan-cache key would shatter the cache.
        """
        request = query.request
        query.physical, report, query.outcome.cache_hit = _plan(
            self._parse(request),
            request.strategy,
            self._catalog(request.database),
            workers=request.workers,
            memory_tuples=None,
            variable_order=request.variable_order,
            cache=self.plan_cache,
        )
        predicted = None
        if report is not None:
            if query.outcome.cache_hit:
                self.stats.cache_hits += 1
            else:
                self.stats.cache_misses += 1
            predicted = report.cost_of(report.choice).peak_memory
        query.demand = self._demand(request, predicted)

    def _demand(
        self, request: QueryRequest, predicted_peak: Optional[float]
    ) -> int:
        """The per-worker tuple reservation admission holds for a request.

        Explicit ``memory_demand`` wins; otherwise the optimizer's
        predicted peak for the chosen strategy (times
        :data:`DEMAND_HEADROOM`, capped at the total so the biggest query
        can still run alone); without a prediction, an equal
        ``total / max_inflight`` share.  With no governed budget the
        demand is 0 — admission is limited by ``max_inflight`` alone.
        """
        if self.governor.total is None:
            return 0
        if request.memory_demand is not None:
            return request.memory_demand
        if predicted_peak is not None and predicted_peak == predicted_peak:
            demand = int(predicted_peak * DEMAND_HEADROOM) + 1
            return min(demand, self.governor.total)
        return max(1, self.governor.total // self.max_inflight)

    def _start(self, query: _Query) -> None:
        """Stand up one admitted query's isolated execution state.

        Everything that can raise runs before the record changes, so a
        query whose start fails ends as one that was never admitted.
        """
        request = query.request
        budget = MemoryBudget(
            per_worker_tuples=self.governor.grant_of(query.query_id)
            if self.governor.total is not None
            else None
        )
        cluster = Cluster(request.workers, budget)
        cluster.load(request.database)
        stats = ExecutionStats(
            query=self._parse(request).name,
            strategy=query.physical.strategy,
            workers=cluster.workers,
        )
        query.execution = PlanExecution(
            query.physical, cluster, stats, self.runtime
        )
        outcome = query.outcome
        outcome.stats, outcome.memory = stats, budget
        outcome.strategy = query.physical.strategy
        outcome.admitted_tick = self._tick
        outcome.rounds_completed = 0
        if request.deadline_ticks is not None:
            query.deadline_tick = self._tick + request.deadline_ticks
        if request.timeout_seconds is not None:
            query.deadline_time = query.submitted_at + request.timeout_seconds

    # -- the one end ---------------------------------------------------------

    def _end(self, query: _Query, status: str, detail: str = "") -> None:
        """Record a query's terminal outcome — the one place any query ends.

        An admitted query's private residency is released (peaks are
        kept) and its submit-to-finish latency recorded; every query's
        grant returns to the governor, and its outcome is stored and
        counted under its status.
        """
        outcome = query.outcome
        if query.execution is not None:
            query.execution.release_residency()
            outcome.wall_seconds = time.perf_counter() - query.submitted_at
            outcome.stats.elapsed_seconds = outcome.wall_seconds
        self.governor.release(query.query_id)
        outcome.label = _label(query.request)
        outcome.status = status
        outcome.detail = detail
        outcome.finished_tick = self._tick
        self.outcomes[query.query_id] = outcome
        counter = _STATUS_COUNTERS[status]
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def _reject(self, query: _Query, demand: int) -> None:
        """End a query whose demand can never fit the service budget."""
        self._end(
            query,
            STATUS_REJECTED,
            f"memory demand {demand:,} tuples/worker exceeds the "
            f"service budget {self.governor.total:,}",
        )

    def _fail(self, query: _Query, error: Exception) -> None:
        """Contain one tenant's unexpected exception as its own outcome.

        Whatever a query's start, Round or finalization raises belongs to
        that query: it ends as ``failed`` (traceback logged, residency and
        grant released) and the drain goes on for everyone else.
        """
        _LOG.error(
            "query %d (%s) failed", query.query_id, _label(query.request),
            exc_info=error,
        )
        detail = f"{type(error).__name__}: {error}"
        if query.execution is not None:
            query.execution.stats.mark_failed(detail, kind="error")
        self._end(query, STATUS_FAILED, detail)

    def _grant_escalatable(self, query: _Query) -> bool:
        """Whether an OOM under a *derived* grant can retry with a bigger one.

        The optimizer's predicted peak (plus headroom) occasionally
        under-estimates a real plan's working set; failing the query for
        our own mis-prediction would be wrong.  Escalation applies only
        when the demand was derived — an explicit ``memory_demand`` is the
        caller's declared cap and is honoured as a hard limit — and only
        while the grant is still below the whole budget.
        """
        grant = self.governor.grant_of(query.query_id)
        return (
            self.governor.total is not None
            and query.request.memory_demand is None
            and grant is not None
            and grant < self.governor.total
        )

    def _requeue_escalated(self, query: _Query) -> None:
        """Evict an under-granted query and re-queue it with double the grant.

        The fresh attempt restarts from scratch with new isolated state
        (stats, budget, cluster), so its counted metrics — when it
        eventually completes — are exactly a solo run's.  It re-enters at
        the queue *head*: it was admitted earliest, and strict FIFO should
        keep it earliest.  A logical deadline restarts on re-admission.
        """
        grant = self.governor.grant_of(query.query_id) or 0
        query.execution.release_residency()
        self.governor.release(query.query_id)
        self.stats.oom_retries += 1
        query.outcome.retries += 1
        query.demand = min(max(grant * 2, grant + 1), self.governor.total)
        query.execution = query.deadline_tick = query.deadline_time = None
        self._queue.appendleft(query)

    # -- shared-state caches -------------------------------------------------

    def _parse(self, request: QueryRequest) -> ConjunctiveQuery:
        """The request's parsed query (parse text lazily, exactly once)."""
        if isinstance(request.query, ConjunctiveQuery):
            return request.query
        request.query = parse_query(request.query)
        return request.query

    def _catalog(self, database: Database) -> Catalog:
        """One shared :class:`Catalog` per database (statistics memoize)."""
        entry = self._catalogs.get(id(database))
        if entry is None or entry[0] is not database:
            entry = (database, Catalog(database))
            self._catalogs[id(database)] = entry
        return entry[1]


def _label(request: QueryRequest) -> str:
    """A request's display label: its own, else the parsed query's name."""
    if request.label:
        return request.label
    if isinstance(request.query, ConjunctiveQuery):
        return request.query.name or "query"
    return "query"
