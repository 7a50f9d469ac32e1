"""The operator scheduler: one interpreter for every physical plan.

Where :mod:`~repro.planner.physical` makes the paper's strategies *data*,
this module makes their execution *one* loop: walk a
:class:`~repro.planner.physical.PhysicalPlan` round by round, run each
round's global operators (scans, exchanges, configuration) on the driver,
then fuse the round's local operators into a single worker task dispatched
through the pluggable worker runtime (:mod:`~repro.engine.runtime`).  Each
worker task charges an isolated :class:`~repro.engine.runtime.WorkerLedger`
merged back in worker-id order, so serial and parallel runtimes produce
identical counted metrics.

The scheduler *reads* the plan: everything statically knowable — join
variables, output schemas, sort orders, phase names, which slots an operator
reads and binds, which outputs their producer routes for the next Round's
regular exchange — was decided at lowering time and is stored on the
operators, so nothing here is derived a second time.  Its metric stream is
pinned byte-for-byte by the differential suite against golden seed-executor
captures: the shuffle record order, the phase insertion order, the memory
registration/release points (scans register residency, exchanges stream
their input out before receive buffers fill, joins release consumed inputs
and filter-dropped rows), and the
:class:`~repro.engine.memory.OutOfMemoryError` propagation.

Alongside execution the scheduler appends one :class:`OperatorTrace` per
operator into a caller-supplied list, by one rule: once an operator has
bound its slots, ``tuples_in`` / ``tuples_out`` are the sizes of the slots
its ``input_slots()`` / ``output_slots()`` name; only an exchange adds
anything (the index of its shuffle record, or that it was skipped as the
anchor).  Traces are appended as operators complete, so a failed (OOM) run
leaves a truthful partial trace; the EXPLAIN ANALYZE layer
(:mod:`~repro.planner.explain`) joins traces with
:class:`~repro.engine.stats.ExecutionStats` phases to annotate the plan.

Fault injection and recovery (:mod:`~repro.engine.faults`) hook in at the
Round barrier: under a fault session every Round is checkpointed (stats
charges, shuffle records, memory residency, driver state, trace length)
before it runs; when an :class:`~repro.engine.faults.InjectedFault` fires
mid-Round, the checkpoint is rolled back and the Round is re-run from
surviving lineage — prior slots are untouched and scan rounds re-read the
cluster's durable fragments — with the wasted attempt's work re-charged
into the ``recovery`` stats phase.  With no fault session the hooks are
never consulted and execution is bit-identical to the fault-free captures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

from .faults import FaultAbort, FaultSession, FailureReport, InjectedFault

from ..hypercube.config import HyperCubeConfig, optimize_config
from ..hypercube.mapping import HyperCubeMapping
from . import kernels
from .cluster import Cluster
from .frame import Frame, Routing, atom_frames
from .hash_join import apply_comparisons, hash_join_frames, semijoin
from .local import LocalJoinTask, local_tributary_joins
from .runtime import WorkerLedger, WorkerRuntime
from .shuffle import broadcast, hypercube_shuffle, regular_shuffle
from .stats import ExecutionStats, StatsCheckpoint, recovery_phase

__all__ = [
    "OperatorTrace",
    "PlanExecution",
    "ScheduledRun",
    "run_plan",
]


@dataclass
class OperatorTrace:
    """What one operator actually did, recorded as the scheduler ran it.

    ``tuples_in``/``tuples_out`` are summed over workers; ``shuffle_index``
    points into ``ExecutionStats.shuffles`` for exchanges; ``skipped`` marks
    broadcast exchanges elided because their input is the anchor."""

    round_index: int
    op_index: int
    op: "PhysicalOp"
    tuples_in: int = 0
    tuples_out: int = 0
    shuffle_index: Optional[int] = None
    skipped: bool = False


@dataclass
class ScheduledRun:
    """Everything a plan execution produced beyond the stats it filled in."""

    rows: list
    hc_config: Optional[HyperCubeConfig] = None
    anchor: Optional[str] = None
    trace: Optional[list[OperatorTrace]] = None


def _run_join_op(op: PhysicalOp, views: list) -> tuple[int, Optional[Exception]]:
    """Run one Tributary-join operator for a batch of workers.

    ``views`` are ``(worker, ledger, read, write)`` in worker-id order.  The
    workers share trie walks (:func:`~.local.local_tributary_joins`) but are
    accounted one by one.  Returns ``(workers completed, error)``: when a
    worker fails, the ones before it have written their output and
    ``error`` is the failing worker's exception.
    """
    sort_phase, join_phase = op.phases[:2]
    inputs = [
        {alias: read(slot) for alias, slot in op.inputs} for _, _, read, _ in views
    ]
    results, error = local_tributary_joins(
        op.query,
        [
            LocalJoinTask(worker, frames, ledger.stats, ledger.memory)
            for (worker, ledger, _, _), frames in zip(views, inputs)
        ],
        order=op.order,
        sort_phase=sort_phase,
        join_phase=join_phase,
    )
    for index, ((worker, ledger, _, write), frames, rows) in enumerate(
        zip(views, inputs, results)
    ):
        consumed = sum(len(frame) for frame in frames.values())
        try:
            _finish_join(
                op, worker, ledger, Frame(op.query.head, rows), consumed, write
            )
        except Exception as raised:
            return index, raised
    return len(results), error


def _finish_join(
    op: PhysicalOp,
    worker: int,
    ledger: WorkerLedger,
    out: Frame,
    consumed: int,
    write,
) -> None:
    """The tail every local join shares: filter the pending comparisons,
    release what left worker memory, bind the output — routed, when one
    regular exchange alone reads it (:func:`_bind`)."""
    produced = len(out.rows)
    if op.pending:
        # every worker filters against the full pending list; the deferred
        # remainder is statically known and the same for all of them
        out, _ = apply_comparisons(
            out, list(op.pending), worker, ledger.stats, f"step{op.step}:filter"
        )
    # consumed inputs and filter-dropped rows leave worker memory
    dropped = produced - len(out.rows)
    if dropped:
        ledger.memory.release(worker, dropped)
    if consumed:
        ledger.memory.release(worker, consumed)
    write(op.out, out)


def _run_local_op(
    op: PhysicalOp,
    worker: int,
    ledger: WorkerLedger,
    read,
    write,
) -> None:
    """Execute one non-Tributary local operator against a worker's slot
    views (the Tributary joins run batch-wide: :func:`_run_join_op`)."""
    if isinstance(op, LocalHashJoin):
        left, right = read(op.left), read(op.right)
        out = hash_join_frames(
            left,
            right,
            op.columns,
            op.out_variables,
            worker,
            ledger.stats,
            f"step{op.step}:join",
            ledger.memory,
        )
        _finish_join(op, worker, ledger, out, len(left) + len(right), write)
    elif isinstance(op, SemiJoinFilter):
        target, keys = read(op.target), read(op.keys)
        kept, distinct = semijoin(target, keys, op.key_indices)
        ledger.stats.charge(worker, len(target) + distinct, op.phase)
        # the key buffer and the filtered-out target rows leave memory
        released = len(keys) + (len(target) - len(kept))
        if released:
            ledger.memory.release(worker, released)
        write(op.out, kept)
    else:  # pragma: no cover - lowering only emits the ops above
        raise TypeError(f"unknown local operator {op!r}")


def _bind(
    outputs: dict, routes: dict, workers: int, name: str, frame: Frame
) -> None:
    """Bind ``frame`` to slot ``name`` of one task's outputs.  A slot that
    one regular exchange alone reads (``routes`` maps it to that
    exchange's key) is routed for it first, on this executor and while the
    operator's output is still hot: hashed on the key into ``workers``
    destinations, its rows stably in destination order plus the cuts of
    each destination's run (:class:`~repro.engine.frame.Routing`)."""
    key = routes.get(name)
    if key:
        rows, cuts = kernels.route_rows(frame.rows, frame.indices_of(key), workers)
        frame = Frame(frame.variables, rows, Routing(key, workers, tuple(cuts)))
    outputs[name] = frame


def _each_view(step, views: list) -> tuple[int, Optional[Exception]]:
    """Call ``step(worker, ledger, read, write)`` view by view; ``(views
    completed, error)`` like :func:`_run_join_op`."""
    for index, view in enumerate(views):
        try:
            step(*view)
        except Exception as raised:
            return index, raised
    return len(views), None


def _run_local_batch(
    tasks: list, ops=(), hooks: Optional[tuple] = None, workers: int = 0
) -> list:
    """Run one round's fused local operators for a batch of workers.

    The structured (picklable) local runner every runtime dispatches:
    ``tasks`` are ``(worker, ledger, inputs)`` in worker-id order, ``inputs``
    mapping slot names to that worker's shipped payloads, so a persistent
    process-pool child needs no live driver state.  Operators run one after
    another over the whole batch — which is what lets the Tributary joins of
    a batch share trie walks — while each worker's ledger still sees its own
    operators in plan order.

    ``workers`` is the cluster size, which an operator's output is routed
    for when its ``route`` names the regular exchange that alone reads it
    (:func:`_bind`; numpy kernels only — under python kernels that exchange
    partitions the concatenation, as the reference does).

    ``hooks`` is ``(fault session, round index, round label, attempt)`` on a
    fault-injected run: the session's worker hooks fire here, on whichever
    executor runs the batch — at each task's start (which also slows a
    straggler's ledger) and per surviving worker after each operator.

    Returns ``(produced slots | None, error | None)`` per task up to and
    including the first failing worker — out of memory or hit by an injected
    fault alike; later workers are abandoned, as no runtime commits past the
    lowest failing id.
    """
    faults, round_index, label, attempt = hooks or (None,) * 4
    routes = {}
    if kernels.get_backend() == "numpy":
        routes = {op.out: op.route for op in ops if op.route}
    produced: list[dict[str, Frame]] = [{} for _ in tasks]
    views = []
    failure: Optional[Exception] = None

    def stop_at(done: int, error: Optional[Exception]) -> None:
        """Keep the ``done`` views before a failing worker; note its error."""
        nonlocal views, failure
        if error is not None:
            views, failure = views[:done], error

    def fire(hook, *args) -> None:
        """Consult a worker hook of the fault session, view by view."""
        stop_at(*_each_view(
            lambda worker, *_: hook(round_index, label, attempt, worker, *args),
            views,
        ))

    for (worker, ledger, inputs), outputs in zip(tasks, produced):
        if faults is not None:
            ledger = faults.wrap_ledger(round_index, label, ledger)

        def read(name: str, inputs=inputs, outputs=outputs) -> Frame:
            """Resolve a slot: this task's output, else a shipped input."""
            return outputs[name] if name in outputs else inputs[name]

        views.append((worker, ledger, read, partial(_bind, outputs, routes, workers)))
    if faults is not None:
        fire(faults.at_worker)
    for op in ops:
        if not views:
            break
        if isinstance(op, (LocalTributaryJoin, MergeJoinStep)):
            stop_at(*_run_join_op(op, views))
        else:
            stop_at(*_each_view(partial(_run_local_op, op), views))
        if faults is not None:
            fire(faults.after_local_op, op)
    outcomes = [(outputs, None) for outputs in produced[: len(views)]]
    if failure is not None:
        outcomes.append((None, failure))
    return outcomes


def _scanned_sizes(slots: dict, aliases) -> dict[str, int]:
    """Exact post-selection cardinality per atom alias."""
    return {
        alias: max(1, sum(len(f) for f in slots[alias]))
        for alias in aliases
    }


@dataclass
class _ExecState:
    """The mutable driver-side bindings a plan execution accumulates.

    ``slots`` maps slot names to per-worker payloads; the remaining fields
    are the run-time decisions (HyperCube configuration and mapping, the
    broadcast anchor) bound by the data-driven global operators.  Grouped in
    one object so a checkpoint can snapshot and restore everything a Round
    may have written.
    """

    slots: dict[str, list[Frame]] = field(default_factory=dict)
    hc_config: Optional[HyperCubeConfig] = None
    mapping: Optional[HyperCubeMapping] = None
    anchor: Optional[str] = None


@dataclass(frozen=True)
class _RoundCheckpoint:
    """Everything needed to roll an execution back to a Round boundary.

    Slot payloads are never mutated in place by operators (every operator
    writes fresh frames), so the state snapshot copies only the slot map;
    the stats and residency snapshots restore the accounting, and the
    trace length truncates the rolled-back Rounds' trace entries.
    """

    round_index: int
    state: _ExecState
    stats: StatsCheckpoint
    residency: dict[int, int]
    trace_length: int


class PlanExecution:
    """Round-granularity execution of one physical plan.

    The scheduler has always executed plans Round by Round;
    :func:`run_plan` drives all rounds to completion in one call.  This
    class exposes the same loop as a *stepper*: :meth:`step` runs exactly
    one Round, :meth:`finalize` performs the union/project/de-duplicate
    tail once every Round has run, and :meth:`checkpoint` /
    :meth:`rollback` are the one Round-boundary snapshot that both the
    fault retry loop in :meth:`step` and the serving layer's timeout
    eviction use.  The concurrent serving layer
    (:mod:`~repro.engine.service`) interleaves :meth:`step` calls from
    many queries onto one shared worker runtime; a single query stepped to
    completion is bit-identical to :func:`run_plan` by construction
    (:func:`run_plan` *is* this class stepped in a loop).  An execution
    owns no worker-runtime state: it only starts the runtime's workers
    before its first Round builds a frame — a pool forked later would keep
    a private copy of those frames for life — and the pool outlives it.
    """

    def __init__(
        self,
        plan: PhysicalPlan,
        cluster: Cluster,
        stats: ExecutionStats,
        runtime: WorkerRuntime,
        trace: Optional[list[OperatorTrace]] = None,
        faults: Optional[FaultSession] = None,
    ) -> None:
        self.plan = plan
        self.cluster = cluster
        self.stats = stats
        self.runtime = runtime
        self.trace = trace
        self.faults = faults
        self._state = _ExecState()
        self._next_round = 0
        runtime.open_session()

    @property
    def rounds_total(self) -> int:
        """How many Rounds the plan has."""
        return len(self.plan.rounds)

    @property
    def rounds_done(self) -> int:
        """How many Rounds have completed (the cursor position)."""
        return self._next_round

    @property
    def finished(self) -> bool:
        """Whether every Round has run (ready to :meth:`finalize`)."""
        return self._next_round >= len(self.plan.rounds)

    def checkpoint(self) -> _RoundCheckpoint:
        """Snapshot the current Round boundary: the round cursor, the driver
        state, stats charges and shuffle records, residency, trace length."""
        return _RoundCheckpoint(
            round_index=self._next_round,
            state=replace(self._state, slots=dict(self._state.slots)),
            stats=self.stats.checkpoint(),
            residency=self.cluster.memory.checkpoint_residency(),
            trace_length=0 if self.trace is None else len(self.trace),
        )

    def rollback(self, checkpoint: _RoundCheckpoint) -> dict[int, float]:
        """Restore a boundary snapshot; return per-worker discarded charges.

        Charges and shuffle records made since the checkpoint are removed
        (and returned, per worker), memory residency is restored, slot
        bindings and run-time decisions revert, the trace is truncated and
        the round cursor moves back.  Peak-memory high-water marks survive
        — the rolled-back work really did hold those tuples.
        """
        wasted = self.stats.rollback(checkpoint.stats)
        self.cluster.memory.restore_residency(checkpoint.residency)
        self._state = replace(checkpoint.state, slots=dict(checkpoint.state.slots))
        if self.trace is not None:
            del self.trace[checkpoint.trace_length:]
        self._next_round = checkpoint.round_index
        return wasted

    def step(self) -> bool:
        """Run the next Round; return ``True`` while Rounds remain after it.

        Under a fault session every Round runs in this one retry loop: its
        boundary is captured with :meth:`checkpoint`; when an
        :class:`~repro.engine.faults.InjectedFault` fires, :meth:`rollback`
        un-does the attempt and — under the ``retry`` policy, while
        attempts remain — the Round re-runs from surviving lineage, with the
        wasted attempt's per-worker charges plus exponential backoff
        re-charged into the ``recovery`` stats phase.  Exhausted retries (or
        the ``degrade``/``fail`` policies) raise
        :class:`~repro.engine.faults.FaultAbort` with a structured report;
        the aborted attempt's partial charges and trace are kept, mirroring
        the genuine-OOM contract.  A Round that no fault targets never
        raises, so its checkpoint goes unused; without a session nothing is
        checkpointed.  :class:`~repro.engine.memory.OutOfMemoryError` is
        never caught here: it propagates with ``stats`` and ``trace``
        reflecting the partial execution.
        """
        if self.finished:
            raise RuntimeError("plan has no rounds left to step")
        round_ = self.plan.rounds[self._next_round]
        attempt = 0
        while True:
            checkpoint = None if self.faults is None else self.checkpoint()
            try:
                self._run_round(round_, attempt)
                break
            except InjectedFault as fault:
                self.stats.faults_injected += 1
                policy = self.faults.policy
                if policy.mode != "retry" or attempt >= policy.max_retries:
                    raise FaultAbort(
                        FailureReport(
                            kind=fault.spec.kind,
                            worker=fault.worker,
                            round_index=self._next_round,
                            round_label=round_.label,
                            phase=fault.phase,
                            attempts_used=attempt + 1,
                            policy=policy.mode,
                            lineage=round_.consumed_slots(),
                        )
                    ) from fault
                phase = recovery_phase(round_.stage)
                wasted = self.rollback(checkpoint)
                for worker in sorted(wasted):
                    if wasted[worker]:
                        self.stats.charge(worker, wasted[worker], phase)
                backoff = policy.backoff_units * (2 ** attempt)
                if backoff and fault.worker is not None:
                    self.stats.charge(fault.worker, backoff, phase)
                self.stats.retries += 1
                attempt += 1
        self._next_round += 1
        return not self.finished

    def _run_round(self, round_: "Round", attempt: int) -> None:
        """Execute the next Round: global operators, then the fused local task.

        With a fault session, injection hooks are consulted after every global
        operator here and — shipped inside the local runner — at each worker
        task's start and after every local operator; without one the hooks are
        never touched and the Round runs exactly as the fault-free golden
        captures pin down.
        """
        cluster, stats, trace, faults = (
            self.cluster, self.stats, self.trace, self.faults
        )
        state = self._state
        round_index = self._next_round
        encoder = cluster.encoder()
        workers = cluster.workers
        slots = state.slots
        label = round_.label

        def slot_tuples(names) -> int:
            """Total tuples currently bound to the named slots across workers."""
            return sum(len(value) for name in names for value in slots[name])

        def record(op_index: int, op: PhysicalOp, **noted) -> None:
            """Trace an operator that has bound its slots: its tuple flow is
            what the plan says it reads and binds."""
            if trace is not None:
                trace.append(
                    OperatorTrace(
                        round_index, op_index, op,
                        tuples_in=slot_tuples(op.input_slots()),
                        tuples_out=slot_tuples(op.output_slots()),
                        **noted,
                    )
                )

        for op_index, op in enumerate(round_.ops):
            if not op.GLOBAL:
                continue
            noted = {}
            if isinstance(op, Scan):
                per_worker = atom_frames(
                    op.atom, cluster.fragments(op.atom.relation), encoder, op.filters
                )
                slots[op.out] = per_worker
                for worker, frame in enumerate(per_worker):
                    if len(frame):
                        cluster.memory.allocate(worker, len(frame), "scan")
                        stats.record_memory(worker, cluster.memory.resident(worker))
            elif isinstance(op, ChooseAnchor):
                sizes = _scanned_sizes(slots, op.aliases)
                state.anchor = max(sizes, key=lambda alias: sizes[alias])
            elif isinstance(op, ConfigureHyperCube):
                sizes = _scanned_sizes(slots, op.aliases)
                # hybrid plans configure per stage: the boundary round carries
                # its own subquery (intermediate + residual atoms)
                state.hc_config = op.config or optimize_config(
                    op.query or self.plan.query, sizes, workers
                )
                state.mapping = HyperCubeMapping(state.hc_config, seed=op.seed)
            elif isinstance(op, ScanIntermediate):
                projected: list[Frame] = []
                for worker, frame in enumerate(slots[op.input]):
                    stats.charge(worker, len(frame), op.phase)
                    out_frame = frame.project(op.variables, dedup=op.dedup)
                    dropped = len(frame) - len(out_frame)
                    if dropped:
                        # de-duplicated rows leave residency; the projection
                        # itself is width-free (the memory model counts tuples)
                        cluster.memory.release(worker, dropped)
                    projected.append(out_frame)
                slots[op.out] = projected
            elif isinstance(op, Exchange):
                frames = slots[op.input]
                if op.skip_if_anchor and op.input == state.anchor:
                    # anchor fragments stay in place; the scan already
                    # registered their residency, so nothing moves — and nothing
                    # ran that a fault could strike, so no hook is consulted
                    slots[op.out] = frames
                    record(op_index, op, skipped=True)
                    continue
                if op.release_input:
                    # the exchange streams the old partitioning out as it
                    # sends, so its residency is freed before receive
                    # buffers fill
                    cluster.release_frames(frames)
                charged = dict(name=op.name, phase=op.phase, memory=cluster.memory)
                if op.kind is ExchangeKind.REGULAR:
                    slots[op.out] = regular_shuffle(
                        frames, op.key, workers, stats, **charged
                    )
                elif op.kind is ExchangeKind.BROADCAST:
                    slots[op.out] = broadcast(frames, workers, stats, **charged)
                else:
                    slots[op.out] = hypercube_shuffle(
                        frames, op.atom, state.mapping, workers, stats, **charged
                    )
                noted["shuffle_index"] = len(stats.shuffles) - 1
            elif isinstance(op, SemiJoinProject):
                projected = []
                for worker, frame in enumerate(slots[op.source]):
                    stats.charge(worker, len(frame), op.phase)
                    projected.append(frame.project(op.key, dedup=True))
                slots[op.out] = projected
            else:  # pragma: no cover - lowering only emits the ops above
                raise TypeError(f"unknown global operator {op!r}")
            record(op_index, op, **noted)
            if faults is not None:
                faults.after_global_op(round_index, label, attempt, op)

        local = round_.local_ops()
        if not local:
            return
        if round_.local_workers == LOCAL_HC:
            worker_ids = range(state.mapping.workers_used)
        else:
            worker_ids = range(workers)

        # ship each worker's input slot values explicitly, so a session child
        # receives only the per-phase payload and needs no live driver state
        needed = list(
            dict.fromkeys(
                name for op in local for name in op.input_slots() if name in slots
            )
        )
        payloads = {
            worker: {name: slots[name][worker] for name in needed}
            for worker in worker_ids
        }
        hooks = None if faults is None else (faults, round_index, label, attempt)
        outcomes = self.runtime.map_local(
            worker_ids,
            partial(_run_local_batch, ops=local, hooks=hooks, workers=workers),
            payloads,
            stats,
            cluster.memory,
        )
        # bind every local output first, then trace in plan order
        for op in local:
            slots[op.out] = [produced[op.out] for produced in outcomes]
        for op_index, op in enumerate(round_.ops):
            if not op.GLOBAL:
                record(op_index, op)

    def close(self) -> None:
        """Release what the execution holds outside its own state: nothing,
        since the runtime's workers outlive the plan."""

    def finalize(self) -> ScheduledRun:
        """Union worker outputs, project, de-duplicate; build the result.

        Call once after the last Round (``finished`` is True); sets
        ``stats.result_count`` and returns the :class:`ScheduledRun`.
        """
        if not self.finished:
            raise RuntimeError(
                f"cannot finalize: {self.rounds_total - self._next_round} "
                "round(s) have not run"
            )
        plan = self.plan
        # concatenate, project and de-duplicate as the backend holds the
        # frames (column blocks on numpy), and only then make the tuples.
        # A non-full head drops repeated projections; an HC plan also
        # de-duplicates a full head, whose bindings can repeat when two
        # workers received overlapping replicas only via projection (full
        # results are otherwise produced exactly once: each binding fixes
        # every coordinate)
        frames = self._state.slots[plan.result]
        width = len(frames[0].variables)
        rows = kernels.concat_rows([frame.rows for frame in frames], width)
        dedup = plan.dedup_full or not plan.query.is_full()
        if plan.head_indices is not None or dedup:
            indices = plan.head_indices
            rows = kernels.project_rows(
                rows, range(width) if indices is None else indices, dedup=dedup
            )
        rows = kernels.row_tuples(rows)
        self.stats.result_count = len(rows)
        return ScheduledRun(
            rows=rows,
            hc_config=self._state.hc_config,
            anchor=self._state.anchor,
            trace=self.trace,
        )

    def release_residency(self) -> None:
        """Drop every worker's resident tuples for this execution's cluster.

        Eviction hook for the serving layer: after a rollback the boundary
        residency (scanned fragments, surviving intermediates) is still
        registered against the query's private memory budget; an evicted
        query frees all of it so the governor's grant returns clean.
        """
        for worker in range(self.cluster.workers):
            self.cluster.memory.release_all(worker)


def run_plan(
    plan: PhysicalPlan,
    cluster: Cluster,
    stats: ExecutionStats,
    runtime: WorkerRuntime,
    trace: Optional[list[OperatorTrace]] = None,
    faults: Optional[FaultSession] = None,
) -> ScheduledRun:
    """Execute a physical plan on a loaded cluster.

    Fills ``stats`` with the plan's counted metrics, appends an
    :class:`OperatorTrace` per operator into ``trace`` (when given) as each
    completes, and returns the finalized result rows plus the run-time
    bindings (HyperCube configuration, broadcast anchor).
    :class:`~repro.engine.memory.OutOfMemoryError` propagates to the caller
    with ``stats`` and ``trace`` reflecting the partial execution.

    ``faults`` (a :class:`~repro.engine.faults.FaultSession`) enables fault
    injection: every Round runs under the session's recovery policy
    (checkpoint, retry-with-recompute, or
    :class:`~repro.engine.faults.FaultAbort`), and stragglers slow their
    target workers in every Round.  With ``faults=None`` execution is
    bit-identical to the fault-free golden captures.  A session is
    immutable once built, so its worker hooks ship inside the local runner
    and fault runs use the requested runtime — forked processes included.

    This is :class:`PlanExecution` stepped to completion in one call — the
    one-query path and the serving layer's interleaved path execute the
    exact same per-Round code.
    """
    execution = PlanExecution(
        plan, cluster, stats, runtime, trace=trace, faults=faults
    )
    while not execution.finished:
        execution.step()
    return execution.finalize()


# Imported last on purpose: importing the planner package re-enters this
# module (planner.api -> planner.executor -> here), and by deferring the
# import every name the re-entry needs is already defined above.  The
# operator names are only *referenced* inside function bodies, so binding
# them after the definitions is safe.
from ..planner.physical import (  # noqa: E402
    LOCAL_HC,
    ChooseAnchor,
    ConfigureHyperCube,
    Exchange,
    ExchangeKind,
    LocalHashJoin,
    LocalTributaryJoin,
    MergeJoinStep,
    PhysicalOp,
    PhysicalPlan,
    Scan,
    ScanIntermediate,
    SemiJoinFilter,
    SemiJoinProject,
)
