"""Execution statistics — the metrics every figure and table reports.

Layer: engine / accounting (written by shuffles and local operators, read by
the experiments harness and EXPLAIN ANALYZE).

The paper measures three things per configuration (Figs. 3/4/6/9/13/14/15/17):
wall-clock time, total CPU time across workers, and the number of tuples
shuffled; plus per-shuffle load-balance detail (Tables 2-4): tuples sent and
producer/consumer skew (max load / average load).

The simulator reproduces these as *counted* quantities:

- each shuffle records tuples sent per producer and received per consumer;
- each local operator charges work units (tuples built/probed/sorted/sought)
  to its worker within a named *phase*;
- ``total_cpu`` is the sum of all charges; ``wall_clock`` is the sum over
  phases of the maximum per-worker charge — the paper's observation that the
  runtime of a communication round is the runtime of its slowest worker.

Skew semantics: a shuffle's consumer skew is computed over the workers that
*participate* in the shuffle.  A HyperCube configuration may leave machines
idle (``workers_used < p``, paper Sec. 4); those idle machines receive
nothing by construction and must not dilute the average load — an integral
configuration using 60 of 64 workers would otherwise report a skew inflated
by 64/60, contradicting the paper's ~1.05 Table 3 measurement.

Local-join phases run through a worker runtime
(:mod:`~repro.engine.runtime`): each worker task records its charges into an
isolated :class:`WorkerStats` ledger, merged deterministically (in worker-id
order) via :meth:`ExecutionStats.merge_worker` — so serial and parallel
execution produce identical counted metrics.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

#: the stats phase that retry-with-recompute charges wasted work and backoff
#: into (:mod:`~repro.engine.faults`); never owned by a physical operator, so
#: EXPLAIN ANALYZE reports it separately from the per-operator attribution
RECOVERY_PHASE = "recovery"


def recovery_phase(stage: int = 0) -> str:
    """The recovery stat phase for a Round of the given plan stage.

    Stage-0 (pure single-strategy) rounds keep the historical ``recovery``
    phase name bit-for-bit; hybrid multi-stage plans qualify it per stage
    (``recovery:stageN``) so per-stage CPU conservation holds under faults.
    """
    return RECOVERY_PHASE if stage == 0 else f"{RECOVERY_PHASE}:stage{stage}"


def skew_factor(loads: Iterable[float]) -> float:
    """max / average over non-negative loads (1.0 for empty or all-zero)."""
    loads = list(loads)
    if not loads:
        return 1.0
    total = sum(loads)
    if total == 0:
        return 1.0
    return max(loads) / (total / len(loads))


@dataclass
class WorkerStats:
    """One worker's isolated stat ledger for a single runtime task.

    Duck-type compatible with :class:`ExecutionStats` for the local
    operators (``charge``/``record_memory`` take a worker id, which must
    match the ledger's own).  Filled in isolation by a worker task and
    merged into the shared :class:`ExecutionStats` afterward.
    """

    worker: int
    #: phase name -> charged work units (insertion-ordered, single worker)
    phase_loads: dict[str, float] = field(default_factory=dict)
    #: high-water resident tuple count observed by this task
    peak_memory: int = 0
    #: Tributary joins this task walked scalar because their keys
    #: overflowed the 63-bit pack (see ``ExecutionStats``)
    wcoj_scalar_walks: int = 0

    def _check_worker(self, worker: int) -> None:
        if worker != self.worker:
            raise ValueError(
                f"ledger for worker {self.worker} charged by worker {worker}"
            )

    def charge(self, worker: int, amount: float, phase: str) -> None:
        """Charge ``amount`` work units into ``phase`` (worker must match)."""
        self._check_worker(worker)
        self.phase_loads[phase] = self.phase_loads.get(phase, 0.0) + amount

    def record_memory(self, worker: int, resident_tuples: int) -> None:
        """Raise this task's high-water mark to ``resident_tuples`` if higher."""
        self._check_worker(worker)
        if resident_tuples > self.peak_memory:
            self.peak_memory = resident_tuples

    def record_wcoj_fallbacks(self, worker: int, scalar_walks: int) -> None:
        """Count packing-overflow fallbacks of this task's Tributary joins."""
        self._check_worker(worker)
        self.wcoj_scalar_walks += scalar_walks


#: what local operators charge into: the shared stats (serial callers,
#: shuffles) or one task's isolated ledger (worker runtimes)
StatsSink = Union["ExecutionStats", WorkerStats]


@dataclass
class ShuffleRecord:
    """One shuffle operation's load-balance summary (a row of Tables 2-4)."""

    name: str
    tuples_sent: int
    producer_skew: float
    consumer_skew: float

    def __repr__(self) -> str:
        return (
            f"{self.name}: sent={self.tuples_sent} "
            f"prod_skew={self.producer_skew:.2f} cons_skew={self.consumer_skew:.2f}"
        )


@dataclass(frozen=True)
class StatsCheckpoint:
    """An immutable snapshot of the mutable charge state of one stats object.

    Captured at a Round boundary by the recovery layer
    (:mod:`~repro.engine.faults`) so a failed Round attempt can be rolled
    back: ``phase_loads`` deep-copies the phase/worker charges and
    ``shuffle_count`` remembers how many shuffle records existed.  Peak
    memory is deliberately *not* part of the snapshot — high-water marks are
    true observations even when the work that produced them is retried.
    """

    phase_loads: dict[str, dict[int, float]]
    shuffle_count: int


@dataclass
class ExecutionStats:
    """All metrics collected while executing one (query, strategy) pair."""

    query: str = ""
    strategy: str = ""
    workers: int = 0
    shuffles: list[ShuffleRecord] = field(default_factory=list)
    result_count: int = 0
    failed: bool = False
    failure: str = ""
    #: machine-readable failure class: ``""`` (not failed), ``"oom"`` for a
    #: genuine memory-budget breach, ``"fault"`` for an injected-fault abort
    failure_kind: str = ""
    #: Round attempts re-run by the recovery layer (0 on fault-free runs)
    retries: int = 0
    #: injected faults that actually fired during execution
    faults_injected: int = 0
    elapsed_seconds: float = 0.0
    #: phase name -> worker -> charged work units
    _phase_loads: dict[str, dict[int, float]] = field(default_factory=dict)
    #: per-worker high-water materialized tuple count
    peak_memory: dict[int, int] = field(default_factory=dict)
    #: Tributary joins walked by the scalar iterators because their key
    #: ranges overflowed the 63-bit pack.  A property of each join's own
    #: data, so identical across runtimes however workers are batched; an
    #: observation like ``peak_memory``: it never enters the counted clock
    #: and survives a Round rollback.
    wcoj_scalar_walks: int = 0

    # -- recording ----------------------------------------------------------

    def charge(self, worker: int, amount: float, phase: str) -> None:
        """Charge ``amount`` work units to ``worker`` within ``phase``."""
        loads = self._phase_loads.setdefault(phase, defaultdict(float))
        loads[worker] += amount

    def record_shuffle(
        self,
        name: str,
        sent_per_producer: Iterable[float],
        received_per_consumer: Iterable[float],
    ) -> ShuffleRecord:
        """Append one shuffle's load-balance summary (a row of Tables 2-4)."""
        sent = list(sent_per_producer)
        received = list(received_per_consumer)
        record = ShuffleRecord(
            name=name,
            tuples_sent=int(sum(sent)),
            producer_skew=skew_factor(sent),
            consumer_skew=skew_factor(received),
        )
        self.shuffles.append(record)
        return record

    def record_memory(self, worker: int, resident_tuples: int) -> None:
        """Raise ``worker``'s high-water mark to ``resident_tuples`` if higher."""
        previous = self.peak_memory.get(worker, 0)
        if resident_tuples > previous:
            self.peak_memory[worker] = resident_tuples

    def record_wcoj_fallbacks(self, worker: int, scalar_walks: int) -> None:
        """Count packing-overflow fallbacks of ``worker``'s Tributary joins."""
        self.wcoj_scalar_walks += scalar_walks

    def merge_worker(self, ledger: WorkerStats) -> None:
        """Fold one worker's isolated ledger into the shared stats.

        Called by the worker runtime in worker-id order, which makes the
        merged phase/worker insertion order — and hence every derived
        metric — independent of the runtime's actual execution schedule.
        """
        for phase, amount in ledger.phase_loads.items():
            self.charge(ledger.worker, amount, phase)
        if ledger.peak_memory > self.peak_memory.get(ledger.worker, 0):
            self.peak_memory[ledger.worker] = ledger.peak_memory
        self.wcoj_scalar_walks += ledger.wcoj_scalar_walks

    def mark_failed(self, reason: str, kind: str = "") -> None:
        """Record a failed outcome with a reason and machine-readable kind."""
        self.failed = True
        self.failure = reason
        self.failure_kind = kind

    # -- Round checkpoint/rollback (the recovery layer's hooks) --------------

    def checkpoint(self) -> StatsCheckpoint:
        """Snapshot the charge state so a failed Round can be rolled back."""
        return StatsCheckpoint(
            phase_loads={
                phase: dict(loads) for phase, loads in self._phase_loads.items()
            },
            shuffle_count=len(self.shuffles),
        )

    def rollback(self, snapshot: StatsCheckpoint) -> dict[int, float]:
        """Restore a checkpoint, returning each worker's discarded charge.

        Charges and shuffle records made after the checkpoint are removed;
        the per-worker difference (the work the failed attempt wasted) is
        returned so the caller can re-charge it into
        :data:`RECOVERY_PHASE`.  Peak memory is left untouched — the failed
        attempt really did hold that many tuples resident.
        """
        wasted: dict[int, float] = defaultdict(float)
        for phase, loads in self._phase_loads.items():
            base = snapshot.phase_loads.get(phase, {})
            for worker, amount in loads.items():
                delta = amount - base.get(worker, 0.0)
                if delta:
                    wasted[worker] += delta
        self._phase_loads = {
            phase: defaultdict(float, loads)
            for phase, loads in snapshot.phase_loads.items()
        }
        del self.shuffles[snapshot.shuffle_count:]
        return dict(wasted)

    # -- derived metrics ----------------------------------------------------

    @property
    def tuples_shuffled(self) -> int:
        """Total tuples sent over the (simulated) network — Figs. 3c, 4c, ..."""
        return sum(record.tuples_sent for record in self.shuffles)

    @property
    def total_cpu(self) -> float:
        """Sum of work units over all workers and phases — Figs. 3b, 4b, ..."""
        return sum(
            amount
            for loads in self._phase_loads.values()
            for amount in loads.values()
        )

    @property
    def wall_clock(self) -> float:
        """Sum over phases of the slowest worker's charge — Figs. 3a, 4a, ..."""
        return sum(
            max(loads.values(), default=0.0) for loads in self._phase_loads.values()
        )

    def phase_wall(self, phase: str) -> float:
        """One phase's wall clock: its slowest worker's charge."""
        loads = self._phase_loads.get(phase, {})
        return max(loads.values(), default=0.0)

    def phase_cpu(self, phase: str) -> float:
        """One phase's total CPU: the sum of its per-worker charges."""
        return sum(self._phase_loads.get(phase, {}).values())

    def phases(self) -> tuple[str, ...]:
        """Phase names in first-charge order (the per-phase report order)."""
        return tuple(self._phase_loads)

    def recovery_phases(self) -> tuple[str, ...]:
        """Every recovery phase charged, stage-qualified included.

        Pure plans charge retries to :data:`RECOVERY_PHASE`; multi-stage
        hybrid plans to per-stage ``recovery:stageN`` phases.
        """
        return tuple(
            phase
            for phase in self._phase_loads
            if phase == RECOVERY_PHASE
            or phase.startswith(f"{RECOVERY_PHASE}:")
        )

    @property
    def recovery_cpu(self) -> float:
        """Total CPU across :meth:`recovery_phases`, so ``total_cpu -
        recovery_cpu`` is the fault-free total regardless of plan shape."""
        return sum(self.phase_cpu(phase) for phase in self.recovery_phases())

    def worker_loads(self, phase: Optional[str] = None) -> dict[int, float]:
        """Per-worker total charge, optionally restricted to one phase."""
        if phase is not None:
            return dict(self._phase_loads.get(phase, {}))
        totals: dict[int, float] = defaultdict(float)
        for loads in self._phase_loads.values():
            for worker, amount in loads.items():
                totals[worker] += amount
        return dict(totals)

    @property
    def cpu_skew(self) -> float:
        """max/avg per-worker total CPU — the Fig. 8 'long tail' metric."""
        loads = self.worker_loads()
        full = [loads.get(w, 0.0) for w in range(max(self.workers, 1))]
        return skew_factor(full)

    @property
    def max_consumer_skew(self) -> float:
        """Worst consumer skew over all shuffles — Table 6's 'RS Skew (max)'."""
        return max((r.consumer_skew for r in self.shuffles), default=1.0)

    def summary(self) -> str:
        """One-line outcome summary (used by benchmark progress output)."""
        status = "FAIL" if self.failed else "ok"
        return (
            f"{self.query}/{self.strategy} [{status}] "
            f"wall={self.wall_clock:.0f} cpu={self.total_cpu:.0f} "
            f"shuffled={self.tuples_shuffled} results={self.result_count}"
        )
