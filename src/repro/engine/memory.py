"""Per-worker memory budgets and the OOM failure mode.

Layer: engine / accounting (enforced inside shuffles and local operators,
reset per execution by the executor, checkpointed by the recovery layer).

The paper's engines are in-memory; when a plan materializes an intermediate
result that exceeds worker memory, the query fails (Fig. 9: RS_TJ on Q4
"fails because it runs out of memory").  The simulator models worker memory
as a tuple budget: operators register the tuples they hold resident,
*release* them once an input is consumed or an intermediate is superseded
(so residency tracks the peak working set, not a monotonically growing
cumulative sum), and exceeding the budget raises :class:`OutOfMemoryError`,
which the executor reports as a FAIL outcome rather than crashing the
benchmark run.

Local-join phases run through a worker runtime
(:mod:`~repro.engine.runtime`), which hands each worker task an isolated
:class:`WorkerMemoryAccount` — a delta ledger opened against the budget's
current residency for that worker — and commits the accounts back in
worker-id order.  This keeps the accounting identical whether the workers
execute serially or concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


class OutOfMemoryError(RuntimeError):
    """A worker exceeded its tuple budget while materializing data."""

    def __init__(self, worker: int, phase: str, resident: int, budget: int) -> None:
        super().__init__(
            f"worker {worker} out of memory in phase {phase!r}: "
            f"{resident} resident tuples > budget {budget}"
        )
        self.worker = worker
        self.phase = phase
        self.resident = resident
        self.budget = budget

    def __reduce__(self):
        """Pickle support: the default exception reduction replays only the
        formatted message into the 4-argument ``__init__`` and fails; the
        process runtime ships these across worker pipes."""
        return (OutOfMemoryError, (self.worker, self.phase, self.resident, self.budget))


@dataclass
class MemoryBudget:
    """Tracks resident tuples per worker against an optional hard budget.

    ``per_worker_tuples=None`` disables the limit (used by correctness
    tests); workloads set it to emulate the paper's cluster memory.
    """

    per_worker_tuples: Optional[int] = None
    _resident: dict[int, int] = field(default_factory=dict)
    _peak: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.per_worker_tuples is not None and self.per_worker_tuples < 0:
            raise ValueError(
                f"per_worker_tuples must be >= 0, got {self.per_worker_tuples}"
            )

    def allocate(self, worker: int, tuples: int, phase: str = "") -> None:
        """Register ``tuples`` as resident; raise on a budget breach."""
        resident = self._resident.get(worker, 0) + tuples
        self._resident[worker] = resident
        if resident > self._peak.get(worker, 0):
            self._peak[worker] = resident
        if self.per_worker_tuples is not None and resident > self.per_worker_tuples:
            raise OutOfMemoryError(worker, phase, resident, self.per_worker_tuples)

    def release(self, worker: int, tuples: int) -> None:
        """Drop ``tuples`` from the worker's residency (floored at zero)."""
        self._resident[worker] = max(0, self._resident.get(worker, 0) - tuples)

    def release_all(self, worker: int) -> None:
        """Drop the worker's entire residency."""
        self._resident[worker] = 0

    def resident(self, worker: int) -> int:
        """Tuples currently registered as resident on ``worker``."""
        return self._resident.get(worker, 0)

    def peak(self, worker: int) -> int:
        """The worker's high-water resident tuple count."""
        return self._peak.get(worker, 0)

    def reset(self) -> None:
        """Clear residency and peaks (a fresh execution on the same cluster)."""
        self._resident.clear()
        self._peak.clear()

    # -- Round checkpoint/rollback (the recovery layer's hooks) --------------

    def checkpoint_residency(self) -> dict[int, int]:
        """Snapshot per-worker residency at a Round boundary.

        Peaks are not part of the snapshot: a failed Round attempt really
        did hold its tuples, so its high-water marks survive the rollback.
        """
        return dict(self._resident)

    def restore_residency(self, snapshot: dict[int, int]) -> None:
        """Restore a :meth:`checkpoint_residency` snapshot (peaks kept)."""
        self._resident = dict(snapshot)

    # -- worker-task isolation ----------------------------------------------

    def open_account(self, worker: int) -> "WorkerMemoryAccount":
        """Open an isolated delta ledger for one worker task.

        The account snapshots the worker's current residency as its
        baseline; allocations and releases accumulate locally (raising
        :class:`OutOfMemoryError` against the same budget) until
        :meth:`commit` folds them back in.
        """
        return WorkerMemoryAccount(
            worker=worker,
            baseline=self.resident(worker),
            limit=self.per_worker_tuples,
        )

    def commit(self, account: "WorkerMemoryAccount") -> None:
        """Fold a worker account's net residency and peak back in."""
        worker = account.worker
        self._resident[worker] = account.resident(worker)
        if account.peak(worker) > self._peak.get(worker, 0):
            self._peak[worker] = account.peak(worker)


@dataclass
class WorkerMemoryAccount:
    """One worker's isolated memory ledger for a single runtime task.

    Duck-type compatible with :class:`MemoryBudget` for the operators
    (``allocate``/``release``/``resident``/``peak`` all take a worker id,
    which must match the account's own), so local-join code is oblivious to
    whether it runs against the shared budget or a per-task account.
    """

    worker: int
    baseline: int = 0
    limit: Optional[int] = None
    _delta: int = 0
    _peak: int = 0

    def __post_init__(self) -> None:
        self._peak = self.baseline

    def _check_worker(self, worker: int) -> None:
        if worker != self.worker:
            raise ValueError(
                f"account for worker {self.worker} used with worker {worker}"
            )

    def allocate(self, worker: int, tuples: int, phase: str = "") -> None:
        """Register ``tuples`` against this task; raise on a budget breach."""
        self._check_worker(worker)
        self._delta += tuples
        resident = self.baseline + self._delta
        if resident > self._peak:
            self._peak = resident
        if self.limit is not None and resident > self.limit:
            raise OutOfMemoryError(worker, phase, resident, self.limit)

    def release(self, worker: int, tuples: int) -> None:
        """Drop ``tuples`` from this task's residency (floored at zero)."""
        self._check_worker(worker)
        self._delta = max(-self.baseline, self._delta - tuples)

    def resident(self, worker: int) -> int:
        """Baseline plus this task's net allocation so far."""
        self._check_worker(worker)
        return self.baseline + self._delta

    def peak(self, worker: int) -> int:
        """This task's high-water resident count (starts at the baseline)."""
        self._check_worker(worker)
        return self._peak


#: what local operators register residency with: the shared budget (serial
#: callers, shuffles) or one task's isolated account (worker runtimes)
MemorySink = Union[MemoryBudget, WorkerMemoryAccount]
