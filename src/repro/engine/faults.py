"""Deterministic fault injection and the Round-level recovery policy.

Layer: engine / faults (consulted by the scheduler at Round boundaries and
operator completion points; configured from the CLI via ``--faults`` /
``--recovery`` and programmatically via ``run_query(faults=...)``).

Wall clock is the slowest worker's, so worker failures and stragglers are
the adversities to model.  This module provides:

- a **FaultPlan DSL** — a seedable, JSON-loadable list of
  :class:`FaultSpec` entries describing *deterministic* adversities: a
  worker crash at a Round boundary or inside a named stat phase, a
  straggler slowdown multiplier, the loss of a shuffle's partitions, or an
  injected (transient) per-worker OOM;
- a **recovery policy** — :class:`RecoveryPolicy` selects what the
  scheduler does when an injected fault fires: ``retry`` re-runs the failed
  Round from surviving lineage (bounded attempts, optional exponential
  backoff charged to the cost model), ``degrade`` lets the executor fall
  back to a more conservative strategy (BR -> RS), and ``fail`` aborts with
  a structured :class:`FailureReport`.

Everything is counted, never timed: a straggler multiplies the charges a
worker's operators record, a retry re-charges the wasted attempt into the
:data:`~repro.engine.stats.RECOVERY_PHASE` phase, and the same FaultPlan
seed produces bit-identical metrics under every worker runtime and kernel
backend.  An empty plan injects nothing and leaves execution bit-identical
to the fault-free golden captures.

Recovery leans on the physical-plan IR: every Round is a barrier whose
inputs survive a failed attempt, and the scheduler's checkpoint/rollback
restores stats, residency and trace to it before the Round re-runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import Optional, Union

from .runtime import WorkerLedger
from .stats import WorkerStats

__all__ = [
    "FAULT_KINDS",
    "FaultAbort",
    "FaultPlan",
    "FaultSession",
    "FaultSpec",
    "FailureReport",
    "InjectedFault",
    "RECOVERY_MODES",
    "RecoveryPolicy",
    "resolve_faults",
    "resolve_policy",
]

#: the four injectable adversities
FAULT_KINDS = ("crash", "straggler", "partition_loss", "oom")

#: the three recovery dispositions a policy may select
RECOVERY_MODES = ("retry", "degrade", "fail")


def _is_index(value) -> bool:
    """A Round index, worker id or attempt: an int >= 0 and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


#: each optional field of a :class:`FaultSpec`: the values it accepts
#: besides ``None``, how to say so, and the kinds that read it (set on any
#: other kind, the field would do nothing)
_FIELD_RULES = {
    "round": (lambda v: isinstance(v, str) or _is_index(v),
              "a Round index >= 0 or label", FAULT_KINDS),
    "worker": (_is_index, "a worker id >= 0", ("crash", "straggler", "oom")),
    "phase": (lambda v: isinstance(v, str), "a string", ("crash",)),
    "exchange": (lambda v: isinstance(v, str), "a string", ("partition_loss",)),
    "factor": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
               "a number", ("straggler",)),
    "attempts": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_index, v)),
                 "a list of indices >= 0", ("crash", "partition_loss", "oom")),
}


def _field_error(name: str, value, expected: str) -> ValueError:
    return ValueError(f"field {name!r} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic adversity to inject.

    ``kind`` is one of :data:`FAULT_KINDS`:

    - ``"crash"`` — the target worker dies.  With ``phase=None`` it dies at
      the Round boundary (before running any local operator); with a phase
      name it dies right after the operator charging that phase completes
      (matching either a local operator on the target worker or a driver-side
      global operator).
    - ``"straggler"`` — the target worker runs ``factor`` times slower: every
      charge its local operators record is multiplied by ``factor``.
      Stragglers are slowdowns, not failures — they fire on every attempt and
      are never retried.
    - ``"partition_loss"`` — the output partitions of the exchange whose
      shuffle-record name contains ``exchange`` are lost after the exchange
      completes; the Round must be recomputed.
    - ``"oom"`` — a transient allocator failure on the target worker at the
      Round boundary.  Unlike a genuine budget breach
      (:class:`~repro.engine.memory.OutOfMemoryError`, which always aborts),
      an injected OOM is recoverable by retrying the Round.

    ``round`` targets a Round by index (an int ``>= 0``) or by its exact
    label (a str); ``None`` means every round.  ``worker`` is the target
    worker id, or ``None`` to draw one deterministically from the plan's
    seed.  ``attempts`` lists the Round attempt numbers on which the fault
    fires (default: first attempt only), so a retried Round succeeds unless
    the spec says otherwise.

    Construction checks every field, from Python or JSON alike: its type,
    its range, and that its kind reads it (:data:`_FIELD_RULES`).  Only the
    worker range waits for the cluster (:class:`FaultSession`).
    """

    kind: str
    round: Union[int, str, None] = None
    worker: Optional[int] = None
    phase: Optional[str] = None
    exchange: Optional[str] = None
    factor: Optional[float] = None
    attempts: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise _field_error("kind", self.kind, f"one of {', '.join(FAULT_KINDS)}")
        for name, (accepts, expected, kinds) in _FIELD_RULES.items():
            value = getattr(self, name)
            if value is not None and not accepts(value):
                raise _field_error(name, value, expected)
            if value is not None and self.kind not in kinds:
                raise ValueError(f"field {name!r} does nothing for kind {self.kind!r}")
        if self.kind == "straggler" and not (self.factor or 0) > 1.0:
            raise _field_error("factor", self.factor, "> 1.0 for a straggler")
        if self.kind == "partition_loss" and not self.exchange:
            raise _field_error("exchange", self.exchange, "a name fragment")
        if self.kind != "straggler":
            attempts = (0,) if self.attempts is None else tuple(self.attempts)
            object.__setattr__(self, "attempts", attempts)

    def matches_round(self, round_index: int, label: str) -> bool:
        """Whether this spec targets the given Round (by index or exact label)."""
        target = label if isinstance(self.round, str) else round_index
        return self.round is None or self.round == target


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic collection of faults to inject.

    The JSON form (accepted by :meth:`from_dict` / :meth:`load` and the CLI's
    ``--faults plan.json``)::

        {"seed": 42,
         "faults": [
           {"kind": "crash", "round": "step 1", "worker": 1,
            "phase": "step1:join", "attempts": [0]},
           {"kind": "straggler", "worker": 0, "factor": 3.0},
           {"kind": "partition_loss", "round": 2, "exchange": "RS S"},
           {"kind": "oom", "round": 1}
         ]}

    ``seed`` only matters for specs with ``worker: null`` — the target worker
    is drawn from ``random.Random`` seeded by ``(seed, fault index)``, so the
    same plan hits the same workers on every run, runtime, and backend.
    """

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise _field_error("seed", self.seed, "an integer")

    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not self.faults

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Build a plan from the JSON-dict form documented on the class.

        Raises ``ValueError`` naming the field that is unknown, missing or
        invalid; a fault's own fields are checked by :class:`FaultSpec`.
        """
        _check_known("the plan", data, ("faults", "seed"))
        entries = data.get("faults", [])
        if not isinstance(entries, list):
            raise ValueError(
                f"fault plan: field 'faults' must be a list, got {entries!r}"
            )
        specs = []
        for index, entry in enumerate(entries):
            where = f"faults[{index}]"
            _check_known(where, entry, ("kind", *_FIELD_RULES))
            try:
                specs.append(FaultSpec(**{"kind": None, **entry}))
            except ValueError as error:
                raise ValueError(f"fault plan: {where}: {error}") from None
        try:
            return cls(faults=tuple(specs), seed=data.get("seed", 0))
        except ValueError as error:
            raise ValueError(f"fault plan: {error}") from None

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON file (the CLI's ``--faults`` argument)."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def _check_known(where: str, data, known: tuple[str, ...]) -> None:
    """Raise ``ValueError`` unless ``data`` is a dict of known fields."""
    if not isinstance(data, dict):
        raise ValueError(f"fault plan: {where} must be an object, got {data!r}")
    for name in data:
        if name not in known:
            raise ValueError(f"fault plan: {where} has an unknown field {name!r}")


FaultsLike = Union[FaultPlan, dict, None]


def resolve_faults(spec: FaultsLike) -> Optional[FaultPlan]:
    """Normalize a faults argument: a plan, its dict form, or ``None``.

    Empty plans normalize to ``None`` so callers can gate the entire fault
    machinery on a single ``is None`` check — the fault-free path stays
    bit-identical to the golden captures.
    """
    if spec is None:
        return None
    if isinstance(spec, dict):
        spec = FaultPlan.from_dict(spec)
    if not isinstance(spec, FaultPlan):
        raise TypeError(f"faults must be a FaultPlan or dict, got {spec!r}")
    return None if spec.is_empty() else spec


@dataclass(frozen=True)
class RecoveryPolicy:
    """What the scheduler does when an injected fault fires.

    ``mode`` is one of :data:`RECOVERY_MODES`.  Under ``retry`` a failed
    Round is re-run from surviving lineage at most ``max_retries`` times;
    each retry charges the wasted attempt's work into the ``recovery`` stats
    phase plus ``backoff_units * 2**attempt`` units of backoff against the
    crashed worker.  When retries are exhausted — or under ``degrade`` /
    ``fail`` immediately — a :class:`FaultAbort` carrying a structured
    :class:`FailureReport` is raised; the executor then degrades BR -> RS
    (mode ``degrade``, broadcast strategies only) or reports the failure.
    """

    mode: str = "retry"
    max_retries: int = 2
    backoff_units: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in RECOVERY_MODES:
            raise ValueError(
                f"unknown recovery mode {self.mode!r}; "
                f"valid: {', '.join(RECOVERY_MODES)}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


PolicyLike = Union[str, RecoveryPolicy, None]


def resolve_policy(spec: PolicyLike) -> RecoveryPolicy:
    """Turn a policy spec into a :class:`RecoveryPolicy`.

    Accepts an existing policy, ``None`` (→ the default retry policy), or
    the CLI spellings ``"retry"``, ``"retry:N"`` (N bounded retries),
    ``"degrade"``, and ``"fail"``.
    """
    if spec is None:
        return RecoveryPolicy()
    if isinstance(spec, RecoveryPolicy):
        return spec
    text = str(spec).strip().lower()
    if text.startswith("retry:"):
        try:
            count = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(
                f"bad recovery spec {spec!r}; use 'retry[:N]', 'degrade', or 'fail'"
            ) from None
        return RecoveryPolicy(mode="retry", max_retries=count)
    if text in RECOVERY_MODES:
        return RecoveryPolicy(mode=text)
    raise ValueError(
        f"unknown recovery policy {spec!r}; use 'retry[:N]', 'degrade', or 'fail'"
    )


class InjectedFault(Exception):
    """An injected adversity fired (internal control flow, always caught).

    Raised by :class:`FaultSession` hooks inside a Round attempt; the
    scheduler's recovery loop catches it at the Round barrier and either
    retries the Round or escalates to :class:`FaultAbort`.
    """

    def __init__(
        self,
        spec: FaultSpec,
        round_index: int,
        round_label: str,
        worker: Optional[int],
        phase: Optional[str] = None,
    ) -> None:
        where = f"round {round_index} <{round_label}>"
        if phase:
            where += f" phase {phase!r}"
        super().__init__(
            f"injected {spec.kind} on worker {worker} at {where}"
        )
        self.spec = spec
        self.round_index = round_index
        self.round_label = round_label
        self.worker = worker
        self.phase = phase

    def __reduce__(self):
        """Pickle support, as for :class:`~repro.engine.memory.OutOfMemoryError`:
        a fault fired inside a session child crosses the worker pipe."""
        return (
            InjectedFault,
            (self.spec, self.round_index, self.round_label, self.worker, self.phase),
        )


@dataclass(frozen=True)
class FailureReport:
    """Structured description of an unrecovered fault (the abort artifact).

    Carried by :class:`FaultAbort` and attached to the
    :class:`~repro.planner.executor.ExecutionResult` as ``failure_report``.
    ``lineage`` lists the slots the failed Round consumed — the inputs a
    recompute would need.  ``disposition`` is ``"aborted"`` or, once the
    executor has fallen back to a regular shuffle, ``"degraded"``.
    """

    kind: str
    worker: Optional[int]
    round_index: int
    round_label: str
    phase: Optional[str]
    attempts_used: int
    policy: str
    disposition: str = "aborted"
    fallback: Optional[str] = None
    lineage: tuple[str, ...] = ()

    def describe(self) -> str:
        """One-line human-readable form (printed by the CLI on abort)."""
        where = f"round {self.round_index} <{self.round_label}>"
        if self.phase:
            where += f" phase {self.phase!r}"
        text = (
            f"injected {self.kind} on worker {self.worker} at {where} "
            f"after {self.attempts_used} attempt(s) under policy "
            f"{self.policy!r}: {self.disposition}"
        )
        if self.fallback:
            text += f" to {self.fallback}"
        if self.lineage:
            text += f" [lineage: {', '.join(self.lineage)}]"
        return text

    def to_dict(self) -> dict:
        """JSON-serializable form (for harness tables and tooling)."""
        return {**asdict(self), "lineage": list(self.lineage)}


class FaultAbort(Exception):
    """A fault exhausted its recovery policy; execution cannot continue.

    The executor catches this: under ``degrade`` it re-plans BR -> RS and
    re-executes fault-free, otherwise it marks the result FAILed with the
    attached :class:`FailureReport`.
    """

    def __init__(self, report: FailureReport) -> None:
        super().__init__(report.describe())
        self.report = report


class _StragglerStats:
    """Write-through stats proxy that multiplies every charge by a factor.

    Wraps one worker task's :class:`~repro.engine.stats.WorkerStats` ledger;
    the runtime still commits the *underlying* ledger, so the inflation is
    visible to every derived metric exactly as if the worker were slower.
    """

    def __init__(self, inner: WorkerStats, factor: float) -> None:
        self._inner = inner
        self._factor = factor

    def charge(self, worker: int, amount: float, phase: str) -> None:
        """Charge the slowed-down amount into the underlying ledger."""
        self._inner.charge(worker, amount * self._factor, phase)

    def record_memory(self, worker: int, resident_tuples: int) -> None:
        """Memory observations pass through unscaled."""
        self._inner.record_memory(worker, resident_tuples)

    def record_wcoj_fallbacks(self, worker: int, scalar_walks: int) -> None:
        """Fallback counts are observations too: passed through unscaled."""
        self._inner.record_wcoj_fallbacks(worker, scalar_walks)


class FaultSession:
    """One execution's view of a fault plan: resolved targets plus hooks.

    Built by the executor when a non-empty plan is supplied.  Construction
    raises ``ValueError`` for a spec whose worker is not in the cluster, the
    one fact :class:`FaultSpec` cannot check alone.  Worker targets
    left as ``None`` in the plan are resolved here with the plan's seed, so
    a session is deterministic given (plan, cluster size) — and immutable
    after construction: every hook is a pure function of its arguments, so
    the session pickles into the local runner and fires identically in the
    driver or in a session child.  The scheduler calls the hooks at
    well-defined points; each hook either returns quietly or raises
    :class:`InjectedFault`:

    - :meth:`at_worker` — a worker task is starting (Round-boundary crashes
      and injected OOMs fire here);
    - :meth:`after_local_op` — a local operator finished on a worker
      (phase-targeted crashes fire here);
    - :meth:`after_global_op` — a driver-side operator finished (global
      phase crashes and partition loss fire here);
    - :meth:`wrap_ledger` — intercepts a worker's ledger so straggler
      charges are inflated.
    """

    def __init__(
        self, plan: FaultPlan, policy: RecoveryPolicy, workers: int
    ) -> None:
        self.plan = plan
        self.policy = policy
        self.workers = workers
        self._targets: list[Optional[int]] = []
        for index, spec in enumerate(plan.faults):
            if spec.worker is not None and spec.worker >= workers:
                raise ValueError(
                    f"fault plan: faults[{index}]: field 'worker' is "
                    f"{spec.worker}, but the cluster has workers 0..{workers - 1}"
                )
            if spec.kind != "partition_loss" and spec.worker is None:
                # str seeds hash via sha512 — stable across runs and
                # interpreters, unaffected by PYTHONHASHSEED
                draw = random.Random(f"{plan.seed}:{index}")
                self._targets.append(draw.randrange(workers))
            else:
                self._targets.append(spec.worker)

    def target(self, spec_index: int) -> Optional[int]:
        """The resolved target worker of one spec (None for partition loss)."""
        return self._targets[spec_index]

    def _active(self, kind: str, round_index: int, label: str, attempt: int):
        for index, spec in enumerate(self.plan.faults):
            if spec.kind != kind:
                continue
            if not spec.matches_round(round_index, label):
                continue
            if kind != "straggler" and attempt not in spec.attempts:
                continue
            yield index, spec

    def at_worker(self, round_index: int, label: str, attempt: int, worker: int):
        """Fire Round-boundary crashes and injected OOMs for this worker."""
        for kind in ("crash", "oom"):
            for index, spec in self._active(kind, round_index, label, attempt):
                if kind == "crash" and spec.phase is not None:
                    continue
                if self._targets[index] == worker:
                    raise InjectedFault(spec, round_index, label, worker)

    def after_local_op(
        self, round_index: int, label: str, attempt: int, worker: int, op
    ) -> None:
        """Fire phase-targeted crashes after a local operator on a worker."""
        for index, spec in self._active("crash", round_index, label, attempt):
            if spec.phase is None or self._targets[index] != worker:
                continue
            if spec.phase in op.phases:
                raise InjectedFault(spec, round_index, label, worker, spec.phase)

    def after_global_op(
        self, round_index: int, label: str, attempt: int, op
    ) -> None:
        """Fire global phase crashes and partition loss after a driver op."""
        for index, spec in self._active("crash", round_index, label, attempt):
            if spec.phase is not None and spec.phase in op.phases:
                raise InjectedFault(
                    spec, round_index, label, self._targets[index], spec.phase
                )
        name = getattr(op, "name", None)
        if name is None:
            return
        for _, spec in self._active("partition_loss", round_index, label, attempt):
            if spec.exchange in name:
                raise InjectedFault(spec, round_index, label, None, op.phase)

    def straggler_factor(self, round_index: int, label: str, worker: int) -> float:
        """The combined slowdown multiplier for a worker in a Round (1.0 = none)."""
        factor = 1.0
        for index, spec in self._active("straggler", round_index, label, 0):
            if self._targets[index] == worker:
                factor *= spec.factor
        return factor

    def wrap_ledger(
        self, round_index: int, label: str, ledger: WorkerLedger
    ) -> WorkerLedger:
        """Return a straggler-slowed view of a worker's ledger (or it unchanged).

        The returned ledger shares the memory account and writes charges
        through to the original stats ledger (inflated), so the runtime's
        commit path is untouched.
        """
        factor = self.straggler_factor(round_index, label, ledger.worker)
        if factor == 1.0:
            return ledger
        return WorkerLedger(
            worker=ledger.worker,
            stats=_StragglerStats(ledger.stats, factor),
            memory=ledger.memory,
        )
