"""Physical-plan IR: the explicit operator graph every strategy lowers to.

The paper's Sec. 3 presents the six evaluated configurations (RS/BR/HC x
HJ/TJ) as compositions of a handful of physical operators — scans with
selection pushdown, an exchange (regular hash shuffle, broadcast, or the
HyperCube shuffle), and a local join (pipelined hash join or the Tributary
multiway join).  This module makes those compositions *data* instead of
code: a :class:`PhysicalPlan` is a sequence of :class:`Round` barriers, each
holding driver-side **global** operators (scans, exchanges, the data-driven
configuration steps) followed by per-worker **local** operators executed in
one worker task through the runtime (:mod:`~repro.engine.runtime`).

Lowering ``query -> PhysicalPlan`` is composition, as in the paper, from two
builders: the *step builder* (:func:`_step_rounds`: the left-deep binary
pipeline, one shuffled Round per step or fused behind a replication) and the
*replicating-exchange builder* (:func:`_replicating_exchanges`: one broadcast
or HyperCube exchange per atom), which feeds that pipeline or the one
Tributary round; the semijoin plan puts reduction rounds in front of the
pipeline and the hybrid plan (:mod:`~repro.planner.decompose`) chains both.
A single interpreter (:mod:`~repro.engine.scheduler`) executes any plan.
Lowering is fully static: join variables, output schemas, sort orders,
comparison deferral, phase names, and head projections are computed from the
query and catalog and stored on the operators — the scheduler reads them, it
derives nothing twice — so the same plan can be rendered before execution
(EXPLAIN), executed on any cluster size, and annotated with counted metrics
afterwards (EXPLAIN ANALYZE, :mod:`~repro.planner.explain`).

Two decisions are data-dependent and stay in the plan as explicit operators
rather than branches in executor code: the broadcast strategy keeps the
*largest scanned* relation in place (:class:`ChooseAnchor` binds it at run
time, and broadcast exchanges carry ``skip_if_anchor``), and the HyperCube
configuration is optimized from post-selection cardinalities
(:class:`ConfigureHyperCube`).

Phase names and memory registration/release semantics are part of each
operator's contract (declared by ``phases`` and documented per operator),
which is what keeps the scheduler's counted metrics bit-identical to the
golden seed-executor captures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..engine.hash_join import join_columns, join_output_variables
from ..engine.local import scanned_query
from ..hypercube.config import HyperCubeConfig
from ..leapfrog.variable_order import best_join_order, full_variable_order
from ..query.atoms import Atom, Comparison, ConjunctiveQuery, Variable
from ..query.catalog import Catalog
from ..query.hypergraph import join_tree
from .binary import LeftDeepPlan, left_deep_plan, shared_variables
from .plans import ALL_STRATEGIES, JoinKind, ShuffleKind, Strategy

if TYPE_CHECKING:  # decompose builds hybrid plans out of this module
    from .decompose import Decomposition, IntermediateStats

#: strategy spellings accepted by :func:`lower` beyond the 3x2 grid
SEMIJOIN_STRATEGY = "SJ_HJ"

#: the multi-stage hybrid plan shape (binary stage -> WCOJ stage)
HYBRID_STRATEGY = "HYBRID"

StrategyLike = Union[str, Strategy]


class ExchangeKind(Enum):
    """The three data-movement operators of Sec. 3."""

    REGULAR = "regular"
    BROADCAST = "broadcast"
    HYPERCUBE = "hypercube"


def canonical_key(variables: Sequence[Variable]) -> tuple[Variable, ...]:
    """Canonical (name-sorted) key ordering so co-partitioning checks are
    order-free — the partitioning produced by ``h(x,y)`` equals ``h(y,x)``."""
    return tuple(sorted(variables, key=lambda v: v.name))


class PhysicalOp:
    """Base class for all physical operators.

    ``GLOBAL`` operators run on the driver against the shared stats/memory
    (scans, exchanges, configuration); local operators run inside one worker
    task per worker, charging an isolated
    :class:`~repro.engine.runtime.WorkerLedger`.  ``phases`` lists the
    statistics phases this operator charges CPU into — the EXPLAIN ANALYZE
    layer uses it to attribute :class:`~repro.engine.stats.ExecutionStats`
    charges back to operators.  A local operator's ``route`` is the key of
    the regular exchange that alone reads its output, recorded by lowering
    (:func:`_route_producers`): the executor that runs the operator
    partitions the output for that exchange.
    """

    GLOBAL = True

    @property
    def phases(self) -> tuple[str, ...]:
        """Stat phases this operator charges work units into."""
        return ()

    def input_slots(self) -> tuple[str, ...]:
        """Slot names this operator reads, in dependency order.

        This is the plan's lineage metadata: together with
        :meth:`output_slots` it lets the scheduler compute per-operator
        tuple flow for traces and lets the recovery layer report which
        surviving inputs a failed Round would recompute from.
        """
        return ()

    def output_slots(self) -> tuple[str, ...]:
        """Slot names this operator binds."""
        return ()

    def describe(self) -> str:
        """One-line rendering for EXPLAIN output."""
        raise NotImplementedError


def _names(variables: Sequence[Variable]) -> str:
    return ", ".join(v.name for v in variables)


@dataclass(frozen=True)
class Scan(PhysicalOp):
    """Scan one atom on every worker with selection pushdown.

    Applies the atom's constant/repeated-variable selections plus every
    comparison fully covered by the atom, then registers each post-selection
    fragment as resident (phase ``scan`` in the memory budget).  Charges no
    CPU — the paper's metrics start at the first shuffle.
    """

    atom: Atom
    out: str
    filters: tuple[Comparison, ...] = ()

    def output_slots(self) -> tuple[str, ...]:
        """The scanned fragment slot (scans read durable relations)."""
        return (self.out,)

    def describe(self) -> str:
        """One-line rendering for EXPLAIN output."""
        pushed = f" [+{len(self.filters)} pushed filter(s)]" if self.filters else ""
        return f"scan {self.atom.relation} as {self.atom.alias}{pushed} -> {self.out}"


@dataclass(frozen=True)
class ScanIntermediate(PhysicalOp):
    """Re-scan a prior stage's output slot as a first-class stage input.

    The stage-boundary operator of hybrid plans: projects each worker's
    fragment of ``input`` onto ``variables`` (optionally de-duplicating when
    the projection dropped columns) and binds the result under ``out`` so
    downstream exchanges can re-partition the materialized intermediate
    exactly like a scanned base relation.  Charges one work unit per input
    tuple into ``phase``; de-duplicated rows are released from residency
    (the projection itself is width-free — the memory model counts tuples).
    """

    input: str
    out: str
    variables: tuple[Variable, ...]
    phase: str
    dedup: bool = False

    @property
    def phases(self) -> tuple[str, ...]:
        """The stage-boundary projection phase."""
        return (self.phase,)

    def input_slots(self) -> tuple[str, ...]:
        """The prior stage's materialized output."""
        return (self.input,)

    def output_slots(self) -> tuple[str, ...]:
        """The intermediate re-exposed as a scannable relation."""
        return (self.out,)

    def describe(self) -> str:
        """One-line rendering for EXPLAIN output."""
        note = ", dedup" if self.dedup else ""
        return (
            f"scan-intermediate {self.input} "
            f"on ({_names(self.variables)}){note} -> {self.out}"
        )


@dataclass(frozen=True)
class ChooseAnchor(PhysicalOp):
    """Bind the broadcast anchor: the largest post-selection input.

    The broadcast strategy keeps the largest scanned relation partitioned
    in place and ships everything else; which relation that is depends on
    runtime selectivity, so the choice is an explicit plan step.  Ties break
    to the earliest atom (the scheduler scans ``aliases`` in atom order).
    """

    aliases: tuple[str, ...]

    def describe(self) -> str:
        """One-line rendering for EXPLAIN output."""
        return f"choose-anchor largest of ({', '.join(self.aliases)}) stays in place"


@dataclass(frozen=True)
class ConfigureHyperCube(PhysicalOp):
    """Fix the HyperCube configuration from post-selection cardinalities.

    Runs the paper's Algorithm 1 (:func:`~repro.hypercube.config.optimize_config`)
    over the scanned sizes unless an explicit configuration was supplied,
    then binds the per-dimension hash mapping used by every hypercube
    exchange and the ``workers_used`` domain of the local join round.
    """

    aliases: tuple[str, ...]
    config: Optional[HyperCubeConfig] = None
    seed: int = 0
    query: Optional[ConjunctiveQuery] = None

    def describe(self) -> str:
        """One-line rendering for EXPLAIN output."""
        how = repr(self.config) if self.config is not None else "Algorithm 1"
        return (
            f"configure-hypercube over ({', '.join(self.aliases)}) "
            f"via {how}, seed={self.seed}"
        )


@dataclass(frozen=True)
class Exchange(PhysicalOp):
    """One data movement: regular shuffle, broadcast, or HyperCube shuffle.

    Consumes ``input`` (releasing its residency as the tuples stream out,
    unless ``release_input`` is off — e.g. semijoin key projections that
    were never registered) and registers the received partitions with the
    consumers' memory budgets.  Charges one work unit per tuple sent and
    one per tuple received into ``phase`` and appends one
    :class:`~repro.engine.stats.ShuffleRecord` named ``name``.
    """

    kind: ExchangeKind
    input: str
    out: str
    name: str
    phase: str
    key: tuple[Variable, ...] = ()
    atom: Optional[Atom] = None
    release_input: bool = True
    skip_if_anchor: bool = False

    @property
    def phases(self) -> tuple[str, ...]:
        """The (possibly shared) shuffle phase this exchange charges."""
        return (self.phase,)

    def input_slots(self) -> tuple[str, ...]:
        """The partitioning being moved."""
        return (self.input,)

    def output_slots(self) -> tuple[str, ...]:
        """The received partitioning."""
        return (self.out,)

    def describe(self) -> str:
        """One-line rendering for EXPLAIN output."""
        if self.kind is ExchangeKind.REGULAR:
            detail = f" on h({_names(self.key)})"
        elif self.kind is ExchangeKind.HYPERCUBE:
            detail = f" via {self.atom.alias} coordinates"
        else:
            detail = " to all workers"
            if self.skip_if_anchor:
                detail += " (skipped for the anchor)"
        return f"exchange[{self.kind.value}] {self.input} -> {self.out}{detail}"


@dataclass(frozen=True)
class _BinaryJoinStep(PhysicalOp):
    """What the two per-worker binary joins of a left-deep step share: both
    apply every ready pending comparison (``step{k}:filter``) and release the
    consumed inputs plus the filter-dropped rows, so only the live
    intermediate stays resident."""

    GLOBAL = False
    NAME = ""

    left: str
    right: str
    out: str
    join_vars: tuple[Variable, ...]
    step: int
    out_variables: tuple[Variable, ...]
    pending: tuple[Comparison, ...] = ()
    route: tuple[Variable, ...] = ()

    def input_slots(self) -> tuple[str, ...]:
        """The two joined sides, left first."""
        return (self.left, self.right)

    def output_slots(self) -> tuple[str, ...]:
        """The joined (and filtered) intermediate."""
        return (self.out,)

    def describe(self) -> str:
        """One-line rendering for EXPLAIN output."""
        on = f"({_names(self.join_vars)})" if self.join_vars else "(cartesian)"
        note = f", filter {len(self.pending)} pending" if self.pending else ""
        return (
            f"{self.NAME} {self.left} >< {self.right} on {on}"
            f" -> {self.out} [step {self.step}]{note}"
        )


@dataclass(frozen=True)
class LocalHashJoin(_BinaryJoinStep):
    """One per-worker symmetric hash join step of a left-deep pipeline.

    Charges build+probe+output units into ``step{k}:join``.  ``columns``
    is :func:`~repro.engine.hash_join.join_columns` of the two inputs.
    """

    NAME = "hash-join"

    columns: tuple[tuple[int, ...], ...] = ()

    @property
    def phases(self) -> tuple[str, ...]:
        """Join and filter phases, unique to this step."""
        return (f"step{self.step}:join", f"step{self.step}:filter")


@dataclass(frozen=True)
class MergeJoinStep(_BinaryJoinStep):
    """One per-worker binary merge join (a degenerate 2-atom Tributary join).

    The counted model charges the paper's sort by ``order`` — ``n log n``
    comparisons into ``step{k}:sort`` and a scratch sorted copy of both
    inputs against memory; the batched walk sorts one packed key array per
    input instead.  Seeks plus output materialization go to
    ``step{k}:join``.
    """

    NAME = "merge-join"

    order: tuple[Variable, ...] = ()
    #: the two-atom query over the inputs, aliased ``L`` and ``R``, that
    #: the multiway machinery runs (a binary Tributary join is a sort-merge
    #: join)
    query: Optional[ConjunctiveQuery] = None

    @property
    def inputs(self) -> tuple[tuple[str, str], ...]:
        """``(atom alias, slot)`` pairs, as :class:`LocalTributaryJoin` has."""
        return (("L", self.left), ("R", self.right))

    @property
    def phases(self) -> tuple[str, ...]:
        """Sort, join, and filter phases, unique to this step."""
        return (
            f"step{self.step}:sort",
            f"step{self.step}:join",
            f"step{self.step}:filter",
        )


@dataclass(frozen=True)
class LocalTributaryJoin(PhysicalOp):
    """The full multiway Tributary join over one worker's local fragments.

    The counted model charges the paper's sort of every fragment into
    ``sort`` (with the sorted copies as scratch memory, released when the
    join finishes); the batched walk sorts one packed key array per atom
    for all workers instead.  Seeks plus result materialization charge into
    ``tributary join``.  Produces frames over
    the query head (the join projects the head, and applies every
    comparison, internally — nothing is left ``pending``).
    """

    GLOBAL = False
    pending = ()
    route = ()  # its output is the plan's result, never an exchange's input

    query: ConjunctiveQuery
    inputs: tuple[tuple[str, str], ...]  # (atom alias, slot) pairs
    out: str
    order: tuple[Variable, ...]

    @property
    def phases(self) -> tuple[str, ...]:
        """The sort and join phases of the local multiway join."""
        return ("sort", "tributary join")

    def input_slots(self) -> tuple[str, ...]:
        """Every atom's local fragment slot, in atom order."""
        return tuple(slot for _, slot in self.inputs)

    def output_slots(self) -> tuple[str, ...]:
        """The per-worker head-row frames."""
        return (self.out,)

    def describe(self) -> str:
        """One-line rendering for EXPLAIN output."""
        slots = ", ".join(slot for _, slot in self.inputs)
        order = " < ".join(v.name for v in self.order)
        return f"tributary-join ({slots}) order {order} -> {self.out}"


@dataclass(frozen=True)
class SemiJoinProject(PhysicalOp):
    """Local preprocessing of a distributed semijoin: project + dedup keys.

    Charges one unit per scanned source tuple into ``{phase}:project``.  The
    projected key frames are transient (never registered as resident): they
    stream straight into the key shuffle.
    """

    source: str
    out: str
    key: tuple[Variable, ...]
    phase: str

    @property
    def phases(self) -> tuple[str, ...]:
        """The projection phase of this semijoin round."""
        return (self.phase,)

    def input_slots(self) -> tuple[str, ...]:
        """The source relation whose keys are projected."""
        return (self.source,)

    def output_slots(self) -> tuple[str, ...]:
        """The deduplicated key frames."""
        return (self.out,)

    def describe(self) -> str:
        """One-line rendering for EXPLAIN output."""
        return f"semijoin-project {self.source} on ({_names(self.key)}) -> {self.out}"


@dataclass(frozen=True)
class SemiJoinFilter(PhysicalOp):
    """Per-worker semijoin: keep target rows whose key appears in ``keys``.

    Charges target rows plus distinct probe keys into ``{phase}:semijoin``
    and releases the key buffer and every filtered-out target row.
    ``key_indices`` are the target's columns holding ``key``.
    """

    GLOBAL = False

    target: str
    keys: str
    out: str
    key: tuple[Variable, ...]
    key_indices: tuple[int, ...]
    phase: str
    route: tuple[Variable, ...] = ()

    @property
    def phases(self) -> tuple[str, ...]:
        """The semijoin filter phase of this round."""
        return (self.phase,)

    def input_slots(self) -> tuple[str, ...]:
        """The target partitioning, then the probe-key partitioning."""
        return (self.target, self.keys)

    def output_slots(self) -> tuple[str, ...]:
        """The reduced target."""
        return (self.out,)

    def describe(self) -> str:
        """One-line rendering for EXPLAIN output."""
        return (
            f"semijoin-filter {self.target} |>< {self.keys} "
            f"on ({_names(self.key)}) -> {self.out}"
        )


#: worker domains a round's local operators may run over
LOCAL_ALL = "all"
LOCAL_HC = "hc"


@dataclass(frozen=True)
class Round:
    """One communication-round barrier of a physical plan.

    Global operators execute first, in order, on the driver; the round's
    local operators then run *fused* — one worker task per worker executes
    the whole local sequence against a single isolated ledger, exactly the
    granularity the worker runtime commits and the OOM model observes.
    ``local_workers`` is :data:`LOCAL_ALL` (every cluster worker) or
    :data:`LOCAL_HC` (the ``workers_used`` of the HyperCube configuration).

    ``stage`` groups rounds into the subquery stages of a hybrid plan;
    pure single-strategy plans leave every round at stage 0.  Recovery CPU
    for stage > 0 rounds is attributed to a stage-qualified recovery phase
    (``recovery:stageN``) so per-stage conservation holds across faults.
    """

    label: str
    ops: tuple[PhysicalOp, ...]
    local_workers: str = LOCAL_ALL
    stage: int = 0

    def local_ops(self) -> tuple[PhysicalOp, ...]:
        """The per-worker operators of this round, in execution order."""
        return tuple(op for op in self.ops if not op.GLOBAL)

    def consumed_slots(self) -> tuple[str, ...]:
        """Slots this round reads from *earlier* rounds, in first-use order.

        This is the round's recompute lineage: the surviving state a retry
        re-runs from.  Slots both produced and read within the round are
        internal and excluded; scan rounds consume nothing (they re-read
        the cluster's durable fragments).
        """
        produced: set[str] = set()
        consumed: list[str] = []
        for op in self.ops:
            for name in op.input_slots():
                if name not in produced and name not in consumed:
                    consumed.append(name)
            produced.update(op.output_slots())
        return tuple(consumed)


@dataclass(frozen=True)
class PhysicalPlan:
    """A fully lowered, executable physical plan.

    The plan is pure data: rendering it performs no execution, and the
    :mod:`~repro.engine.scheduler` interpreter is the only component that
    runs one.  ``result`` names the slot of final frames; ``head_indices``
    projects them onto the query head (``None`` when the local join already
    emits head rows).  Duplicates of non-full queries are always removed and
    ``dedup_full`` additionally de-duplicates full-query results (the
    HyperCube replication case).
    """

    query: ConjunctiveQuery
    strategy: str
    rounds: tuple[Round, ...]
    result: str
    head_indices: Optional[tuple[int, ...]] = None
    dedup_full: bool = False
    left_deep: Optional[LeftDeepPlan] = None
    variable_order: Optional[tuple[Variable, ...]] = None
    #: a hybrid plan's shape and its estimated stage-boundary intermediate,
    #: both decided by lowering (None on single-stage plans)
    decomposition: Optional[Decomposition] = None
    intermediate: Optional[IntermediateStats] = field(default=None, compare=False)

    def operators(self):
        """Yield ``(round_index, op_index, round, op)`` over the whole plan."""
        for round_index, round_ in enumerate(self.rounds):
            for op_index, op in enumerate(round_.ops):
                yield round_index, op_index, round_, op

    def stages(self) -> tuple[int, ...]:
        """Distinct round stage ids, in plan order."""
        return tuple(dict.fromkeys(round_.stage for round_ in self.rounds))

    @property
    def is_multistage(self) -> bool:
        """Whether this plan mixes more than one subquery stage (hybrid)."""
        return len(self.stages()) > 1

    def local_phase_owners(self) -> dict[str, PhysicalOp]:
        """Map each local-operator stat phase to its unique owning operator.

        Exchange phases can be shared between the exchanges of one round
        (their charges are split via their shuffle records instead); local
        phases must be uniquely owned — asserted here — which is what makes
        per-operator CPU attribution exact.
        """
        owners: dict[str, PhysicalOp] = {}
        for _, _, _, op in self.operators():
            if isinstance(op, Exchange):
                continue
            for phase in op.phases:
                if phase in owners:
                    raise AssertionError(
                        f"phase {phase!r} owned by two operators: "
                        f"{owners[phase].describe()} / {op.describe()}"
                    )
                owners[phase] = op
        return owners

    def render(self) -> str:
        """Multi-line textual form of the plan (the EXPLAIN output)."""
        lines = [f"physical plan {self.query.name} [{self.strategy}]"]
        multistage = self.is_multistage
        for round_index, round_ in enumerate(self.rounds):
            domain = "" if round_.local_workers == LOCAL_ALL else " (hc workers)"
            stage = f" [stage {round_.stage}]" if multistage else ""
            lines.append(f"round {round_index} <{round_.label}>{stage}{domain}:")
            for op in round_.ops:
                lines.append(f"  {op.describe()}")
        head = _names(self.query.head)
        finale = f"finalize: emit ({head})"
        if self.head_indices is not None:
            finale += f" via columns {list(self.head_indices)}"
        if not self.query.is_full():
            finale += ", dedup projection"
        if self.dedup_full:
            finale += ", dedup full rows"
        lines.append(finale)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Lowering: query -> PhysicalPlan, composed from two builders
# ----------------------------------------------------------------------


def split_scan_comparisons(
    query: ConjunctiveQuery,
) -> tuple[dict[str, tuple[Comparison, ...]], tuple[Comparison, ...]]:
    """Partition comparisons into scan-pushed and pipeline-deferred.

    A comparison fully covered by a single atom is pushed into *every*
    covering atom's scan; everything else stays pending for the join
    pipeline."""
    coverable: dict[str, list[Comparison]] = {
        atom.alias: [] for atom in query.atoms
    }
    remaining: list[Comparison] = []
    for comparison in query.comparisons:
        cover = [
            atom.alias
            for atom in query.atoms
            if set(comparison.variables()) <= set(atom.variables())
        ]
        if cover:
            for alias in cover:
                coverable[alias].append(comparison)
        else:
            remaining.append(comparison)
    return (
        {alias: tuple(filters) for alias, filters in coverable.items()},
        tuple(remaining),
    )


def _scan_round(
    query: ConjunctiveQuery, stage: int = 0
) -> tuple[Round, tuple[Comparison, ...]]:
    """The scan round shared by every strategy, plus the deferred filters."""
    coverable, pending = split_scan_comparisons(query)
    ops = tuple(
        Scan(atom=atom, out=atom.alias, filters=coverable[atom.alias])
        for atom in query.atoms
    )
    return Round(label="scan", ops=ops, stage=stage), pending


def _hash_exchange(
    moved: str, out: str, key: tuple[Variable, ...], name: str, phase: str,
    release_input: bool = True,
) -> Exchange:
    """A regular shuffle co-partitioning slot ``moved`` on ``h(key)``."""
    return Exchange(
        kind=ExchangeKind.REGULAR,
        input=moved,
        out=out,
        key=key,
        name=f"{name} -> h{tuple(v.name for v in key)}",
        phase=phase,
        release_input=release_input,
    )


def _step_rounds(
    query: ConjunctiveQuery,
    plan: LeftDeepPlan,
    pending: tuple[Comparison, ...],
    slot_of: dict[str, str],
    join: JoinKind = JoinKind.HASH,
    shuffle: bool = True,
    local_workers: str = LOCAL_ALL,
    stage: int = 0,
) -> tuple[list[Round], str, tuple[Variable, ...]]:
    """The step builder: the left-deep binary pipeline over ``slot_of``.

    With ``shuffle`` every step is its own Round, led by the exchanges that
    co-partition its two inputs on the join key (RS_HJ / RS_TJ, the semijoin
    plan's final phase, a hybrid plan's stage one).  Without, the inputs
    already sit where they are joined and the steps fuse into one Round on
    ``local_workers`` (the BR/HC hash pipeline).  Returns the rounds, the
    final slot, and its variables."""
    atoms = {atom.alias: atom for atom in query.atoms}
    slot = slot_of[plan.order[0]]
    variables: tuple[Variable, ...] = atoms[plan.order[0]].variables()
    partition_key: Optional[tuple[Variable, ...]] = None
    steps: list[list[PhysicalOp]] = []

    for step, alias in enumerate(plan.order[1:], start=1):
        atom = atoms[alias]
        join_vars = shared_variables(variables, atom)
        ops: list[PhysicalOp] = []
        right = slot_of[alias]
        if shuffle:
            phase = f"step{step}:shuffle"
            received = f"{alias}@step{step}"
            if join_vars:
                key = canonical_key(join_vars)
                if partition_key != key:
                    left = f"left@step{step}"
                    name = f"RS {query.name} step{step} left"
                    ops.append(_hash_exchange(slot, left, key, name, phase))
                    slot = left
                ops.append(
                    _hash_exchange(right, received, key, f"RS {alias}", phase)
                )
                partition_key = key
            else:
                # Cartesian step: replicate the disconnected atom everywhere.
                ops.append(
                    Exchange(
                        kind=ExchangeKind.BROADCAST,
                        input=right,
                        out=received,
                        name=f"BR {alias} (cartesian)",
                        phase=phase,
                    )
                )
            right = received

        out_vars = join_output_variables(variables, atom.variables())
        joined = dict(
            left=slot,
            right=right,
            out=f"join@step{step}",
            join_vars=join_vars,
            step=step,
            out_variables=out_vars,
            pending=pending,
        )
        if join is JoinKind.HASH:
            columns = join_columns(variables, atom.variables(), join_vars)
            ops.append(LocalHashJoin(columns=columns, **joined))
        else:  # sorted on the join key first, then the other output columns
            order = join_output_variables(join_vars, out_vars)
            sides = (("L", variables), ("R", atom.variables()))
            merge = ConjunctiveQuery(
                name="merge",
                head=out_vars,
                atoms=tuple(Atom(side, terms, alias=side) for side, terms in sides),
            )
            ops.append(MergeJoinStep(order=order, query=merge, **joined))
        steps.append(ops)
        # comparisons still missing a variable wait for a later step
        pending = tuple(c for c in pending if set(c.variables()) - set(out_vars))
        slot, variables = joined["out"], out_vars

    if shuffle:
        rounds = [
            Round(label=f"step {step}", ops=tuple(ops), stage=stage)
            for step, ops in enumerate(steps, start=1)
        ]
    else:
        fused = tuple(op for ops in steps for op in ops)
        rounds = [Round("local hash pipeline", fused, local_workers, stage)]
    return rounds, slot, variables


#: per replicating exchange kind: slot suffix, shuffle-record prefix, and
#: stat phase (which is also the round's label)
_REPLICATING = {
    ExchangeKind.BROADCAST: ("bcast", "Broadcast", "broadcast"),
    ExchangeKind.HYPERCUBE: ("hc", "HCS", "hypercube shuffle"),
}


def _replicating_exchanges(
    atoms: Sequence[Atom], kind: ExchangeKind
) -> tuple[list[PhysicalOp], dict[str, str]]:
    """The replicating-exchange builder: one ``BROADCAST`` or ``HYPERCUBE``
    :class:`Exchange` per atom, and the slot each atom lands in."""
    hypercube = kind is ExchangeKind.HYPERCUBE
    suffix, prefix, phase = _REPLICATING[kind]
    slot_of = {atom.alias: f"{atom.alias}@{suffix}" for atom in atoms}
    ops: list[PhysicalOp] = [
        Exchange(
            kind=kind,
            input=atom.alias,
            out=slot_of[atom.alias],
            name=f"{prefix} {atom.alias}",
            phase=phase,
            atom=atom if hypercube else None,
            skip_if_anchor=not hypercube,
        )
        for atom in atoms
    ]
    return ops, slot_of


def _tributary_round(
    query: ConjunctiveQuery,
    slot_of: dict[str, str],
    order: tuple[Variable, ...],
    local_workers: str,
    stage: int = 0,
) -> Round:
    """One multiway Tributary join of the scanned ``query`` (see
    :func:`~repro.engine.local.scanned_query`) over its replicated atoms."""
    local = LocalTributaryJoin(
        query=query,
        inputs=tuple((atom.alias, slot_of[atom.alias]) for atom in query.atoms),
        out="result",
        order=order,
    )
    return Round("local tributary join", (local,), local_workers, stage)


def _resolve_order(
    query: ConjunctiveQuery,
    catalog: Catalog,
    variable_order: Optional[Sequence[Variable]],
) -> tuple[Variable, ...]:
    """The Tributary variable order: supplied, or the Sec. 5 cost model."""
    if variable_order is None:
        best = best_join_order(query, catalog)
        return full_variable_order(query, best.order)
    order = tuple(variable_order)
    if set(order) != set(query.variables()):
        raise ValueError(
            f"variable order ({_names(order)}) must cover exactly the "
            f"variables of {query.name} ({_names(query.variables())})"
        )
    return order


def _head_indices(
    query: ConjunctiveQuery, variables: Sequence[Variable]
) -> tuple[int, ...]:
    variables = list(variables)
    return tuple(variables.index(v) for v in query.head)


def _route_producers(
    rounds: Sequence[Round], result: str
) -> tuple[Round, ...]:
    """Record on every local operator whose output slot one regular exchange
    alone reads that exchange's key (as ``route``).  The executor running
    the operator then routes the output, and the exchange only assembles
    the routed runs (:func:`~repro.engine.shuffle.regular_shuffle`).  A
    slot with another reader — a later operator, the plan's result — keeps
    its rows in the order the operator produced them."""
    readers: dict[str, list[Optional[PhysicalOp]]] = {result: [None]}
    for round_ in rounds:
        for op in round_.ops:
            for name in op.input_slots():
                readers.setdefault(name, []).append(op)

    def routed(op: PhysicalOp) -> PhysicalOp:
        if op.GLOBAL:
            return op
        (out,) = op.output_slots()
        (reader, *others) = readers.get(out, [None])
        if others or not (
            isinstance(reader, Exchange) and reader.kind is ExchangeKind.REGULAR
        ):
            return op
        return replace(op, route=reader.key)

    return tuple(
        replace(round_, ops=tuple(map(routed, round_.ops))) for round_ in rounds
    )


def _lower_pipeline(
    query: ConjunctiveQuery,
    strategy: str,
    join: JoinKind,
    catalog: Catalog,
    plan: Optional[LeftDeepPlan],
    reductions: Sequence[tuple[str, str, str]] = (),
) -> PhysicalPlan:
    """Scan, run ``(target, source, phase)`` semijoin reductions, then the
    shuffled step pipeline over what is left of every atom."""
    plan = plan or left_deep_plan(query, catalog)
    scan_round, pending = _scan_round(query)
    atoms = {atom.alias: atom for atom in query.atoms}
    slot_of = {alias: alias for alias in atoms}
    rounds = [scan_round]
    for target, source, phase in reductions:
        key = canonical_key(
            shared_variables(atoms[target].variables(), atoms[source])
        )
        if not key:
            continue
        # one distributed semijoin: project keys, co-partition, filter
        label = f"{target}<-{source}"
        shuffle = f"{phase}:shuffle"
        keys, moved = f"keys@{phase}", f"{target}@{phase}"
        ops = (
            SemiJoinProject(
                source=slot_of[source], out=keys, key=key, phase=f"{phase}:project"
            ),
            _hash_exchange(
                slot_of[target], moved, key, f"SJ {label} target", shuffle
            ),
            # the projected keys were never registered as resident
            _hash_exchange(
                keys, f"{keys}.part", key, f"SJ {label} keys", shuffle,
                release_input=False,
            ),
            SemiJoinFilter(
                target=moved,
                keys=f"{keys}.part",
                out=f"{moved}.reduced",
                key=key,
                key_indices=tuple(
                    atoms[target].variables().index(v) for v in key
                ),
                phase=f"{phase}:semijoin",
            ),
        )
        rounds.append(Round(label=f"semijoin {label} [{phase}]", ops=ops))
        slot_of[target] = f"{moved}.reduced"
    steps, result, variables = _step_rounds(query, plan, pending, slot_of, join)
    return PhysicalPlan(
        query=query,
        strategy=strategy,
        rounds=_route_producers((*rounds, *steps), result),
        result=result,
        head_indices=_head_indices(query, variables),
        left_deep=plan,
    )


def lower_regular(
    query: ConjunctiveQuery,
    strategy: Strategy,
    catalog: Catalog,
    plan: Optional[LeftDeepPlan] = None,
) -> PhysicalPlan:
    """Lower RS_HJ / RS_TJ: a left-deep shuffle-then-join pipeline."""
    return _lower_pipeline(query, strategy.name, strategy.join, catalog, plan)


def lower_semijoin(
    query: ConjunctiveQuery,
    catalog: Catalog,
) -> PhysicalPlan:
    """Lower the Sec. 3.6 semijoin plan: a bottom-up then top-down pass of
    distributed semijoin rounds over the join tree, then the RS_HJ pipeline
    over the reduced relations — all in the same IR.

    Raises ``ValueError`` for cyclic queries — only acyclic queries admit
    full semijoin reductions."""
    tree = join_tree(query)  # raises for cyclic queries
    # bottom-up each removed ear reduces its parent; top-down, in reverse
    # removal order, parents reduce their children
    passes = [
        (tree.parents[child], child, f"semijoin-up{position}")
        for position, child in enumerate(tree.removal_order)
    ] + [
        (child, tree.parents[child], f"semijoin-down{position}")
        for position, child in enumerate(reversed(tree.removal_order))
    ]
    reductions = [r for r in passes if None not in r]  # the root has no parent
    return _lower_pipeline(
        query, SEMIJOIN_STRATEGY, JoinKind.HASH, catalog, None, reductions
    )


def _lower_replicated(
    query: ConjunctiveQuery,
    strategy: Strategy,
    catalog: Catalog,
    plan: Optional[LeftDeepPlan],
    variable_order: Optional[Sequence[Variable]],
    head: PhysicalOp,
) -> PhysicalPlan:
    """Replicate every atom behind ``head`` (:class:`ChooseAnchor` for a
    broadcast, :class:`ConfigureHyperCube` for a HyperCube shuffle), then
    evaluate the whole query locally: one Tributary join or the fused hash
    pipeline."""
    hypercube = isinstance(head, ConfigureHyperCube)
    kind = ExchangeKind.HYPERCUBE if hypercube else ExchangeKind.BROADCAST
    local_workers = LOCAL_HC if hypercube else LOCAL_ALL
    scan_round, pending = _scan_round(query)
    exchanges, slot_of = _replicating_exchanges(query.atoms, kind)
    replicate = Round(label=_REPLICATING[kind][2], ops=(head, *exchanges))
    if strategy.join is JoinKind.TRIBUTARY:
        order = _resolve_order(query, catalog, variable_order)
        local = [
            _tributary_round(scanned_query(query), slot_of, order, local_workers)
        ]
        tail = dict(result="result", variable_order=order)
    else:
        plan = plan or left_deep_plan(query, catalog)
        local, slot, variables = _step_rounds(
            query, plan, pending, slot_of,
            shuffle=False, local_workers=local_workers,
        )
        tail = dict(result=slot, head_indices=_head_indices(query, variables))
    return PhysicalPlan(
        query=query,
        strategy=strategy.name,
        rounds=_route_producers((scan_round, replicate, *local), tail["result"]),
        dedup_full=hypercube,
        left_deep=plan,
        **tail,
    )


def lower_broadcast(
    query: ConjunctiveQuery,
    strategy: Strategy,
    catalog: Catalog,
    plan: Optional[LeftDeepPlan] = None,
    variable_order: Optional[Sequence[Variable]] = None,
) -> PhysicalPlan:
    """Lower BR_HJ / BR_TJ: anchor the largest input, broadcast the rest,
    then evaluate the whole query locally on every worker."""
    aliases = tuple(atom.alias for atom in query.atoms)
    plan = plan or left_deep_plan(query, catalog)
    return _lower_replicated(
        query, strategy, catalog, plan, variable_order,
        ChooseAnchor(aliases=aliases),
    )


def lower_hypercube(
    query: ConjunctiveQuery,
    strategy: Strategy,
    catalog: Catalog,
    plan: Optional[LeftDeepPlan] = None,
    hc_config: Optional[HyperCubeConfig] = None,
    variable_order: Optional[Sequence[Variable]] = None,
    hc_seed: int = 0,
) -> PhysicalPlan:
    """Lower HC_HJ / HC_TJ: one HyperCube shuffle of every atom, then a
    single local evaluation round on the configuration's used workers."""
    aliases = tuple(atom.alias for atom in query.atoms)
    return _lower_replicated(
        query, strategy, catalog, plan, variable_order,
        ConfigureHyperCube(aliases=aliases, config=hc_config, seed=hc_seed),
    )


def lower(
    query: ConjunctiveQuery,
    strategy: StrategyLike,
    catalog: Catalog,
    plan: Optional[LeftDeepPlan] = None,
    hc_config: Optional[HyperCubeConfig] = None,
    variable_order: Optional[Sequence[Variable]] = None,
    hc_seed: int = 0,
) -> PhysicalPlan:
    """Lower a query to a :class:`PhysicalPlan` for any strategy.

    ``strategy`` is a :class:`~repro.planner.plans.Strategy`, one of the six
    grid names, ``"SJ_HJ"`` for the semijoin-reduction plan, or
    ``"HYBRID"`` for the multi-stage binary-then-WCOJ plan."""
    if isinstance(strategy, str):
        if strategy == SEMIJOIN_STRATEGY:
            return lower_semijoin(query, catalog)
        if strategy == HYBRID_STRATEGY:
            from .decompose import lower_hybrid

            return lower_hybrid(
                query, catalog, variable_order=variable_order, hc_seed=hc_seed
            )
        try:
            strategy = Strategy.parse(strategy)
        except ValueError:
            valid = ", ".join(
                [s.name for s in ALL_STRATEGIES]
                + [SEMIJOIN_STRATEGY, HYBRID_STRATEGY]
            )
            raise ValueError(
                f"unknown strategy {strategy!r}; valid: {valid}"
            ) from None
    if strategy.shuffle is ShuffleKind.REGULAR:
        return lower_regular(query, strategy, catalog, plan=plan)
    if strategy.shuffle is ShuffleKind.BROADCAST:
        return lower_broadcast(
            query, strategy, catalog, plan=plan, variable_order=variable_order
        )
    return lower_hypercube(
        query,
        strategy,
        catalog,
        plan=plan,
        hc_config=hc_config,
        variable_order=variable_order,
        hc_seed=hc_seed,
    )
