"""Cost-based strategy optimizer: pick the winning RS/BR/HC x HJ/TJ plan.

The paper's central claim (Secs. 4-5) is that cheap catalog statistics
*predict* which of the six evaluated configurations wins a query.  This
module is that prediction.  :func:`price_plan` prices any lowered
:class:`~repro.planner.physical.PhysicalPlan` from
:class:`~repro.query.catalog.Catalog` statistics alone — no execution — by
walking it round by round with one cost rule per operator type, in the
engine's counted units: ``wall_clock`` sums, phase by phase, the *heaviest*
worker's charge (a round is as slow as its slowest worker); ``total_cpu``
sums over all workers, replicas counted.  A rule re-decides nothing the
lowering already wrote into the plan — exchange keys, the broadcast anchor,
the HyperCube configuration, the variable order, a hybrid plan's shape and
its intermediate estimate — and tracks per slot how many tuples it holds
and how they are laid out.  :func:`estimate_costs` lowers the six
strategies once each and prices them; :func:`cheapest_hybrid`, the one
ranking of hybrid shapes, does the same for every shape.  :func:`optimize`
returns the cheapest row's already-lowered plan, so an ``"auto"`` execution
is bit-identical to naming the winner by hand.

Plans whose predicted per-worker peak residency exceeds the memory budget
are predicted to FAIL (cost = infinity), reproducing the paper's Fig. 9
outcome where RS_TJ runs out of memory on Q4.  Chosen plans are cached in a
:class:`PlanCache`.  DESIGN.md tabulates the rules and says when prediction
can miss; EXPLAIN prints the per-strategy table so a miss is visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, Optional, Sequence

from ..engine.local import SORT_COMPARISON_WEIGHT
from ..hypercube.config import optimize_config
from ..leapfrog.variable_order import (
    best_join_order,
    estimate_order_cost,
    full_variable_order,
)
from ..query.atoms import Atom, ConjunctiveQuery, Variable
from ..query.catalog import Catalog
from .binary import LeftDeepPlan, left_deep_plan, shared_variables
from .decompose import (
    Decomposition,
    HybridCatalog,
    enumerate_decompositions,
    lower_hybrid,
    stage_one_query,
    stage_two_query,
)
from .physical import (
    ChooseAnchor,
    ConfigureHyperCube,
    Exchange,
    ExchangeKind,
    LocalHashJoin,
    LocalTributaryJoin,
    MergeJoinStep,
    PhysicalPlan,
    Scan,
    ScanIntermediate,
    lower,
)
from .plans import ALL_STRATEGIES

#: the strategy name callers pass to request cost-based selection
AUTO_STRATEGY = "auto"

#: fallback pick for trivially-empty queries (an empty post-selection atom
#: makes every strategy produce zero rows; the regular shuffle moves the
#: least data doing so)
TRIVIAL_STRATEGY = "RS_HJ"


@dataclass(frozen=True)
class StrategyCost:
    """One strategy's predicted price, in the engine's counted units."""

    strategy: str
    #: predicted modeled wall clock (sum over phases of max worker charge)
    wall_clock: float
    #: predicted total CPU across workers
    total_cpu: float
    #: predicted tuples moved by every exchange of the plan
    tuples_shuffled: float
    #: predicted max per-worker resident tuples at the worst point
    peak_memory: float
    #: estimated sizes of the materialized intermediates (empty for the
    #: single-round Tributary strategies, which never materialize any)
    intermediate_sizes: tuple[float, ...] = ()
    #: whether the peak-memory estimate exceeds the cluster budget
    predicted_oom: bool = False
    #: extra shape description (hybrid rows carry their decomposition)
    detail: str = ""
    #: the lowered plan this row prices (None on hand-built rows)
    physical: Optional[PhysicalPlan] = field(default=None, compare=False, repr=False)

    @property
    def cost(self) -> float:
        """The ranking objective: wall clock, infinite for predicted OOM."""
        return math.inf if self.predicted_oom else self.wall_clock


@dataclass(frozen=True)
class CostReport:
    """The optimizer's full decision: every strategy priced, one chosen."""

    query: ConjunctiveQuery
    workers: int
    memory_tuples: Optional[int]
    costs: tuple[StrategyCost, ...]
    choice: str
    #: True when an empty post-selection atom short-circuited costing
    trivial: bool = False
    #: multi-stage shapes priced alongside the pure strategies (at most the
    #: cheapest hybrid; empty when hybrid search was off or found no shape)
    hybrids: tuple[StrategyCost, ...] = ()

    @property
    def hybrid_decomposition(self) -> Optional[Decomposition]:
        """The decomposition behind the cheapest hybrid row, if any."""
        return self.hybrids[0].physical.decomposition if self.hybrids else None

    def cost_of(self, strategy: str) -> StrategyCost:
        """Look up one strategy's predicted cost row (pure or hybrid)."""
        for entry in self.costs + self.hybrids:
            if entry.strategy == strategy:
                return entry
        raise KeyError(f"no cost entry for strategy {strategy!r}")

    def ranking(self) -> tuple[StrategyCost, ...]:
        """Cost rows sorted cheapest-first (predicted failures last)."""
        return tuple(
            sorted(self.costs + self.hybrids, key=lambda entry: entry.cost)
        )

    def render(self) -> str:
        """The per-strategy cost table EXPLAIN prints, cheapest first."""
        lines = [
            f"optimizer: predicted winner {self.choice} "
            f"(p={self.workers}"
            + (f", budget={self.memory_tuples:,}" if self.memory_tuples else "")
            + ")"
        ]
        if self.trivial:
            lines.append(
                "  trivial: an empty post-selection atom makes the result "
                "empty; costing short-circuited"
            )
        header = (
            f"  {'strategy':<8} {'est wall':>14} {'est cpu':>14} "
            f"{'est shuffled':>14} {'est peak mem':>13}"
        )
        lines.append(header)
        for entry in self.ranking():
            marker = " <- chosen" if entry.strategy == self.choice else ""
            if entry.predicted_oom:
                lines.append(
                    f"  {entry.strategy:<8} {'FAIL (OOM)':>14} {'-':>14} "
                    f"{entry.tuples_shuffled:>14,.0f} "
                    f"{entry.peak_memory:>13,.0f}{marker}"
                )
                continue
            lines.append(
                f"  {entry.strategy:<8} {entry.wall_clock:>14,.0f} "
                f"{entry.total_cpu:>14,.0f} {entry.tuples_shuffled:>14,.0f} "
                f"{entry.peak_memory:>13,.0f}{marker}"
            )
        for entry in self.hybrids:
            if entry.detail:
                lines.append(f"  {entry.strategy} shape: {entry.detail}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Pricing a lowered plan
# ----------------------------------------------------------------------


class _Layout(Enum):
    """How a slot's tuples are spread over the workers."""

    PARTITIONED = "split over all p workers"
    REPLICATED = "a full copy on every worker"
    HYPERCUBE = "copied along each HyperCube dimension it leaves unbound"


@dataclass(frozen=True)
class _Slot:
    """What the cost rules read about one plan slot."""

    rows: float  # logical rows, replicas not counted
    total: float  # tuples held over all workers, replicas counted
    heaviest: float  # the heaviest worker's share
    layout: _Layout
    skew: float = 1.0  # the heaviest share over the average share


class _PlanWalk:
    """One pricing pass over a lowered plan: statistics, slots, running cost.

    Every statistic comes through the :class:`Catalog` caches, so pricing a
    query's candidates costs one pass over the base relations, not one per
    plan.  A hybrid plan is priced stage by stage, each stage on the
    statistics of its own subquery (:meth:`_enter_stage`).
    """

    def __init__(self, physical: PhysicalPlan, catalog: Catalog, workers: int):
        self.physical = physical
        self.workers = max(1, workers)
        self.p = float(self.workers)
        self.slots: dict[str, _Slot] = {}
        self.anchor: Optional[str] = None
        self.wall = self.cpu = self.shuffled = 0.0
        #: residency on the heaviest worker: the stage's resident inputs,
        #: the live intermediate, and the worst point seen so far
        self.inputs = self.live = self.peak = 0.0
        self.intermediates: list[float] = []
        self.shape = physical.decomposition
        query = physical.query
        if self.shape is not None:
            query = stage_one_query(query, self.shape)
        self._enter_stage(query, catalog, physical.left_deep)

    def _enter_stage(self, query: ConjunctiveQuery, catalog: Catalog, plan=None):
        """Point the statistics helpers at one stage's subquery."""
        self.query = query
        self.catalog = catalog
        self.atoms = {atom.alias: atom for atom in query.atoms}
        #: exact cardinalities after the atom's own selections (constants,
        #: repeated variables), clamped >= 1 like the runtime's
        #: _scanned_sizes; unlike those, they leave out pushed comparisons
        #: (Q7's year range), whose counting would move Q7's predictions
        self.cards = {a.alias: max(1, catalog.atom_cardinality(a)) for a in query.atoms}
        self.plan = plan or left_deep_plan(query, catalog)
        self.sizes = self._step_sizes()

    # -- shared sub-estimates ------------------------------------------------

    def _step_sizes(self) -> tuple[float, ...]:
        """Intermediate sizes along the plan order, skew-corrected.

        Starts from the System-R independence chain (the left-deep plan's
        ``estimated_sizes``) but anchors each step on the *exact* base-pair
        join size ``sum_v |L_v|*|R_v|`` (:meth:`Catalog.join_group_product`)
        scaled by the intermediate's blow-up over the base atom: on
        power-law data the heavy hitters dominate the join output, and the
        independence estimate misses them by orders of magnitude — exactly
        the intermediates that make the regular-shuffle plans lose.
        """
        order = self.plan.order
        sizes = [max(1.0, float(self.cards[order[0]]))]
        current_vars = self.atoms[order[0]].variables()
        joined = [order[0]]
        for step, alias in enumerate(order[1:], start=1):
            atom = self.atoms[alias]
            key = shared_variables(current_vars, atom)
            estimate = max(1.0, self.plan.estimated_sizes[step])
            if key:
                skewed = self._pair_estimate(joined, sizes[-1], atom, key)
                if skewed is not None:
                    estimate = max(estimate, skewed)
            else:
                estimate = sizes[-1] * float(self.cards[alias])  # cartesian
            sizes.append(max(1.0, estimate))
            joined.append(alias)
            current_vars = tuple(
                dict.fromkeys(tuple(current_vars) + atom.variables())
            )
        return tuple(sizes)

    def _pair_estimate(
        self,
        joined: Sequence[str],
        current_size: float,
        atom: Atom,
        key: Sequence[Variable],
    ) -> Optional[float]:
        """Skew-aware output size of joining the intermediate with ``atom``.

        The intermediate's key distribution is proxied by the base atoms
        already joined: a covering atom's exact pair product
        (:meth:`Catalog.join_group_product`) scaled by the intermediate's
        blow-up over that atom.  When no single joined atom covers the whole
        key, each key variable contributes its own skew-aware selectivity
        and the variables combine under independence — still anchored on
        the true heavy-hitter products per variable.  Returns ``None`` when
        some key variable has no covering atom at all.
        """
        right_size = float(self.cards[atom.alias])
        right_positions = self._key_positions(atom, key)
        whole: list[float] = []
        for prev_alias in joined:
            prev = self.atoms[prev_alias]
            prev_positions = self._key_positions(prev, key)
            if len(prev_positions) != len(key):
                continue  # this atom does not cover the whole key
            product = float(
                self.catalog.join_group_product(
                    prev, prev_positions, atom, right_positions
                )
            )
            blowup = current_size / max(1.0, float(self.cards[prev_alias]))
            whole.append(blowup * product)
        if whole:
            return min(whole)
        # per-variable decomposition: skew-aware selectivity per key
        # variable, combined under independence across the key
        selectivity = 1.0
        for variable in key:
            atom_position = atom.positions_of(variable)[:1]
            candidates: list[float] = []
            for prev_alias in joined:
                prev = self.atoms[prev_alias]
                if variable not in prev.variables():
                    continue
                product = float(
                    self.catalog.join_group_product(
                        prev, prev.positions_of(variable)[:1], atom, atom_position
                    )
                )
                blowup = current_size / max(1.0, float(self.cards[prev_alias]))
                candidates.append(blowup * product)
            if not candidates:
                return None
            selectivity *= min(candidates) / (current_size * right_size)
        return current_size * right_size * selectivity

    def _key_positions(self, atom: Atom, key: Sequence[Variable]) -> list[int]:
        return [atom.positions_of(v)[0] for v in key if v in atom.variables()]

    def _heavy_fraction(self, key: Sequence[Variable]) -> float:
        """The heaviest key group's fraction, maxed over covering atoms.

        Join steps multiply group sizes, so the intermediate's heavy-key
        fraction is at least the heaviest fraction among the base atoms
        that contain the key — the cheap lower bound we shuffle-price with.
        """
        fraction = 0.0
        for atom in self.query.atoms:
            positions = self._key_positions(atom, key)
            if len(positions) != len(key):
                continue  # atom does not cover the whole key
            size = self.cards[atom.alias]
            heavy = self.catalog.atom_max_group(atom, positions)
            fraction = max(fraction, heavy / size if size else 0.0)
        return fraction

    def _key_distinct(self, key: Sequence[Variable]) -> float:
        """Distinct key values, maxed over covering atoms (most optimistic)."""
        distinct = 1.0
        for atom in self.query.atoms:
            positions = self._key_positions(atom, key)
            if len(positions) != len(key):
                continue
            distinct = max(
                distinct,
                float(self.catalog.atom_prefix_count_positions(atom, positions)),
            )
        return distinct

    def _consumer_skew(self, key: Sequence[Variable]) -> float:
        """max load / average load estimate for a hash shuffle on ``key``.

        Two effects bound it from below: the heaviest key value's tuples all
        land on one worker (``p * heavy_fraction``), and a key with fewer
        distinct values than workers leaves consumers idle (``p / V(key)``).
        """
        if not key:
            return float(self.workers)  # broadcast-to-one degenerate case
        p = float(self.workers)
        skew = max(1.0, p * self._heavy_fraction(key))
        distinct = self._key_distinct(key)
        if distinct:
            skew = max(skew, min(p, p / distinct))
        return min(skew, p)

    def _partitioned_seeks(self, scale) -> float:
        """Per-worker LFTJ seek estimate over partitioned fragments.

        The Sec. 5 cost model prices a sequential LFTJ as
        ``sum_i prod_{j<=i} S_j``.  Partitioning shrinks one level's
        residual domain by ``scale(variable)``; deeper levels inherit the
        shrinkage through the running product.  A variable the partitioning
        does not constrain scales by 1 — its full level cost is paid on
        every worker, which is what makes a broadcast Tributary join on a
        late-anchored order expensive.
        """
        cost = 0.0
        product = 1.0
        for variable, size in zip(self.order.order, self.order.step_sizes):
            product *= size / max(1.0, scale(variable))
            cost += product
        return cost

    def _sort_units(self, tuples: float) -> float:
        """Counted sort cost of one fragment: weighted ``n log2 n``."""
        if tuples <= 1.0:
            return 0.0
        return SORT_COMPARISON_WEIGHT * tuples * math.log2(tuples)

    def _hc_skew(self, dims: Mapping[Variable, float]) -> float:
        """Receive skew of the HyperCube shuffle (Table 3's ~1.05).

        Each dimension hashes one variable into ``dim`` buckets, so a heavy
        value concentrates at most ``heavy_fraction * dim`` of its atom's
        tuples on one coordinate — far gentler than a p-way hash shuffle.
        """
        skew = 1.0
        for atom in self.query.atoms:
            size = self.cards[atom.alias]
            if not size:
                continue
            for variable, dim in dims.items():
                if dim <= 1.0 or variable not in atom.variables():
                    continue
                positions = atom.positions_of(variable)[:1]
                heavy = self.catalog.atom_max_group(atom, positions)
                skew = max(skew, min(dim, dim * heavy / size))
        return skew

    def _partitioned(self, rows: float, skew: float = 1.0) -> _Slot:
        return _Slot(rows, rows, skew * rows / self.p, _Layout.PARTITIONED, skew)

    def _replicated(self, rows: float) -> _Slot:
        return _Slot(rows, rows * self.p, rows, _Layout.REPLICATED)

    def _on_cube(self, rows: float, variables: Sequence[Variable]) -> _Slot:
        """A HyperCube slot: one copy per cell of its unbound dimensions."""
        total = rows * math.prod(
            dim for variable, dim in self.dims.items() if variable not in variables
        )
        heaviest = self.hc_skew * total / self.used
        return _Slot(rows, total, heaviest, _Layout.HYPERCUBE, self.hc_skew)

    def _joined(
        self, inputs: Sequence[_Slot], rows: float, variables: Sequence[Variable]
    ) -> _Slot:
        """A local join's output: on the cube if an input is; else
        partitioned if one is (with its skew); replicated if all are."""
        if any(slot.layout is _Layout.HYPERCUBE for slot in inputs):
            return self._on_cube(rows, variables)
        skews = [s.skew for s in inputs if s.layout is _Layout.PARTITIONED]
        if skews:
            return self._partitioned(rows, max(skews))
        return self._replicated(rows)

    # -- one cost rule per operator ------------------------------------------

    def _scan(self, op: Scan) -> None:
        """A scan charges nothing; its fragments become resident inputs."""
        rows = float(max(1, self.catalog.atom_cardinality(op.atom)))
        self.slots[op.out] = self._partitioned(rows)
        if op.atom.alias in self.atoms:  # a later stage's scans are its own
            self.inputs += rows / self.p
            self.peak = max(self.peak, self.inputs)

    def _choose_anchor(self, op: ChooseAnchor) -> None:
        """The largest post-selection input stays in place; earliest wins."""
        self.anchor = max(op.aliases, key=lambda alias: self.slots[alias].rows)

    def _configure_hypercube(self, op: ConfigureHyperCube) -> None:
        """Algorithm 1 on the post-selection cardinalities (as the runtime)."""
        config = op.config or optimize_config(self.query, self.cards, self.workers)
        self.dims = {v: float(config.dim(v)) for v in config.order}
        self.used = float(max(1, config.workers_used))
        self.hc_skew = self._hc_skew(self.dims)

    def _exchange(self, op: Exchange) -> None:
        """One unit per tuple sent, spread over the producers, and one per
        tuple received, as heavy as the receiving layout's heaviest share."""
        rows = self.slots[op.input].rows
        if op.skip_if_anchor and op.input == self.anchor:
            self.slots[op.out] = self.slots[op.input]  # the anchor never moves
            return
        if op.kind is ExchangeKind.REGULAR:
            received = self._partitioned(rows, self._consumer_skew(op.key))
        elif op.kind is ExchangeKind.BROADCAST:
            received = self._replicated(rows)
        else:
            received = self._on_cube(rows, op.atom.variables())
        self.shuffled += received.total
        self.cpu += 2.0 * received.total
        self.wall += received.total / self.p + received.heaviest
        self.slots[op.out] = received

    def _hash_join(self, op: LocalHashJoin) -> None:
        """Build and probe both inputs, emit the output."""
        left, right = self.slots[op.left], self.slots[op.right]
        out = self._joined((left, right), self.sizes[op.step], op.out_variables)
        self.wall += 2.0 * (left.heaviest + right.heaviest) + out.heaviest
        self.cpu += 2.0 * (left.total + right.total) + out.total
        self.intermediates.append(out.rows)
        self.slots[op.out] = out

    def _merge_join(self, op: MergeJoinStep) -> None:
        """Sort both inputs, then one pass over inputs and output."""
        left, right = self.slots[op.left], self.slots[op.right]
        out = self._joined((left, right), self.sizes[op.step], op.out_variables)
        sort_w = self._sort_units(left.heaviest) + self._sort_units(right.heaviest)
        self.wall += sort_w + (left.heaviest + right.heaviest + out.heaviest)
        self.cpu += self.p * sort_w + (left.total + right.total + out.total)
        self.intermediates.append(out.rows)
        self.slots[op.out] = out

    def _tributary_join(self, op: LocalTributaryJoin) -> None:
        """Sort every fragment, seek per the Sec. 5 model, emit the result."""
        inputs = [self.slots[name] for _, name in op.inputs]
        out = self._joined(inputs, self.sizes[-1], self.query.variables())
        join_set = set(self.query.join_variables())
        self.order = estimate_order_cost(
            self.query, self.catalog, tuple(v for v in op.order if v in join_set)
        )
        if out.layout is _Layout.HYPERCUBE:
            # each hypercube dimension hashes its variable into dim buckets,
            # shrinking that level's residual domain on every worker
            scale, consumers = self.dims, self.used
        else:
            # only a hash-partitioned input shrinks a worker's search: its
            # first variable in the order divides the running product by p,
            # everything before it is paid in full
            split: set[Variable] = set()
            for (alias, _), slot in zip(op.inputs, inputs):
                if slot.layout is _Layout.PARTITIONED:
                    split.update(self.atoms[alias].variables())
            first = next((v for v in self.order.order if v in split), None)
            scale, consumers = {first: self.p}, self.p
        sort_w = sum(self._sort_units(slot.heaviest) for slot in inputs)
        seeks_w = self._partitioned_seeks(lambda v: scale.get(v, 1.0))
        self.wall += sort_w + seeks_w + out.heaviest
        self.cpu += consumers * (sort_w + seeks_w) + out.total
        self.slots[op.out] = out

    def _scan_intermediate(self, op: ScanIntermediate) -> None:
        """The stage boundary: one unit per stage-one output tuple, spread
        evenly over the workers; then the residual subquery's statistics,
        the intermediate's as lowering estimated it, through a
        :class:`HybridCatalog`."""
        rows = self.slots[op.input].rows
        self.cpu += rows
        self.wall += rows / self.p
        estimate = self.physical.intermediate
        self._enter_stage(
            stage_two_query(self.physical.query, self.shape),
            HybridCatalog(self.catalog, {op.out: estimate}),
        )
        self.intermediates.append(estimate.cardinality)
        self.slots[op.out] = self._partitioned(float(self.cards[op.out]))

    _RULES = {
        Scan: _scan,
        ChooseAnchor: _choose_anchor,
        ConfigureHyperCube: _configure_hypercube,
        Exchange: _exchange,
        LocalHashJoin: _hash_join,
        MergeJoinStep: _merge_join,
        LocalTributaryJoin: _tributary_join,
        ScanIntermediate: _scan_intermediate,
    }

    def price(self, memory_tuples: Optional[int]) -> StrategyCost:
        """Walk the plan round by round: cost rules, then residency.

        The residency model, conservative on purpose (DESIGN.md): while a
        local join builds its output the heaviest worker holds the stage's
        resident inputs, the previous intermediate and the output; a join
        in a round that has exchanges also holds its inputs as receive
        buffers, and a Tributary operator a sorted copy of them.  Such a
        round leaves the scans resident; a shuffle-only round (broadcast,
        HyperCube) replaces what was resident with what it delivered.
        """
        for round_ in self.physical.rounds:
            exchanges = [op for op in round_.ops if isinstance(op, Exchange)]
            for op in round_.ops:
                if type(op) not in self._RULES:
                    raise TypeError(f"no cost rule for operator: {op.describe()}")
                self._RULES[type(op)](self, op)
                if op.GLOBAL:
                    continue
                held = sum(self.slots[name].heaviest for name in op.input_slots())
                buffers = held if exchanges else 0.0
                sorts = isinstance(op, (MergeJoinStep, LocalTributaryJoin))
                scratch = held if sorts else 0.0
                out = self.slots[op.out].heaviest
                self.peak = max(
                    self.peak, self.inputs + self.live + buffers + scratch + out
                )
                self.live = out
            if exchanges and not round_.local_ops():
                self.inputs = sum(self.slots[op.out].heaviest for op in exchanges)
                self.live = 0.0
                self.peak = max(self.peak, self.inputs)
        return StrategyCost(
            self.physical.strategy, self.wall, self.cpu, self.shuffled, self.peak,
            intermediate_sizes=tuple(self.intermediates),
            predicted_oom=memory_tuples is not None and self.peak > memory_tuples,
            detail=self.shape.describe() if self.shape is not None else "",
            physical=self.physical,
        )


def price_plan(
    physical: PhysicalPlan,
    catalog: Catalog,
    workers: int = 64,
    memory_tuples: Optional[int] = None,
) -> StrategyCost:
    """Price any lowered plan, pure or hybrid, from catalog statistics alone.

    Walks the plan round by round with one cost rule per operator type, in
    the engine's counted units, and marks a predicted peak residency above
    ``memory_tuples`` as ``predicted_oom``.  A query with an empty
    post-selection atom returns no rows under any plan and prices at zero —
    no cost ratios are formed over zero counts.  Raises ``TypeError`` for an
    operator without a cost rule (the semijoin operators have none).
    """
    if catalog.empty_atoms(physical.query):
        return StrategyCost(physical.strategy, 0.0, 0.0, 0.0, 0.0, physical=physical)
    return _PlanWalk(physical, catalog, workers).price(memory_tuples)


def cheapest_hybrid(
    query: ConjunctiveQuery,
    catalog: Catalog,
    workers: int = 64,
    memory_tuples: Optional[int] = None,
) -> Optional[StrategyCost]:
    """Lower and price every hybrid shape of a query; the cheapest row.

    The one ranking of hybrid shapes, for ``auto`` and for an explicit
    ``HYBRID`` run alike.  Ties go to the smaller shape rendering (the
    row's ``detail``); ``None`` when the query admits no hybrid shape.
    """
    priced = [
        price_plan(
            lower_hybrid(query, catalog, decomposition=shape),
            catalog, workers, memory_tuples,
        )
        for shape in enumerate_decompositions(query)
    ]
    return min(
        priced,
        key=lambda row: (row.cost, row.physical.decomposition.describe()),
        default=None,
    )


def estimate_costs(
    query: ConjunctiveQuery,
    catalog: Catalog,
    workers: int = 64,
    memory_tuples: Optional[int] = None,
    plan: Optional[LeftDeepPlan] = None,
    variable_order: Optional[Sequence[Variable]] = None,
    hybrid: bool = False,
) -> CostReport:
    """Price all six strategies for a query from catalog statistics alone.

    Each strategy is lowered once, with one left-deep plan and variable
    order (the caller's, or what an explicit run would compute), and
    :func:`price_plan` prices the lowered plan, which its row keeps.
    ``choice`` is the cheapest predicted strategy (ties break in the
    paper's presentation order, matching the measured grid's).  A query
    with an empty post-selection atom gets a trivial report — every
    strategy returns zero rows, so the least data movement wins by fiat.

    With ``hybrid=True`` the search additionally lowers and prices every
    multi-stage binary+WCOJ decomposition (:func:`cheapest_hybrid`); the
    cheapest shape is reported in ``hybrids`` and can win ``choice``.
    ``costs`` always holds exactly the six pure rows either way.
    """
    trivial = bool(catalog.empty_atoms(query))
    plan = plan or left_deep_plan(query, catalog)
    if variable_order is None:
        variable_order = full_variable_order(
            query, best_join_order(query, catalog).order
        )

    costs = tuple(
        price_plan(
            lower(query, strategy, catalog, plan=plan, variable_order=variable_order),
            catalog, workers, memory_tuples,
        )
        for strategy in ALL_STRATEGIES
    )
    best = None
    if hybrid and not trivial:
        best = cheapest_hybrid(query, catalog, workers, memory_tuples)
    hybrids = (best,) if best is not None else ()
    choice = min(costs + hybrids, key=lambda entry: entry.cost).strategy
    if trivial or all(entry.predicted_oom for entry in costs + hybrids):
        choice = TRIVIAL_STRATEGY  # nothing to win, or all fail: move least
    return CostReport(
        query=query,
        workers=workers,
        memory_tuples=memory_tuples,
        costs=costs,
        choice=choice,
        trivial=trivial,
        hybrids=hybrids,
    )


# ----------------------------------------------------------------------
# The plan cache
# ----------------------------------------------------------------------


def normalize_query(query: ConjunctiveQuery) -> str:
    """The cache's query key: the rule with its name stripped.

    Two rules that differ only in their head predicate name plan
    identically, so they share a cache entry.
    """
    head = ", ".join(repr(v) for v in query.head)
    body = ", ".join(repr(a) for a in query.atoms)
    if query.comparisons:
        body += ", " + ", ".join(repr(c) for c in query.comparisons)
    return f"({head}) :- {body}"


@dataclass(frozen=True)
class OptimizedPlan:
    """The optimizer's product: the decision plus the executable plan."""

    report: CostReport
    physical: PhysicalPlan
    #: True when this came out of the plan cache without re-costing
    cache_hit: bool = False

    @property
    def choice(self) -> str:
        """The chosen strategy name."""
        return self.report.choice


@dataclass
class PlanCache:
    """Memoizes optimizer decisions per (query, data, cluster) triple.

    The key is ``(normalized query, catalog fingerprint, workers,
    memory budget)``: renaming the rule still hits, mutating any relation
    (the fingerprint digests relation contents) misses, and a different
    cluster shape re-costs.  Physical plans are pure data and execute on
    any cluster of the keyed shape, so cached entries are shared freely.
    """

    entries: dict[tuple, OptimizedPlan] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def key(
        self,
        query: ConjunctiveQuery,
        catalog: Catalog,
        workers: int,
        memory_tuples: Optional[int],
    ) -> tuple:
        """Build the cache key for one lookup."""
        return (
            normalize_query(query),
            catalog.fingerprint(),
            workers,
            memory_tuples,
        )

    def lookup(self, key: tuple) -> Optional[OptimizedPlan]:
        """A cached decision, marked as a hit, or None."""
        entry = self.entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return OptimizedPlan(
            report=entry.report, physical=entry.physical, cache_hit=True
        )

    def store(self, key: tuple, plan: OptimizedPlan) -> None:
        """Insert one decision."""
        self.entries[key] = plan

    def clear(self) -> None:
        """Drop all entries and counters (tests and data reloads)."""
        self.entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.entries)


#: the process-wide cache ``strategy="auto"`` executions share
GLOBAL_PLAN_CACHE = PlanCache()


def optimize(
    query: ConjunctiveQuery,
    catalog: Catalog,
    workers: int = 64,
    memory_tuples: Optional[int] = None,
    variable_order: Optional[Sequence[Variable]] = None,
    cache: Optional[PlanCache] = GLOBAL_PLAN_CACHE,
) -> OptimizedPlan:
    """Cost every strategy, return the winner's lowered plan, cache the result.

    Every candidate went through :func:`~repro.planner.physical.lower` with
    the arguments an explicit-strategy execution uses, so ``strategy="auto"``
    output is bit-identical to naming the chosen strategy by hand.  Pass
    ``cache=None`` to bypass caching (an explicit ``variable_order``
    override bypasses it too — the cache key does not describe it).  A hit
    for a rule named differently from the cached one comes back rebound to
    the caller's rule, so results and EXPLAIN carry the caller's name.
    """
    use_cache = cache is not None and variable_order is None
    key: Optional[tuple] = None
    if use_cache:
        key = cache.key(query, catalog, workers, memory_tuples)
        cached = cache.lookup(key)
        if cached is not None:
            if cached.physical.query.name == query.name:
                return cached
            return replace(
                cached,
                report=replace(cached.report, query=query),
                physical=replace(cached.physical, query=query),
            )
    report = estimate_costs(
        query, catalog, workers, memory_tuples,
        variable_order=variable_order,
        # hybrid shapes ignore the pure-strategy order override, so only
        # search them when the caller left planning entirely to us
        hybrid=variable_order is None,
    )
    optimized = OptimizedPlan(
        report=report, physical=report.cost_of(report.choice).physical
    )
    if use_cache and key is not None:
        cache.store(key, optimized)
    return optimized
