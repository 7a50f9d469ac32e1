"""Query decomposition into hybrid multi-round plans.

The paper's Sec. 3 evaluates each query under *one* strategy end to end —
either a binary-join cascade or a single multiway Tributary round.  "Fast
Distributed Complex Join Processing" (arXiv 2102.13370) shows complex
queries (paths feeding a cycle, like Q8) win by decomposing into multi-round
plans that mix both: hash-join the selective subquery first, then
HyperCube-shuffle the materialized intermediate into a worst-case-optimal
round over the residual atoms.

This module is that decomposition pass:

- :func:`enumerate_decompositions` splits a query's hypergraph into every
  valid (connected binary stage, residual WCOJ stage) pair;
- :func:`estimate_intermediate` prices the stage-boundary intermediate from
  catalog statistics (System-R chain anchored on exact pair products),
  once per shape, while lowering;
- :class:`HybridCatalog` overlays those estimates on a real
  :class:`~repro.query.catalog.Catalog` so the existing variable-order and
  left-deep machinery price the residual stage against the *pseudo-atom*
  intermediate exactly like a base relation;
- :func:`lower_hybrid` lowers a chosen :class:`Decomposition` to a
  multi-stage :class:`~repro.planner.physical.PhysicalPlan`: the shared
  scan round, the stage-1 regular shuffle-then-hash-join pipeline, a stage
  boundary (:class:`~repro.planner.physical.ScanIntermediate` projecting
  the stage-1 output onto the residual-facing schema, then a per-stage
  :class:`~repro.planner.physical.ConfigureHyperCube` and HyperCube
  exchanges re-partitioning the intermediate alongside the residual scans),
  and a final Tributary round on the configuration's workers.  The plan
  carries its shape and the intermediate estimate, which pricing reads.

A decomposition is *valid* when the binary stage is connected, both stages
keep at least two atoms (a one-atom residual is just a binary cascade with
an extra sort, and a one-atom binary stage is the pure HC plan), and the
stages share at least one variable (a cartesian boundary never helps).  The
intermediate's schema keeps exactly the stage-1 variables the residual
stage can still observe: join variables with residual atoms, head
variables, and stage-1 variables of cross-stage comparisons.  Dropping the
rest is safe projection pushdown; when columns are dropped the boundary
de-duplicates (full queries never drop columns, so their boundary is a
pure rename and stays duplicate-free).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from ..engine.local import scanned_query
from ..query.atoms import Atom, ConjunctiveQuery, Variable
from ..query.catalog import Catalog
from .binary import LeftDeepPlan, left_deep_plan
from .physical import (
    HYBRID_STRATEGY,
    LOCAL_HC,
    ConfigureHyperCube,
    ExchangeKind,
    PhysicalPlan,
    Round,
    ScanIntermediate,
    _replicating_exchanges,
    _resolve_order,
    _route_producers,
    _scan_round,
    _step_rounds,
    _tributary_round,
)


@dataclass(frozen=True)
class Decomposition:
    """One hybrid plan shape: a binary stage feeding a residual WCOJ stage.

    ``stage_one`` and ``residual`` partition the query's atom aliases (in
    atom order); ``keep`` is the intermediate's schema (the stage-1
    variables the residual stage observes); ``alias`` names the pseudo
    relation the intermediate is exposed as; ``dedup`` records whether the
    boundary projection dropped columns and must de-duplicate.
    """

    stage_one: tuple[str, ...]
    residual: tuple[str, ...]
    keep: tuple[Variable, ...]
    alias: str
    dedup: bool

    def describe(self) -> str:
        """Compact shape rendering for cost tables and EXPLAIN output."""
        keep = ",".join(v.name for v in self.keep)
        return (
            f"{'*'.join(self.stage_one)} -> {self.alias}({keep}) -> "
            f"HC[{', '.join((self.alias,) + self.residual)}]"
        )

    def intermediate_atom(self) -> Atom:
        """The intermediate as a scannable pseudo-atom."""
        return Atom(relation=self.alias, terms=self.keep)


def _connected(atoms: Sequence[Atom]) -> bool:
    """Whether the atoms form one connected component under shared variables."""
    if not atoms:
        return False
    seen = {0}
    frontier = [0]
    varsets = [set(atom.variables()) for atom in atoms]
    while frontier:
        current = frontier.pop()
        for index, other in enumerate(varsets):
            if index not in seen and varsets[current] & other:
                seen.add(index)
                frontier.append(index)
    return len(seen) == len(atoms)


def intermediate_alias(query: ConjunctiveQuery) -> str:
    """A pseudo-relation name not colliding with the query's aliases."""
    taken = {atom.alias for atom in query.atoms}
    number = 1
    while f"I{number}" in taken:
        number += 1
    return f"I{number}"


def enumerate_decompositions(query: ConjunctiveQuery) -> tuple[Decomposition, ...]:
    """Every valid hybrid shape of a query, in deterministic order.

    Queries with fewer than four atoms admit no hybrid shape (both stages
    need at least two atoms), so the pure-strategy search space is
    untouched for the paper's triangle and two-path queries.
    """
    atoms = list(query.atoms)
    count = len(atoms)
    if count < 4:
        return ()
    head = set(query.head)
    alias = intermediate_alias(query)
    shapes: list[Decomposition] = []
    for size in range(2, count - 1):
        for chosen in combinations(range(count), size):
            picked = [atoms[index] for index in chosen]
            if not _connected(picked):
                continue
            stage_vars_ordered = tuple(
                dict.fromkeys(v for atom in picked for v in atom.variables())
            )
            stage_vars = set(stage_vars_ordered)
            residual_atoms = [
                atom for index, atom in enumerate(atoms) if index not in chosen
            ]
            residual_vars = {
                v for atom in residual_atoms for v in atom.variables()
            }
            cross: set[Variable] = set()
            for comparison in query.comparisons:
                comp_vars = set(comparison.variables())
                if comp_vars & stage_vars and not comp_vars <= stage_vars:
                    cross |= comp_vars & stage_vars
            keep = tuple(
                v
                for v in stage_vars_ordered
                if v in residual_vars or v in head or v in cross
            )
            if not set(keep) & residual_vars:
                continue  # cartesian stage boundary: never a useful shape
            shapes.append(
                Decomposition(
                    stage_one=tuple(atom.alias for atom in picked),
                    residual=tuple(atom.alias for atom in residual_atoms),
                    keep=keep,
                    alias=alias,
                    dedup=len(keep) < len(stage_vars_ordered),
                )
            )
    return tuple(shapes)


def stage_one_query(
    query: ConjunctiveQuery, decomposition: Decomposition
) -> ConjunctiveQuery:
    """The binary stage as a standalone subquery (head = kept schema)."""
    chosen = set(decomposition.stage_one)
    atoms = tuple(atom for atom in query.atoms if atom.alias in chosen)
    stage_vars = {v for atom in atoms for v in atom.variables()}
    comparisons = tuple(
        c for c in query.comparisons if set(c.variables()) <= stage_vars
    )
    return ConjunctiveQuery(
        name=f"{query.name}~s1",
        head=decomposition.keep,
        atoms=atoms,
        comparisons=comparisons,
    )


def stage_two_query(
    query: ConjunctiveQuery, decomposition: Decomposition
) -> ConjunctiveQuery:
    """The residual WCOJ stage over the intermediate plus residual atoms.

    Atoms are the *original* residual atoms (for catalog statistics) plus
    the intermediate pseudo-atom; comparisons are everything the binary
    stage did not fully enforce — each such comparison's variables are all
    visible here (stage-1 variables it touches are in ``keep`` by
    construction).
    """
    chosen = set(decomposition.stage_one)
    stage_vars = {
        v
        for atom in query.atoms
        if atom.alias in chosen
        for v in atom.variables()
    }
    residual_atoms = tuple(
        atom for atom in query.atoms if atom.alias not in chosen
    )
    atoms = (decomposition.intermediate_atom(),) + residual_atoms
    body_vars = {v for atom in atoms for v in atom.variables()}
    comparisons = []
    for comparison in query.comparisons:
        comp_vars = set(comparison.variables())
        if comp_vars <= stage_vars:
            continue  # fully enforced by the binary stage
        assert comp_vars <= body_vars, (
            f"comparison {comparison!r} not covered by either stage"
        )
        comparisons.append(comparison)
    return ConjunctiveQuery(
        name=f"{query.name}~s2",
        head=query.head,
        atoms=atoms,
        comparisons=tuple(comparisons),
    )


@dataclass
class IntermediateStats:
    """Estimated statistics of one stage-boundary intermediate."""

    cardinality: float
    distinct: dict[Variable, float]


def estimate_intermediate(
    stage: ConjunctiveQuery,
    plan: LeftDeepPlan,
    catalog: Catalog,
    decomposition: Decomposition,
) -> IntermediateStats:
    """Price the intermediate from catalog statistics alone.

    ``stage`` is the binary stage (:func:`stage_one_query`) and ``plan``
    its left-deep plan, both as lowering built them.  The raw size is that
    plan's System-R chain estimate; per-variable distinct counts are
    bounded by any covering base atom's post-selection distinct count (the
    join only ever *narrows* a column's value set).  A de-duplicating
    boundary caps the size by the product of kept-column distincts.
    """
    raw = max(1.0, float(plan.estimated_sizes[-1]))
    distinct: dict[Variable, float] = {}
    for variable in decomposition.keep:
        bound = math.inf
        for atom in stage.atoms:
            positions = atom.positions_of(variable)
            if positions:
                bound = min(
                    bound,
                    float(
                        catalog.atom_prefix_count_positions(
                            atom, positions[:1]
                        )
                    ),
                )
        distinct[variable] = max(1.0, min(bound, raw))
    cardinality = raw
    if decomposition.dedup:
        product = 1.0
        for variable in decomposition.keep:
            product *= distinct[variable]
        cardinality = min(cardinality, product)
    return IntermediateStats(
        cardinality=max(1.0, cardinality), distinct=distinct
    )


class HybridCatalog:
    """A :class:`Catalog` facade overlaying estimated intermediate stats.

    Statistics requests for pseudo-atoms (relation names in ``estimates``)
    are answered from the overlay, base atoms' from the base catalog.  It
    answers the five statistics the planner reads of a stage, which lets
    :func:`~repro.planner.binary.left_deep_plan`, the Sec. 5 variable-order
    model and the optimizer's cost rules price the residual stage with the
    intermediate as a first-class relation.
    """

    def __init__(
        self, base: Catalog, estimates: dict[str, IntermediateStats]
    ) -> None:
        self.base = base
        self.estimates = estimates

    def _overlay(self, atom: Atom) -> Optional[IntermediateStats]:
        return self.estimates.get(atom.relation)

    def atom_cardinality(self, atom: Atom) -> int:
        """Post-selection cardinality, estimated for pseudo-atoms."""
        overlay = self._overlay(atom)
        if overlay is None:
            return self.base.atom_cardinality(atom)
        return max(1, int(round(overlay.cardinality)))

    def atom_prefix_count_positions(
        self, atom: Atom, positions: Sequence[int]
    ) -> int:
        """Distinct values at ``positions``, estimated for pseudo-atoms."""
        overlay = self._overlay(atom)
        if overlay is None:
            return self.base.atom_prefix_count_positions(atom, positions)
        positions = tuple(positions)
        if not positions:
            return 1
        product = 1.0
        for position in positions:
            term = atom.terms[position]
            product *= overlay.distinct.get(term, overlay.cardinality)
        return max(1, int(round(min(product, overlay.cardinality))))

    def atom_max_group(self, atom: Atom, positions: Sequence[int]) -> int:
        """Heaviest key-group size; uniform-groups estimate for pseudo-atoms."""
        overlay = self._overlay(atom)
        if overlay is None:
            return self.base.atom_max_group(atom, positions)
        values = self.atom_prefix_count_positions(atom, positions)
        return max(1, int(math.ceil(overlay.cardinality / max(1, values))))

    def join_group_product(
        self,
        left: Atom,
        left_positions: Sequence[int],
        right: Atom,
        right_positions: Sequence[int],
    ) -> int:
        """Pairwise join size; independence fallback once a side is estimated."""
        if self._overlay(left) is None and self._overlay(right) is None:
            return self.base.join_group_product(
                left, left_positions, right, right_positions
            )
        left_count = self.atom_cardinality(left)
        right_count = self.atom_cardinality(right)
        left_values = self.atom_prefix_count_positions(left, left_positions)
        right_values = self.atom_prefix_count_positions(right, right_positions)
        values = max(1, max(left_values, right_values))
        return max(1, int(round(left_count * right_count / values)))

    def empty_atoms(self, query: ConjunctiveQuery) -> tuple[str, ...]:
        """Aliases whose (possibly estimated) cardinality is zero."""
        return tuple(
            atom.alias
            for atom in query.atoms
            if self.atom_cardinality(atom) == 0
        )


#: nominal cluster size the explicit-``HYBRID`` shape ranking prices
#: against — lowering is otherwise workers-agnostic (the HyperCube
#: configuration binds at run time), and shape *ranking* is stable across
#: realistic cluster sizes, so one fixed p keeps plans deterministic
DEFAULT_SHAPE_WORKERS = 64


def default_decomposition(
    query: ConjunctiveQuery, catalog: Catalog
) -> Decomposition:
    """The shape an explicit ``strategy="HYBRID"`` run uses.

    The shape of :func:`~repro.planner.optimizer.cheapest_hybrid` against a
    nominal :data:`DEFAULT_SHAPE_WORKERS`-worker cluster: the one search
    ``--strategy auto`` ranks hybrid shapes with, fully deterministic.
    Raises ``ValueError`` when the query admits no hybrid shape.
    """
    from .optimizer import cheapest_hybrid  # deferred: optimizer imports us

    best = cheapest_hybrid(query, catalog, DEFAULT_SHAPE_WORKERS)
    if best is None:
        raise ValueError(
            f"query {query.name} admits no hybrid decomposition "
            "(both stages need at least two atoms sharing a variable)"
        )
    return best.physical.decomposition


def lower_hybrid(
    query: ConjunctiveQuery,
    catalog: Catalog,
    decomposition: Optional[Decomposition] = None,
    variable_order: Optional[Sequence[Variable]] = None,
    hc_seed: int = 0,
) -> PhysicalPlan:
    """Lower a query to a multi-stage hybrid :class:`PhysicalPlan`.

    Composed from the builders of :mod:`~repro.planner.physical`: stage 1 is
    the shuffled step pipeline over the binary stage's atoms (as in RS_HJ);
    the stage boundary projects its output onto the kept schema and
    replicates it — with the residual scans — through a per-stage HyperCube
    configuration; stage 2 is the Tributary round of HC_TJ over the
    stage-two subquery.  Slot lineage threads through
    :class:`ScanIntermediate`, so checkpoint/recovery works at every round
    boundary unchanged.
    """
    if decomposition is None:
        decomposition = default_decomposition(query, catalog)
    stage1 = stage_one_query(query, decomposition)
    stage2 = stage_two_query(query, decomposition)

    scan_round, pending = _scan_round(query, stage=1)
    stage_vars = {v for atom in stage1.atoms for v in atom.variables()}
    stage1_plan = left_deep_plan(stage1, catalog)
    step_rounds, stage1_slot, _ = _step_rounds(
        stage1,
        stage1_plan,
        tuple(c for c in pending if set(c.variables()) <= stage_vars),
        {atom.alias: atom.alias for atom in stage1.atoms},
        stage=1,
    )

    estimate = estimate_intermediate(stage1, stage1_plan, catalog, decomposition)
    overlaid = HybridCatalog(catalog, {decomposition.alias: estimate})
    order = _resolve_order(stage2, overlaid, variable_order)
    exchanges, slot_of = _replicating_exchanges(stage2.atoms, ExchangeKind.HYPERCUBE)
    stage2_local = scanned_query(stage2)
    boundary_round = Round(
        label="stage boundary",
        ops=(
            ScanIntermediate(
                input=stage1_slot,
                out=decomposition.alias,
                variables=decomposition.keep,
                phase="stage boundary",
                dedup=decomposition.dedup,
            ),
            ConfigureHyperCube(
                aliases=tuple(slot_of), seed=hc_seed, query=stage2_local
            ),
            *exchanges,
        ),
        stage=2,
    )
    return PhysicalPlan(
        query=query,
        strategy=HYBRID_STRATEGY,
        rounds=_route_producers(
            (
                scan_round,
                *step_rounds,
                boundary_round,
                _tributary_round(stage2_local, slot_of, order, LOCAL_HC, stage=2),
            ),
            "result",
        ),
        result="result",
        dedup_full=True,
        left_deep=stage1_plan,
        variable_order=order,
        decomposition=decomposition,
        intermediate=estimate,
    )
