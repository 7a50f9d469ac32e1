"""Tributary join — the paper's array-based Leapfrog Triejoin (Sec. 2.2).

Given a global order of the join variables, every relation is sorted
lexicographically by (its subset of) that order, and the multiway join is a
nested leapfrog: at level ``i`` the trie iterators of every atom containing
variable ``order[i]`` repeatedly seek to each other's keys until they all
agree on a value, at which point the algorithm recurses into the residual
query — which is just a sub-range of each sorted array.

The whole query is computed in one operator with **no intermediate
results**, the property that makes HC_TJ win on cyclic queries with large
intermediates (Q1, Q2, Q5, Q6).

Supports the paper's full workload surface: self-joins (aliases), constant
selections (pushed down before sorting), comparison predicates (applied at
the shallowest depth where both sides are bound, e.g. Q4's ``f1 > f2``),
and head projection with duplicate elimination for non-full queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from ..query.atoms import Atom, Comparison, ConjunctiveQuery, Variable
from ..storage.relation import Relation
from ..storage.sorted import SortedRelation
from .iterator import TrieIterator

Encoder = Callable[[Union[int, str]], int]


def _identity_encoder(value: Union[int, str]) -> int:
    if not isinstance(value, int):
        raise TypeError(
            f"string constant {value!r} requires a Database encoder; "
            "pass encoder=db.encode"
        )
    return value


class SeekBudgetExceeded(RuntimeError):
    """The join exceeded its ``max_seeks`` budget.

    Pathological variable orders make LFTJ-style joins explore near-cross-
    products of the active domains; the paper handled this by terminating
    queries after 1,000 seconds (Sec. 5.2).  ``max_seeks`` is the simulator
    equivalent of that timeout.
    """

    def __init__(self, seeks: int, budget: int) -> None:
        super().__init__(f"seek budget exhausted: {seeks} > {budget}")
        self.seeks = seeks
        self.budget = budget


@dataclass
class TributaryStats:
    """Work counters for one Tributary join execution."""

    seeks: int = 0  # binary searches (the Sec. 5 cost-model unit)
    results: int = 0  # tuples emitted (before head projection dedup)
    sort_cost: int = 0  # comparison-count proxy charged for preparing inputs
    sorted_tuples: int = 0  # total input tuples prepared
    #: times this join was walked by the scalar iterators because its key
    #: ranges overflowed the 63-bit pack (never part of the counted clock)
    scalar_walks: int = 0


@dataclass(frozen=True)
class JoinShape:
    """A Tributary join of one query in one variable order, before any data:
    what every worker's walk of it shares.

    Per atom, ``key_variables`` are its trie levels (its variables in
    ``order``) and ``key_positions`` the columns of its relation they are
    read from.  Per depth, ``participants`` are the atoms whose trie has
    that variable and ``comparisons`` the ones that fire there, at the
    deepest variable they mention.  ``head_positions`` are the depths that
    bind the head's variables.
    """

    order: tuple[Variable, ...]
    key_variables: tuple[tuple[Variable, ...], ...]
    key_positions: tuple[tuple[int, ...], ...]
    participants: tuple[tuple[int, ...], ...]
    comparisons: tuple[tuple[Comparison, ...], ...]
    head_positions: tuple[int, ...]

    @classmethod
    def of(
        cls, query: ConjunctiveQuery, order: Optional[Sequence[Variable]] = None
    ) -> "JoinShape":
        """The shape of ``query`` walked in ``order`` (default: the query's
        variables in first-occurrence order), which must cover them all."""
        order = tuple(order) if order is not None else query.variables()
        if set(order) != set(query.variables()):
            raise ValueError(
                f"order {order} must cover all query variables "
                f"{query.variables()}"
            )
        keys = tuple(
            tuple(v for v in order if v in atom.variables()) for atom in query.atoms
        )
        depth_of = {variable: i for i, variable in enumerate(order)}
        comparisons: list[list[Comparison]] = [[] for _ in order]
        for comparison in query.comparisons:
            fire_depth = max(depth_of[v] for v in comparison.variables())
            comparisons[fire_depth].append(comparison)
        return cls(
            order=order,
            key_variables=keys,
            key_positions=tuple(
                tuple(atom.positions_of(v)[0] for v in key)
                for atom, key in zip(query.atoms, keys)
            ),
            participants=tuple(
                tuple(i for i, key in enumerate(keys) if variable in key)
                for variable in order
            ),
            comparisons=tuple(map(tuple, comparisons)),
            head_positions=tuple(depth_of[v] for v in query.head),
        )


@dataclass
class _PreparedAtom:
    atom: Atom
    iterator: TrieIterator
    key_variables: tuple[Variable, ...]
    size: int  # tuples after filtering
    prepare_cost: int  # the work that indexed it: sort comparisons


def select_atom(
    atom: Atom,
    relation: Relation,
    order: Sequence[Variable],
    encoder: Encoder = _identity_encoder,
) -> tuple[Relation, tuple[Variable, ...], list[int]]:
    """Filter an atom's relation by its selections (constants, repeated
    variables: :meth:`~repro.query.atoms.Atom.selection`), as a scan does.

    Returns the filtered relation, the atom's variables in ``order`` (its
    trie levels) and the column each one is read from."""
    # function-local import: ``engine`` imports this module, so a top-level
    # import of the kernel layer would be circular
    from ..engine.kernels import select_rows

    rows = select_rows(relation.rows, *atom.selection(encoder))
    filtered = relation if rows is relation.rows else relation.with_rows(rows)
    key_variables = tuple(v for v in order if v in atom.variables())
    if set(key_variables) != set(atom.variables()):
        missing = set(atom.variables()) - set(key_variables)
        raise ValueError(f"variable order misses {missing} of atom {atom.alias}")
    return filtered, key_variables, [atom.positions_of(v)[0] for v in key_variables]


def prepare_atom(
    atom: Atom,
    relation: Relation,
    order: Sequence[Variable],
    encoder: Encoder = _identity_encoder,
) -> _PreparedAtom:
    """Select an atom's tuples (:func:`select_atom`) into the lazily sorted
    relation a :class:`~repro.leapfrog.iterator.TrieIterator` walks."""
    filtered, key_variables, key_positions = select_atom(
        atom, relation, order, encoder
    )
    sorted_relation = SortedRelation(filtered, key_positions)
    return _PreparedAtom(
        atom,
        TrieIterator(sorted_relation),
        key_variables,
        size=len(sorted_relation),
        prepare_cost=sorted_relation.sort_cost,
    )


class TributaryJoin:
    """One full multiway join, prepared for a fixed variable order.

    >>> from repro.query import parse_query
    >>> from repro.storage import Relation
    >>> q = parse_query("Q(x,y,z) :- R(x,y), S(y,z), T(z,x).")
    >>> r = Relation("R", ("a","b"), [(0,1),(1,2),(2,0)])
    >>> tj = TributaryJoin(q, {"R": r, "S": r.renamed("S"), "T": r.renamed("T")})
    >>> sorted(tj.run())
    [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        relations: Mapping[str, Relation],
        order: Optional[Sequence[Variable]] = None,
        encoder: Encoder = _identity_encoder,
        max_seeks: Optional[int] = None,
    ) -> None:
        self.query = query
        self.shape = JoinShape.of(query, order)
        self.order = self.shape.order
        self.max_seeks = max_seeks
        self.stats = TributaryStats()
        self._prepared: list[_PreparedAtom] = []
        for atom in query.atoms:
            relation = relations[atom.alias] if atom.alias in relations else relations[atom.relation]
            prepared = self._prepare_atom(atom, relation, encoder)
            self.stats.sort_cost += prepared.prepare_cost
            self.stats.sorted_tuples += prepared.size
            self._prepared.append(prepared)
        # atoms participating at each depth
        self._atoms_at_depth: list[list[_PreparedAtom]] = [
            [self._prepared[i] for i in part] for part in self.shape.participants
        ]

    def _prepare_atom(
        self, atom: Atom, relation: Relation, encoder: Encoder
    ) -> _PreparedAtom:
        """Index one atom for the trie walk: here, sort it."""
        return prepare_atom(atom, relation, self.order, encoder)

    # ------------------------------------------------------------------

    def run(self) -> Sequence[tuple[int, ...]]:
        """Execute the join; returns head rows (deduplicated if non-full) as
        the kernel backend holds them — :func:`run_joins` on a batch of one."""
        return run_joins([self])[0]

    def iterate(self) -> Iterator[tuple[int, ...]]:
        """Stream head tuples (duplicates possible for non-full queries).

        Under numpy kernels the trie walk over sorted arrays runs
        block-at-a-time through :mod:`~repro.leapfrog.vectorized` (same
        rows, same order, same seek counts — only faster) as a batch of
        one; every other configuration, and a join whose key ranges
        overflow the 63-bit pack, takes the scalar tuple-at-a-time walk.
        """
        if self.has_empty_atom():
            return
        if self._walks_batched():
            run = _batched_run([self])
            if run is not None:
                fold = _folder([self], run)
                try:
                    for block in run.blocks(fold):
                        yield from block
                finally:
                    # runs on generator close too, so partially-consumed
                    # iterations (max_seeks aborts, early-stopping
                    # consumers) still record the seeks performed so far
                    fold(check=False)
                return
            self.stats.scalar_walks += 1
        try:
            yield from self._join(0, [0] * len(self.order))
        finally:
            self.stats.seeks = self.total_seeks()

    def _walks_batched(self) -> bool:
        """Whether this join has a batched walk at all: numpy kernels."""
        # function-local import: ``engine`` imports this module
        from ..engine.kernels import get_backend

        return get_backend() == "numpy"

    def has_empty_atom(self) -> bool:
        """Whether some atom has no tuples (the join is empty, seek-free)."""
        return any(p.size == 0 for p in self._prepared)

    def _project(
        self, results: Sequence[tuple[int, ...]]
    ) -> Sequence[tuple[int, ...]]:
        """Duplicate-eliminate the head rows of a non-full query."""
        if self.query.is_full():
            return results
        from ..engine.kernels import project_rows

        return project_rows(results, range(len(self.query.head)), dedup=True)

    def _check_seek_budget(self) -> None:
        """Raise :class:`SeekBudgetExceeded` when past ``max_seeks``."""
        if self.max_seeks is not None:
            seeks = self.total_seeks()
            if seeks > self.max_seeks:
                raise SeekBudgetExceeded(seeks, self.max_seeks)

    def _join(self, depth: int, binding: list[int]) -> Iterator[tuple[int, ...]]:
        participants = self._atoms_at_depth[depth]
        iterators = [p.iterator for p in participants]
        for iterator in iterators:
            iterator.open()
        try:
            for value in _leapfrog(iterators):
                self._check_seek_budget()
                binding[depth] = value
                if not self._filters_pass(depth, binding):
                    continue
                if depth + 1 == len(self.order):
                    self.stats.results += 1
                    yield tuple(binding[p] for p in self.shape.head_positions)
                else:
                    yield from self._join(depth + 1, binding)
        finally:
            for iterator in iterators:
                iterator.up()

    def _filters_pass(self, depth: int, binding: list[int]) -> bool:
        comparisons = self.shape.comparisons[depth]
        if not comparisons:
            return True
        bound = {
            variable: binding[i]
            for i, variable in enumerate(self.order)
            if i <= depth
        }
        return all(comparison.evaluate(bound) for comparison in comparisons)

    def total_seeks(self) -> int:
        """Seeks counted so far, summed over every atom's iterator."""
        return sum(p.iterator.seeks for p in self._prepared)


def _leapfrog(iterators: list[TrieIterator]) -> Iterator[int]:
    """Leapfrog intersection of the open iterators' current levels.

    Yields every value present in all of them, in increasing order.  The
    iterators must all be freshly ``open``ed; they are left exhausted (or
    wherever the consumer stopped) when the generator finishes.
    """
    if any(iterator.at_end for iterator in iterators):
        return
    iterators = sorted(iterators, key=lambda iterator: iterator.key())
    count = len(iterators)
    p = 0
    max_key = iterators[-1].key()
    while True:
        iterator = iterators[p]
        key = iterator.key()
        if key == max_key:
            # all iterators agree on max_key
            yield max_key
            iterator.next()
            if iterator.at_end:
                return
            max_key = iterator.key()
            p = (p + 1) % count
        else:
            iterator.seek(max_key)
            if iterator.at_end:
                return
            max_key = iterator.key()
            p = (p + 1) % count


def _batched_run(joins: Sequence[TributaryJoin]):
    """One batched walk over joins that each have one, their key columns
    projected from the relations they prepared; ``None`` when the segment
    and key ranges do not pack into 63 bits."""
    from ..engine.kernels import project_rows
    from .vectorized import VectorizedTributaryRun

    keys = []
    for i in range(len(joins[0]._prepared)):
        stores = [join._prepared[i].iterator.relation for join in joins]
        keys.append([project_rows(r.base.rows, r.order) for r in stores])
    return VectorizedTributaryRun.build(joins[0].shape, keys)


def _folder(joins: Sequence[TributaryJoin], run) -> Callable[..., None]:
    """A callback that folds a batched run's seek counts, per (atom,
    segment), and result counts, per segment, into the joins' iterators and
    stats, on top of what they held before the run; with ``check`` (the
    per-level call) it then checks every join's seek budget."""
    before = [
        ([p.iterator.seeks for p in join._prepared], join.stats.results)
        for join in joins
    ]

    def fold(check: bool = True) -> None:
        seeks, results = run.seeks.T.tolist(), run.results.tolist()
        for join, (base, done), mine, count in zip(joins, before, seeks, results):
            for p, earlier, walked in zip(join._prepared, base, mine):
                p.iterator.seeks = earlier + walked
            join.stats.results = done + count
            join.stats.seeks = join.total_seeks()
        if check:
            for join in joins:
                join._check_seek_budget()

    return fold


def run_joins(joins: Sequence[TributaryJoin]) -> list[Sequence[tuple[int, ...]]]:
    """Run prepared joins of one query and variable order; rows per join.

    Same rows, order, stats and per-iterator seek counters as walking every
    join alone with the scalar iterators — but under numpy kernels the
    non-empty joins share **one** trie walk whose top level is the join's
    index in the batch (:mod:`~repro.leapfrog.vectorized`), and each join's
    rows come back as one column block.  The walk counts seeks per (atom,
    join) and results per join in arrays; they are folded into the joins'
    iterators after every level, where the seek budgets are checked.  When
    the batch does not pack into 63 bits the joins are walked one at a
    time, and only a join that does not pack alone either counts a scalar
    walk — so ``scalar_walks`` does not depend on how joins were dealt into
    batches.  The shared walk sorts packed keys, never the joins' rows.
    The engine's numpy path walks frames without building joins
    (:func:`~repro.engine.local.local_tributary_joins`); this is the entry
    for prepared joins, and its fallback.
    """
    from ..engine.kernels import concat_rows

    live = [s for s, join in enumerate(joins) if not join.has_empty_atom()]
    batch = [joins[s] for s in live]
    run = None
    if batch and all(join._walks_batched() for join in batch):
        run = _batched_run(batch)
    if run is None:
        if len(batch) > 1:  # declined as a batch: every join walks alone
            return [join.run() for join in joins]
        # at most one join has anything to walk, and it walks scalar
        return [join._project(list(join.iterate())) for join in joins]
    fold = _folder(batch, run)
    try:
        walked = dict(zip(live, run.rows(fold)))
    finally:
        fold(check=False)
    width = len(joins[0].query.head)
    return [
        join._project(walked[s] if s in walked else concat_rows([], width))
        for s, join in enumerate(joins)
    ]


def tributary_join(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    order: Optional[Sequence[Variable]] = None,
    encoder: Encoder = _identity_encoder,
) -> Sequence[tuple[int, ...]]:
    """Convenience one-shot wrapper around :class:`TributaryJoin`."""
    return TributaryJoin(query, relations, order=order, encoder=encoder).run()
