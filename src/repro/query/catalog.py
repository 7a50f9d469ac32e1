"""Statistics catalog.

Section 5.1 of the paper assumes "commonly used statistics": the cardinality
of every relation, the number of distinct values of each variable in each
relation, and the number of distinct *prefix* values ``V(R, p)`` under a
candidate global variable order.  :class:`Catalog` computes and caches these
over a :class:`~repro.storage.relation.Database`, plus the heavy-hitter and
pair-product statistics behind the optimizer's skew estimates.

The planner reads six methods: :meth:`~Catalog.atom_cardinality`,
:meth:`~Catalog.atom_prefix_count_positions`, :meth:`~Catalog.atom_max_group`,
:meth:`~Catalog.join_group_product`, :meth:`~Catalog.empty_atoms` and
:meth:`~Catalog.fingerprint`.  Every statistic is computed on the relation
*after* the atom's selections — its constants and repeated variables,
exactly what its scan keeps (selection pushdown, the paper's footnote 3) —
and memoized:

- the filtered relation itself is cached per selection;
- distinct-prefix counts are cached per ``(selection, positions)``
  and, underneath, on the immutable relation they were counted over
  (:meth:`~repro.storage.relation.Relation.distinct_count`), so a fresh
  catalog over an unchanged database does not recount them;
- key-group histograms (the largest group, and pair products of two
  atoms' histograms) are cached the same way.

Zero-cardinality contract: the statistics report truthful counts
*including zero* — a constant selecting nothing is an empty relation and
:meth:`~Catalog.atom_cardinality` and
:meth:`~Catalog.atom_prefix_count_positions` say so.  Consumers that need
positive numbers clamp explicitly at their own boundary:
:func:`cardinalities_for` clamps to ``max(1, .)`` because the shares LP and
the AGM bound need strictly positive inputs, and the cost models
(``leapfrog/variable_order``, ``planner/optimizer``) short-circuit empty
queries to trivial plans instead of dividing by a zero prefix count.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..storage.relation import Database, Relation
from .atoms import Atom, ConjunctiveQuery


class Catalog:
    """Cardinality and distinct-prefix statistics over a database."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._atom_prefix_cache: dict[tuple, int] = {}
        self._filtered_cache: dict[tuple, Relation] = {}
        self._group_counts_cache: dict[tuple, dict[tuple[int, ...], int]] = {}
        self._join_product_cache: dict[tuple, int] = {}

    def atom_prefix_count_positions(
        self, atom: Atom, positions: Sequence[int]
    ) -> int:
        """``V(R_j, p)`` for explicit attribute positions of an atom.

        Statistics are computed on the relation after the atom's
        selections (selection pushdown), and cached per
        (selection, positions).
        """
        key = (_selection_key(atom), tuple(positions))
        if key in self._atom_prefix_cache:
            return self._atom_prefix_cache[key]
        count = self._filtered(atom).distinct_count(positions)
        self._atom_prefix_cache[key] = count
        return count

    def atom_cardinality(self, atom: Atom) -> int:
        """Cardinality of the atom's relation after its selections.

        Returns the truthful count — 0 when the selection keeps nothing
        (see the module docstring's zero-cardinality contract).
        """
        return len(self._filtered(atom))

    def atom_group_counts(
        self, atom: Atom, positions: Sequence[int]
    ) -> Mapping[tuple[int, ...], int]:
        """Per-key group sizes: ``{key value: |rows with that key|}``.

        The key-frequency histogram behind the optimizer's skew statistics.
        ``positions=()`` groups everything into the empty key.  Cached per
        (selection, positions); callers must not mutate the
        returned mapping.
        """
        key = (_selection_key(atom), tuple(positions))
        cached = self._group_counts_cache.get(key)
        if cached is not None:
            return cached
        groups: dict[tuple[int, ...], int] = {}
        for row in self._filtered(atom).rows:
            group = tuple(row[p] for p in positions)
            groups[group] = groups.get(group, 0) + 1
        self._group_counts_cache[key] = groups
        return groups

    def atom_max_group(self, atom: Atom, positions: Sequence[int]) -> int:
        """The largest key group: ``max_v |{rows with key = v}|``.

        This is the heavy-hitter statistic behind the optimizer's consumer
        skew estimates — every tuple of the heaviest key lands on one worker
        under a hash shuffle, so the max per-worker receive load is at least
        this number.  ``positions=()`` returns the filtered cardinality (one
        group).
        """
        return max(self.atom_group_counts(atom, positions).values(), default=0)

    def join_group_product(
        self,
        left: Atom,
        left_positions: Sequence[int],
        right: Atom,
        right_positions: Sequence[int],
    ) -> int:
        """Exact equi-join size of two base atoms on the given key columns:
        ``sum over key values v of |left rows with v| * |right rows with v|``.

        On skewed data this is the number the System-R independence estimate
        ``|L|*|R| / max(V)`` misses by orders of magnitude (a power-law
        two-hop join is dominated by its heavy hitters), so the optimizer's
        intermediate-size estimates anchor on it.  Cached symmetrically per
        (left key, right key); cost is one pass over the smaller histogram.
        """
        left_key = (_selection_key(left), tuple(left_positions))
        right_key = (_selection_key(right), tuple(right_positions))
        cache_key = (left_key, right_key)
        cached = self._join_product_cache.get(cache_key)
        if cached is not None:
            return cached
        a = self.atom_group_counts(left, left_positions)
        b = self.atom_group_counts(right, right_positions)
        if len(b) < len(a):
            a, b = b, a
        product = sum(count * b.get(group, 0) for group, count in a.items())
        self._join_product_cache[cache_key] = product
        self._join_product_cache[(right_key, left_key)] = product
        return product

    def empty_atoms(self, query: ConjunctiveQuery) -> tuple[str, ...]:
        """Aliases whose post-selection relation is empty.

        A conjunctive query with any empty atom has an empty result; cost
        models use this to short-circuit to a trivial plan instead of
        forming ``V(p_i)/V(p_{i-1})`` ratios over zero counts.
        """
        return tuple(
            atom.alias for atom in query.atoms if self.atom_cardinality(atom) == 0
        )

    def fingerprint(self) -> int:
        """A digest of the database contents for plan-cache keying.

        Combines every relation's name, schema, and content digest (cached
        on the immutable :class:`~repro.storage.relation.Relation` itself),
        so replacing or reloading a relation changes the fingerprint while
        repeated calls over unchanged data are cheap.
        """
        return hash(
            tuple(
                (name, relation.columns, relation.content_digest())
                for name, relation in sorted(self.database.relations().items())
            )
        )

    def _filtered(self, atom: Atom) -> Relation:
        """The atom's relation after its selections, as its scan keeps it.

        The scan's own selection (:meth:`~repro.query.atoms.Atom.selection`
        applied by :func:`~repro.engine.kernels.select_rows`), with the
        kept rows as tuples; cached per selection so the optimizer's repeated
        selection pushdown during costing reuses one materialization.
        """
        key = _selection_key(atom)
        cached = self._filtered_cache.get(key)
        if cached is not None:
            return cached
        # function-local import: ``engine`` imports this package
        from ..engine import kernels

        relation = self.database[atom.relation]
        selection = atom.selection(self.database.encode)
        rows = kernels.select_rows(relation.rows, *selection)
        if rows is not relation.rows:
            relation = relation.with_rows(kernels.row_tuples(rows))
        self._filtered_cache[key] = relation
        return relation


def _selection_key(atom: Atom) -> tuple:
    """Equal for atoms whose scans keep the same rows: the relation, the
    constants and the positions each variable is read from."""
    return (
        atom.relation,
        atom.constants(),
        tuple(atom.positions_of(variable) for variable in atom.variables()),
    )


def cardinalities_for(
    query: ConjunctiveQuery, database: Database
) -> Mapping[str, int]:
    """Per-alias cardinalities after constant selections are pushed down.

    The paper pushes selections like ``ObjectName(a1, "Joe Pesci")`` below
    the shuffle (its footnote 3), so the shares LP and the planner both see
    the post-selection sizes.  Clamped to ``max(1, .)`` — the LP and the AGM
    bound need strictly positive cardinalities; callers that must
    distinguish a genuinely empty selection use
    :meth:`Catalog.atom_cardinality` / :meth:`Catalog.empty_atoms` instead.
    """
    catalog = Catalog(database)
    return {atom.alias: max(1, catalog.atom_cardinality(atom)) for atom in query.atoms}
