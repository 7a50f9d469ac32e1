"""Generic Join — the NPRR-style worst-case-optimal join.

The paper builds on two families of worst-case-optimal sequential joins:
Leapfrog Triejoin (which it implements as the Tributary join) and the NPRR
algorithm of Ngo et al.; "a concise, unified presentation is given in
[Skew strikes back, Algorithm 3]" — the *Generic Join*.  This module
implements that unified algorithm over hash-trie indexes:

for each variable in the global order, intersect the candidate values by
enumerating the smallest participant's distinct values and probing the
others in O(1) per probe — instead of the leapfrog's ordered seeks.

Included as the paper's referenced baseline; it matches the Tributary join
result-for-result (see the property tests) and lets benchmarks compare the
probe-counted cost profiles of the two worst-case-optimal strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from ..query.atoms import Comparison, ConjunctiveQuery, Variable
from ..storage.relation import Relation
from .tributary import Encoder, _identity_encoder


@dataclass
class GenericJoinStats:
    """Work counters for one Generic Join execution."""

    probes: int = 0  # hash probes (the NPRR analogue of seeks)
    results: int = 0
    index_cost: int = 0  # tuples inserted while building the hash tries


def _build_trie(
    rows: Sequence[tuple[int, ...]], positions: Sequence[int]
) -> dict:
    """Nested dicts keyed by the values at ``positions``, in order."""
    root: dict = {}
    for row in rows:
        node = root
        for position in positions[:-1]:
            node = node.setdefault(row[position], {})
        node[row[positions[-1]]] = True
    return root


@dataclass
class _IndexedAtom:
    alias: str
    key_variables: tuple[Variable, ...]
    trie: dict


class GenericJoin:
    """One multiway Generic Join for a fixed global variable order.

    The public surface mirrors :class:`~repro.leapfrog.tributary
    .TributaryJoin`: constants, repeated variables, comparisons, and head
    projection with de-duplication are all supported.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        relations: Mapping[str, Relation],
        order: Optional[Sequence[Variable]] = None,
        encoder: Encoder = _identity_encoder,
    ) -> None:
        self.query = query
        self.order = tuple(order) if order is not None else query.variables()
        if set(self.order) != set(query.variables()):
            raise ValueError(
                f"order {self.order} must cover all query variables "
                f"{query.variables()}"
            )
        self.stats = GenericJoinStats()
        self._indexed: list[_IndexedAtom] = []
        for atom in query.atoms:
            relation = (
                relations[atom.alias]
                if atom.alias in relations
                else relations[atom.relation]
            )
            rows = relation.rows
            for position, constant in atom.constants():
                value = encoder(constant.value)
                rows = [row for row in rows if row[position] == value]
            for variable in atom.variables():
                positions = atom.positions_of(variable)
                if len(positions) > 1:
                    first = positions[0]
                    rows = [
                        row
                        for row in rows
                        if all(row[p] == row[first] for p in positions)
                    ]
            key_variables = tuple(v for v in self.order if v in atom.variables())
            if set(key_variables) != set(atom.variables()):
                missing = set(atom.variables()) - set(key_variables)
                raise ValueError(
                    f"variable order misses {missing} of atom {atom.alias}"
                )
            positions = [atom.positions_of(v)[0] for v in key_variables]
            if positions:
                trie = _build_trie(rows, positions)
            else:
                # a variable-free atom is a boolean guard: non-empty rows
                # satisfy it (marker entry), empty rows kill the query
                trie = {0: True} if rows else {}
            self._indexed.append(_IndexedAtom(atom.alias, key_variables, trie))
            self.stats.index_cost += len(rows)

        depth_of = {variable: i for i, variable in enumerate(self.order)}
        self._comparisons_at_depth: list[list[Comparison]] = [[] for _ in self.order]
        for comparison in query.comparisons:
            fire = max(depth_of[v] for v in comparison.variables())
            self._comparisons_at_depth[fire].append(comparison)
        self._head_positions = [depth_of[v] for v in query.head]

    def run(self) -> list[tuple[int, ...]]:
        """Every head row, de-duplicated in first-seen order unless the
        query is full."""
        results = list(self.iterate())
        if not self.query.is_full():
            results = list(dict.fromkeys(results))
        return results

    def iterate(self) -> Iterator[tuple[int, ...]]:
        """Yield head rows depth-first, duplicates included; nothing when
        some atom's trie is empty."""
        if any(not indexed.trie for indexed in self._indexed):
            return
        binding = [0] * len(self.order)
        nodes = {indexed.alias: indexed.trie for indexed in self._indexed}
        yield from self._join(0, binding, nodes)

    def _join(
        self,
        depth: int,
        binding: list[int],
        nodes: dict[str, dict],
    ) -> Iterator[tuple[int, ...]]:
        variable = self.order[depth]
        participants = [
            indexed
            for indexed in self._indexed
            if variable in indexed.key_variables
        ]
        # enumerate the smallest candidate set, probe the rest (the O(1)
        # intersection at the heart of NPRR's worst-case optimality)
        smallest = min(participants, key=lambda p: len(nodes[p.alias]))
        others = [p for p in participants if p is not smallest]
        for value in nodes[smallest.alias]:
            self.stats.probes += 1
            if any(value not in nodes[other.alias] for other in others):
                self.stats.probes += len(others)
                continue
            self.stats.probes += len(others)
            binding[depth] = value
            if not self._filters_pass(depth, binding):
                continue
            if depth + 1 == len(self.order):
                self.stats.results += 1
                yield tuple(binding[p] for p in self._head_positions)
                continue
            descended = dict(nodes)
            for participant in participants:
                descended[participant.alias] = nodes[participant.alias][value]
            yield from self._join(depth + 1, binding, descended)

    def _filters_pass(self, depth: int, binding: list[int]) -> bool:
        comparisons = self._comparisons_at_depth[depth]
        if not comparisons:
            return True
        bound = {
            variable: binding[i]
            for i, variable in enumerate(self.order)
            if i <= depth
        }
        return all(comparison.evaluate(bound) for comparison in comparisons)


def generic_join(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    order: Optional[Sequence[Variable]] = None,
    encoder: Encoder = _identity_encoder,
) -> list[tuple[int, ...]]:
    """Convenience one-shot wrapper around :class:`GenericJoin`."""
    return GenericJoin(query, relations, order=order, encoder=encoder).run()
