"""Query hypergraphs: acyclicity, join trees, and fractional LP bounds.

A conjunctive query maps to a hypergraph whose vertices are the query
variables and whose hyperedges are the atoms.  This module provides the
pieces of theory the paper builds on:

- **GYO reduction** — decides (alpha-)acyclicity and, for acyclic queries,
  produces the join tree used by the Yannakakis semijoin reduction
  (paper Sec. 3.6 and Fig. 16).
- **Fractional edge cover LP** — yields the AGM bound on the output size,
  the quantity worst-case-optimal joins are measured against.

The fractional HyperCube share LP (Beame, Koutris, Suciu) lives with its
rounding in :mod:`~repro.hypercube.shares`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .atoms import ConjunctiveQuery, Variable


@dataclass(frozen=True)
class Hyperedge:
    """A hyperedge: the variable set of one atom, tagged with its alias."""

    alias: str
    variables: frozenset[Variable]


class Hypergraph:
    """The hypergraph of a conjunctive query."""

    def __init__(self, query: ConjunctiveQuery) -> None:
        self.query = query
        self.edges: tuple[Hyperedge, ...] = tuple(
            Hyperedge(atom.alias, frozenset(atom.variables())) for atom in query.atoms
        )
        self.vertices: tuple[Variable, ...] = query.variables()

    # ------------------------------------------------------------------
    # GYO reduction / acyclicity
    # ------------------------------------------------------------------

    def gyo_reduction(self) -> "GYOResult":
        """Run the GYO ear-removal algorithm.

        Repeatedly (a) drop vertices that occur in a single remaining edge and
        (b) remove edges contained in another remaining edge, recording the
        containing edge as the removed edge's join-tree parent.  The query is
        alpha-acyclic iff at most one edge remains.
        """
        remaining: dict[str, set[Variable]] = {
            edge.alias: set(edge.variables) for edge in self.edges
        }
        parents: dict[str, Optional[str]] = {}
        removal_order: list[str] = []

        changed = True
        while changed and len(remaining) > 1:
            changed = False
            # (a) remove vertices unique to one edge
            counts: dict[Variable, int] = {}
            for variables in remaining.values():
                for variable in variables:
                    counts[variable] = counts.get(variable, 0) + 1
            for variables in remaining.values():
                lonely = {v for v in variables if counts[v] == 1}
                if lonely:
                    variables -= lonely
                    changed = True
            # (b) remove an edge contained in another edge
            aliases = list(remaining)
            for alias in aliases:
                if alias not in remaining:
                    continue
                variables = remaining[alias]
                for other_alias, other_variables in remaining.items():
                    if other_alias == alias:
                        continue
                    if variables <= other_variables:
                        parents[alias] = other_alias
                        removal_order.append(alias)
                        del remaining[alias]
                        changed = True
                        break

        acyclic = len(remaining) <= 1
        root = next(iter(remaining)) if remaining else None
        if acyclic and root is not None:
            parents[root] = None
        return GYOResult(
            acyclic=acyclic,
            parents=parents if acyclic else {},
            root=root if acyclic else None,
            removal_order=tuple(removal_order),
        )

    def is_acyclic(self) -> bool:
        return self.gyo_reduction().acyclic

    def is_cyclic(self) -> bool:
        return not self.is_acyclic()

    # ------------------------------------------------------------------
    # Fractional edge cover / AGM bound
    # ------------------------------------------------------------------

    def fractional_edge_cover(
        self, cardinalities: Mapping[str, int]
    ) -> dict[str, float]:
        """Minimum-weight fractional edge cover.

        Minimizes ``sum_j u_j * log|R_j|`` subject to covering every variable
        (``sum_{j : x in vars(j)} u_j >= 1``).  The optimum exponentiates to
        the AGM bound.
        """
        from scipy.optimize import linprog  # deferred: no query path solves an LP

        edge_count = len(self.edges)
        costs = np.array(
            [math.log(max(2, cardinalities[edge.alias])) for edge in self.edges]
        )
        # -A u <= -1 encodes the >= 1 covering constraints.
        rows = []
        for vertex in self.vertices:
            rows.append(
                [-1.0 if vertex in edge.variables else 0.0 for edge in self.edges]
            )
        result = linprog(
            c=costs,
            A_ub=np.array(rows),
            b_ub=-np.ones(len(self.vertices)),
            bounds=[(0, None)] * edge_count,
            method="highs",
        )
        if not result.success:
            raise RuntimeError(f"edge cover LP failed: {result.message}")
        return {edge.alias: float(weight) for edge, weight in zip(self.edges, result.x)}

    def agm_bound(self, cardinalities: Mapping[str, int]) -> float:
        """The AGM worst-case output-size bound ``prod_j |R_j|^{u_j}``."""
        cover = self.fractional_edge_cover(cardinalities)
        log_bound = sum(
            weight * math.log(max(2, cardinalities[alias]))
            for alias, weight in cover.items()
        )
        return math.exp(log_bound)


@dataclass(frozen=True)
class GYOResult:
    """Outcome of a GYO reduction.

    ``parents`` maps each atom alias to its join-tree parent alias (``None``
    for the root) — only populated for acyclic queries.  ``removal_order``
    lists aliases from leaves upward, which is exactly the bottom-up semijoin
    order of the Yannakakis algorithm.
    """

    acyclic: bool
    parents: Mapping[str, Optional[str]]
    root: Optional[str]
    removal_order: tuple[str, ...]

    def children(self, alias: str) -> tuple[str, ...]:
        return tuple(
            child for child, parent in self.parents.items() if parent == alias
        )


def join_tree(query: ConjunctiveQuery) -> GYOResult:
    """Join tree of an acyclic query (raises ``ValueError`` if cyclic)."""
    result = Hypergraph(query).gyo_reduction()
    if not result.acyclic:
        raise ValueError(f"query {query.name} is cyclic; no join tree exists")
    return result


def uniform_cardinalities(
    query: ConjunctiveQuery, size: int
) -> dict[str, int]:
    """Convenience: assign the same cardinality to every atom alias."""
    return {atom.alias: size for atom in query.atoms}
