"""Fractional HyperCube shares (the theoretical optimum of Beame et al.).

The HyperCube algorithm factorizes the server count ``p`` into per-variable
*shares* ``p = p_1 * p_2 * ...``.  Beame, Koutris and Suciu model the optimal
shares as a linear program whose solution is generally fractional; Sec. 4 of
the paper starts from that LP and asks how to make the shares integral in
practice.  This module computes the fractional optimum and the two
workload quantities the paper's Fig. 11 normalizes against.

Shares are assigned only to the query's *join variables* — the paper's cube
dimensionality per query (Table 6 column "# Join Variables") counts exactly
those; a non-join variable never reduces any other relation's replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..query.atoms import ConjunctiveQuery, Variable


@dataclass(frozen=True)
class FractionalShares:
    """The LP optimum: per-variable fractional shares and their exponents."""

    query_name: str
    servers: int
    exponents: Mapping[Variable, float]
    shares: Mapping[Variable, float]

    def share(self, variable: Variable) -> float:
        return self.shares.get(variable, 1.0)


def fractional_shares(
    query: ConjunctiveQuery,
    cardinalities: Mapping[str, int],
    servers: int,
) -> FractionalShares:
    """Solve the Beame et al. share LP restricted to the join variables.

    Minimizes the maximum per-relation per-server load
    ``|R_j| / p**(sum of exponents over vars(R_j))`` subject to
    ``sum_i e_i = 1`` and ``e_i >= 0``; shares are ``p_i = p**e_i``.
    """
    join_vars = list(query.join_variables())
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if not join_vars or servers == 1:
        exponents = {variable: 0.0 for variable in join_vars}
        return FractionalShares(
            query.name,
            servers,
            exponents,
            {variable: 1.0 for variable in join_vars},
        )
    from scipy.optimize import linprog  # deferred: no query path solves an LP

    log_p = math.log(servers)
    var_index = {variable: i for i, variable in enumerate(join_vars)}
    n_vars = len(join_vars)
    costs = np.zeros(n_vars + 1)
    costs[-1] = 1.0
    a_ub = []
    b_ub = []
    for atom in query.atoms:
        row = np.zeros(n_vars + 1)
        for variable in atom.variables():
            if variable in var_index:
                row[var_index[variable]] = -log_p
        row[-1] = -1.0
        a_ub.append(row)
        b_ub.append(-math.log(max(2, cardinalities[atom.alias])))
    a_eq = np.zeros((1, n_vars + 1))
    a_eq[0, :n_vars] = 1.0
    result = linprog(
        c=costs,
        A_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        A_eq=a_eq,
        b_eq=np.array([1.0]),
        bounds=[(0.0, 1.0)] * n_vars + [(None, None)],
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"share LP failed for {query.name}: {result.message}")
    exponents = {v: float(result.x[var_index[v]]) for v in join_vars}
    shares = {v: servers**e for v, e in exponents.items()}
    return FractionalShares(query.name, servers, exponents, shares)


def expected_load(
    query: ConjunctiveQuery,
    cardinalities: Mapping[str, int],
    shares: Mapping[Variable, float],
) -> float:
    """Expected data load per server: ``sum_j |R_j| / prod_{i in vars_j} p_i``.

    This is the ``workload(c)`` objective of the paper's Algorithm 1 and the
    quantity Fig. 11 reports as a ratio against the fractional optimum.
    Works for fractional and integral share assignments alike.
    """
    total = 0.0
    for atom in query.atoms:
        divisor = 1.0
        for variable in atom.variables():
            divisor *= shares.get(variable, 1.0)
        total += cardinalities[atom.alias] / divisor
    return total


def optimal_fractional_workload(
    query: ConjunctiveQuery,
    cardinalities: Mapping[str, int],
    servers: int,
) -> float:
    """Per-server load of the (fractional) LP optimum — Fig. 11's baseline."""
    optimum = fractional_shares(query, cardinalities, servers)
    return expected_load(query, cardinalities, optimum.shares)


def replication_factor(
    query: ConjunctiveQuery,
    cardinalities: Mapping[str, int],
    shares: Mapping[Variable, float],
) -> float:
    """Average number of copies made of each input tuple by the shuffle.

    A tuple of ``R_j`` is replicated to ``prod_{i not in vars_j} p_i``
    servers; this returns the cardinality-weighted mean over relations.
    """
    total_tuples = sum(cardinalities[atom.alias] for atom in query.atoms)
    if total_tuples == 0:
        return 1.0
    replicated = 0.0
    for atom in query.atoms:
        copies = 1.0
        atom_vars = set(atom.variables())
        for variable, share in shares.items():
            if variable not in atom_vars:
                copies *= share
        replicated += cardinalities[atom.alias] * copies
    return replicated / total_tuples
