"""Variable-order optimization for the Tributary join (paper Sec. 5).

LFTJ is worst-case optimal for *any* global variable order, but in practice
a bad order can be orders of magnitude slower (Table 7 shows up to ~100x).
The paper's cost model estimates the number of binary searches a given order
will trigger:

- ``S_1 = min over atoms containing the first variable of V(R_j, first var)``
  — the smallest active domain bounds the first-level intersection;
- ``S_i = min over atoms containing variable i of
  V(R_j, p_{i,j}) / V(R_j, p_{i-1,j})`` — the expected number of distinct
  values of variable ``i`` inside one residual relation, estimated from
  distinct-prefix statistics;
- ``Cost = S_1 + S_1*S_2 + S_1*S_2*S_3 + ...`` (the recursion of Eq. 4).

Non-join variables do not constrain anything and are appended after the
join variables, as in the paper ("a global order of all attributes that
participate in the join").
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..query.atoms import ConjunctiveQuery, Variable
from ..query.catalog import Catalog


@dataclass(frozen=True)
class OrderCost:
    """A candidate variable order with its estimated cost."""

    order: tuple[Variable, ...]
    cost: float
    step_sizes: tuple[float, ...]


def _step_size(
    query: ConjunctiveQuery,
    catalog: Catalog,
    prefix: Sequence[Variable],
    variable: Variable,
) -> float:
    """``S_i``: distinct values of ``variable`` expected inside one residual
    relation once ``prefix`` is bound — the minimum over the atoms holding it
    of ``V(R_j, p_i) / V(R_j, p_{i-1})`` (just ``V(R_j, p_i)`` for an atom
    the prefix does not reach)."""
    candidates: list[float] = []
    for atom in query.atoms:
        if variable not in atom.variables():
            continue
        bound = [atom.positions_of(v)[0] for v in prefix if v in atom.variables()]
        count = catalog.atom_prefix_count_positions(
            atom, bound + [atom.positions_of(variable)[0]]
        )
        if bound:
            count /= max(1, catalog.atom_prefix_count_positions(atom, bound))
        candidates.append(float(count))
    return min(candidates) if candidates else 1.0


def _fold_order(
    query: ConjunctiveQuery,
    catalog: Catalog,
    order: tuple[Variable, ...],
    sizes: dict[tuple, float],
) -> OrderCost:
    """``S_1 + S_1*S_2 + ...`` over one order; ``sizes`` keeps each step size
    per (prefix, variable) for the orders that share the prefix."""
    product, cost, steps = 1.0, 0.0, []
    for i, variable in enumerate(order):
        key = (order[:i], variable)
        if key not in sizes:
            sizes[key] = _step_size(query, catalog, order[:i], variable)
        product *= sizes[key]
        cost += product
        steps.append(sizes[key])
    return OrderCost(order=order, cost=cost, step_sizes=tuple(steps))


def estimate_order_cost(
    query: ConjunctiveQuery,
    catalog: Catalog,
    join_order: Sequence[Variable],
) -> OrderCost:
    """Estimated number of binary searches for a join-variable order."""
    join_order = tuple(join_order)
    if catalog.empty_atoms(query):
        # an empty post-selection atom makes the whole result empty: every
        # order is trivially optimal, and the V(p_i)/V(p_{i-1}) ratios of
        # the step rule would be 0/0 noise — report zero cost without them
        return OrderCost(
            order=join_order, cost=0.0, step_sizes=(0.0,) * len(join_order)
        )
    return _fold_order(query, catalog, join_order, {})


def enumerate_join_orders(
    query: ConjunctiveQuery,
    limit: Optional[int] = None,
    sample: Optional[int] = None,
    seed: int = 0,
) -> Iterator[tuple[Variable, ...]]:
    """Permutations of the join variables.

    With ``sample`` set, draws that many random permutations (the paper's
    Fig. 12 methodology draws 20 random orders per query); otherwise yields
    all ``n!`` orders, truncated to ``limit`` when given.
    """
    join_vars = list(query.join_variables())
    if sample is not None:
        rng = random.Random(seed)
        seen: set[tuple[Variable, ...]] = set()
        attempts = 0
        while len(seen) < sample and attempts < sample * 50:
            candidate = tuple(rng.sample(join_vars, len(join_vars)))
            attempts += 1
            if candidate not in seen:
                seen.add(candidate)
                yield candidate
        return
    for index, order in enumerate(itertools.permutations(join_vars)):
        if limit is not None and index >= limit:
            return
        yield order


def best_join_order(
    query: ConjunctiveQuery,
    catalog: Catalog,
    limit: int = 5040,
    seed: int = 0,
) -> OrderCost:
    """The join-variable order with the minimum estimated cost.

    Exact while ``n!`` fits in ``limit`` (7 join variables by default): a
    depth-first search over prefixes in ``itertools.permutations`` order.
    Step sizes are non-negative, so a prefix's cost bounds every completion
    from below and a branch whose prefix already costs as much as the best
    order so far is skipped; ties keep the first minimum in permutation
    order.  Beyond that, scores ``limit`` random orders instead — still
    cutting runtimes by orders of magnitude per Table 7 while staying fast.
    """
    join_vars = tuple(query.join_variables())
    if catalog.empty_atoms(query):
        # empty result: skip the enumeration entirely (trivial plan)
        return estimate_order_cost(query, catalog, join_vars)
    best: Optional[OrderCost] = None
    if math.factorial(len(join_vars)) > limit:
        sizes: dict[tuple, float] = {}
        for order in enumerate_join_orders(query, sample=limit, seed=seed):
            candidate = _fold_order(query, catalog, order, sizes)
            if best is None or candidate.cost < best.cost:
                best = candidate
        return best or OrderCost(order=(), cost=0.0, step_sizes=())

    def descend(
        prefix: tuple, rest: tuple, product: float, cost: float, steps: tuple
    ) -> None:
        nonlocal best
        if best is not None and cost >= best.cost:
            return
        if not rest:
            best = OrderCost(order=prefix, cost=cost, step_sizes=steps)
        for i, variable in enumerate(rest):
            size = _step_size(query, catalog, prefix, variable)
            reached = product * size
            descend(
                prefix + (variable,), rest[:i] + rest[i + 1:],
                reached, cost + reached, steps + (size,),
            )

    descend((), join_vars, 1.0, 0.0, ())
    return best


def full_variable_order(
    query: ConjunctiveQuery, join_order: Sequence[Variable]
) -> tuple[Variable, ...]:
    """Extend a join-variable order with the non-join variables (appended
    last, in query order) so it covers every body variable."""
    join_set = set(join_order)
    tail = [v for v in query.variables() if v not in join_set]
    return tuple(join_order) + tuple(tail)
