"""Worst-case-optimal joins: the Tributary join (LFTJ over sorted arrays),
the NPRR-style Generic Join, and the variable-order optimizer."""

from .generic_join import GenericJoin, GenericJoinStats, generic_join
from .iterator import TrieIterator
from .tributary import (
    SeekBudgetExceeded,
    TributaryJoin,
    TributaryStats,
    prepare_atom,
    run_joins,
    tributary_join,
)
from .variable_order import (
    OrderCost,
    best_join_order,
    enumerate_join_orders,
    estimate_order_cost,
    full_variable_order,
)

__all__ = [
    "GenericJoin",
    "GenericJoinStats",
    "OrderCost",
    "SeekBudgetExceeded",
    "TributaryJoin",
    "TributaryStats",
    "TrieIterator",
    "best_join_order",
    "enumerate_join_orders",
    "estimate_order_cost",
    "full_variable_order",
    "generic_join",
    "prepare_atom",
    "run_joins",
    "tributary_join",
]
