"""Lexicographically sorted relations — the scalar Tributary join's store.

The paper's key engineering decision (Sec. 2.2) is that, because relation
fragments only exist *after* the shuffle, preprocessing into B-trees is
impossible; instead each fragment is sorted on the fly and the LFTJ API is
implemented with binary search over the sorted array (``seek`` costs
``O(log n)`` instead of LogicBlox's amortized ``O(1)``, keeping the join
worst-case optimal up to a log factor).

:class:`SortedRelation` holds the key columns of every row, in sort-column
order, as one sorted list of tuples, and answers the trie iterator's seeks
with :mod:`bisect`.  Only the scalar walk reads it — the python kernel
backend, and a join whose keys overflow the batched walk's 63-bit pack.
The batched walk sorts one packed key array per atom for all its workers
(:func:`~repro.engine.kernels.sorted_packed_keys`) and reads nothing here:
the engine hands it frame columns, and a prepared join the unsorted base
rows.  The sort is lazy, on the first read of ``rows``;
:attr:`SortedRelation.sort_cost` is the paper's per-fragment sort, which
the engine charges whichever walk runs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from operator import itemgetter
from typing import Sequence

from .relation import Relation


def _sort_cost(n: int) -> int:
    """Comparison-count proxy for sorting ``n`` rows (``n log2 n``)."""
    if n <= 1:
        return n
    return int(n * max(1, (n - 1).bit_length()))


class SortedRelation:
    """The key columns of a relation's rows, sorted for a given column order.

    ``order`` is a sequence of column positions of the base relation; row
    ``(a, b, c)`` sorted with ``order=(2, 0)`` is stored as ``(c, a)``.
    """

    def __init__(self, relation: Relation, order: Sequence[int]) -> None:
        order = tuple(order)
        if len(set(order)) != len(order):
            raise ValueError(f"duplicate positions in sort order {order}")
        for position in order:
            if not 0 <= position < relation.arity:
                raise ValueError(
                    f"position {position} out of range for {relation.name}"
                )
        self.base = relation
        self.order = order
        self.columns = tuple(relation.columns[p] for p in order)
        #: comparison-count proxy recorded so the engine can charge sort cost
        self.sort_cost = _sort_cost(len(relation.rows))

    @property
    def name(self) -> str:
        """The base relation's name."""
        return self.base.name

    @cached_property
    def rows(self) -> list[tuple[int, ...]]:
        """The key columns of every row, sorted; sorted when first read."""
        order = self.order
        return sorted(tuple(row[p] for p in order) for row in self.base.rows)

    def __len__(self) -> int:
        return len(self.base.rows)

    # ------------------------------------------------------------------
    # Seek primitives used by the trie iterator
    # ------------------------------------------------------------------

    def key_at(self, depth: int, index: int) -> int:
        """The ``depth``-th key of the row at ``index``."""
        return self.rows[index][depth]

    def lower_bound(self, depth: int, value: int, lo: int, hi: int) -> int:
        """First index in ``[lo, hi)`` whose ``depth``-th key is ``>= value``.

        Only valid when rows in ``[lo, hi)`` share a common prefix of length
        ``depth``, which the trie iterator guarantees.
        """
        return bisect_left(self.rows, value, lo, hi, key=itemgetter(depth))

    def upper_bound(self, depth: int, value: int, lo: int, hi: int) -> int:
        """First index in ``[lo, hi)`` whose ``depth``-th key is ``> value``."""
        return bisect_right(self.rows, value, lo, hi, key=itemgetter(depth))
