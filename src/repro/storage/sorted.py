"""Lexicographically sorted relations — the substrate of the Tributary join.

The paper's key engineering decision (Sec. 2.2) is that, because relation
fragments only exist *after* the shuffle, preprocessing into B-trees is
impossible; instead each fragment is sorted on the fly and the LFTJ API is
implemented with binary search over the sorted array (``seek`` costs
``O(log n)`` instead of LogicBlox's amortized ``O(1)``, keeping the join
worst-case optimal up to a log factor).

:class:`SortedRelation` stores rows *reordered* into the sort-column order so
plain tuple comparison gives lexicographic order, and exposes the range and
seek primitives the trie iterator needs.

Sorting and seeking run through the kernel layer
(:mod:`~repro.engine.kernels`): the numpy backend sorts column arrays with
a packed radix sort (falling back to ``np.lexsort``) and answers
``lower_bound``/``upper_bound`` with ``np.searchsorted``; row tuples are
only materialized lazily, on first access to :attr:`SortedRelation.rows`.
Both backends produce the same sorted order, the same seek answers, and the
same :attr:`SortedRelation.sort_cost` — the counted cost model never
depends on the backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .relation import Relation

if TYPE_CHECKING:
    from ..engine import kernels as _kernels_type  # noqa: F401

_kernels = None


def _kernel_module():
    """Resolve :mod:`repro.engine.kernels` lazily.

    ``engine`` imports ``leapfrog.tributary`` which imports this module, so
    a top-level ``from ..engine import kernels`` would leave
    :class:`SortedRelation` undefined when the import chain enters through
    ``repro.storage``.
    """
    global _kernels
    if _kernels is None:
        from ..engine import kernels

        _kernels = kernels
    return _kernels


def _sort_cost(n: int) -> int:
    """Comparison-count proxy for sorting ``n`` rows (``n log2 n``)."""
    if n <= 1:
        return n
    return int(n * max(1, (n - 1).bit_length()))


class SortedRelation:
    """Rows of a relation, permuted and sorted for a given column order.

    ``order`` is a sequence of column positions of the base relation; row
    ``(a, b, c)`` sorted with ``order=(2, 0)`` is stored as ``(c, a)`` —
    trailing columns not named in ``order`` are dropped only if
    ``keep_rest=False``; by default they are appended in base order so no
    information is lost.
    """

    def __init__(
        self,
        relation: Relation,
        order: Sequence[int],
        keep_rest: bool = True,
        backend: Optional[str] = None,
    ) -> None:
        arity = relation.arity
        order = tuple(order)
        if len(set(order)) != len(order):
            raise ValueError(f"duplicate positions in sort order {order}")
        for position in order:
            if not 0 <= position < arity:
                raise ValueError(f"position {position} out of range for {relation.name}")
        rest = tuple(p for p in range(arity) if p not in order) if keep_rest else ()
        self.base = relation
        self.order = order
        self.permutation = order + rest
        self.columns = tuple(relation.columns[p] for p in self.permutation)
        kernels = _kernel_module()
        self._kernels = kernels
        rows, columns_array = kernels.sort_projected(
            relation.rows, self.permutation, backend
        )
        #: sorted projected rows (materialized lazily on the numpy backend)
        self._rows: Optional[list[tuple[int, ...]]] = rows
        #: ``(width, n)`` int64 column store for searchsorted seeks, or None
        self._columns_array = columns_array
        self._length = (
            len(rows) if rows is not None else columns_array.shape[1]
        )
        #: comparison-count proxy recorded so the engine can charge sort cost
        self.sort_cost = _sort_cost(self._length)

    @property
    def name(self) -> str:
        return self.base.name

    @property
    def rows(self) -> list[tuple[int, ...]]:
        """The sorted projected rows as tuples (materialized on demand)."""
        if self._rows is None:
            self._rows = self._kernels.rows_from_columns(self._columns_array)
        return self._rows

    def __len__(self) -> int:
        return self._length

    def release_columns(self) -> None:
        """Drop the numpy column store, for a holder that has copied what it
        needs of it (the batched walk's packed keys).  The length and
        ``sort_cost`` remain; rows and seeks are no longer answerable."""
        self._columns_array = None

    def depth(self) -> int:
        """Number of key columns (the length of the sort order)."""
        return len(self.order)

    # ------------------------------------------------------------------
    # Range / seek primitives used by the trie iterator
    # ------------------------------------------------------------------

    def key_at(self, depth: int, index: int) -> int:
        """The ``depth``-th key of the row at ``index`` (columnar access)."""
        if self._columns_array is not None:
            return int(self._columns_array[depth, index])
        return self._rows[index][depth]

    def lower_bound(self, depth: int, value: int, lo: int, hi: int) -> int:
        """First index in ``[lo, hi)`` whose ``depth``-th key is ``>= value``.

        Only valid when rows in ``[lo, hi)`` share a common prefix of length
        ``depth``, which the trie iterator guarantees.
        """
        return self._kernels.lower_bound(
            self._rows, depth, value, lo, hi, self._columns_array
        )

    def upper_bound(self, depth: int, value: int, lo: int, hi: int) -> int:
        """First index in ``[lo, hi)`` whose ``depth``-th key is ``> value``."""
        return self._kernels.upper_bound(
            self._rows, depth, value, lo, hi, self._columns_array
        )

    def value_range(
        self, depth: int, value: int, lo: int, hi: int
    ) -> tuple[int, int]:
        """The sub-range of ``[lo, hi)`` whose ``depth``-th key equals ``value``."""
        start = self.lower_bound(depth, value, lo, hi)
        end = self.upper_bound(depth, value, start, hi)
        return start, end

    # ------------------------------------------------------------------
    # Statistics for the Sec. 5 cost model
    # ------------------------------------------------------------------

    def distinct_prefix_count(self, length: int) -> int:
        """Number of distinct key prefixes of the given length, ``V(R, p)``.

        ``length=0`` counts the empty prefix (1 when non-empty).  Computed in
        one linear scan over the sorted data.
        """
        if length > len(self.permutation):
            raise ValueError(f"prefix length {length} exceeds arity")
        if self._columns_array is not None:
            return self._kernels.distinct_prefix_count(
                range(self._length), length, self._columns_array
            )
        return self._kernels.distinct_prefix_count(self._rows, length)
