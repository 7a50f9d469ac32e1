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
(:mod:`~repro.engine.kernels`): :attr:`SortedRelation.rows` is whatever
``sort_projected`` returns — a sorted list on the python backend; on numpy
a sorted :class:`~repro.engine.kernels.ColumnBlock` (packed radix sort,
falling back to ``np.lexsort``) that ``lower_bound``/``upper_bound`` answer
with ``np.searchsorted``.  Both backends produce the same sorted order, the
same seek answers, and the same :attr:`SortedRelation.sort_cost` — the
counted cost model never depends on the backend.

The sort is lazy — on the first read of ``rows``, with the backend in force
when the relation was made — and the batched Tributary walk never reads
them: it sorts one packed key array per atom for all its workers
(:func:`~repro.engine.kernels.sorted_packed_keys`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .relation import Relation


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
        # imported here: ``engine`` imports ``leapfrog.tributary``, which
        # imports this module, so a top-level import would be circular
        from ..engine import kernels

        self._kernels = kernels
        #: the kernel backend the rows are sorted with when first read
        self.backend = kernels.resolve_backend(backend)
        self._rows = None
        self._length: Optional[int] = len(relation.rows)
        #: comparison-count proxy recorded so the engine can charge sort cost
        self.sort_cost = _sort_cost(self._length)

    @property
    def name(self) -> str:
        return self.base.name

    @property
    def rows(self) -> Sequence[tuple[int, ...]]:
        """The sorted projected rows, as the backend holds them; sorted when read."""
        if self._rows is None:
            len(self)  # raises once released
            self._rows = self._kernels.sort_projected(
                self.base.rows, self.permutation, self.backend
            )
        return self._rows

    def __len__(self) -> int:
        if self._length is None:
            raise RuntimeError(
                f"the sorted rows of {self.name} were released: only its "
                "sort_cost remains"
            )
        return self._length

    def release(self) -> None:
        """Give up the rows, for a holder that has packed what it needs of
        them (the batched walk's sorted keys).  ``sort_cost`` remains; the
        length, rows, seeks and prefix counts raise ``RuntimeError``."""
        self._rows = self._length = None

    def depth(self) -> int:
        """Number of key columns (the length of the sort order)."""
        return len(self.order)

    # ------------------------------------------------------------------
    # Range / seek primitives used by the trie iterator
    # ------------------------------------------------------------------

    def key_at(self, depth: int, index: int) -> int:
        """The ``depth``-th key of the row at ``index``."""
        return self.rows[index][depth]

    def lower_bound(self, depth: int, value: int, lo: int, hi: int) -> int:
        """First index in ``[lo, hi)`` whose ``depth``-th key is ``>= value``.

        Only valid when rows in ``[lo, hi)`` share a common prefix of length
        ``depth``, which the trie iterator guarantees.
        """
        return self._kernels.lower_bound(self.rows, depth, value, lo, hi)

    def upper_bound(self, depth: int, value: int, lo: int, hi: int) -> int:
        """First index in ``[lo, hi)`` whose ``depth``-th key is ``> value``."""
        return self._kernels.upper_bound(self.rows, depth, value, lo, hi)

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
        return self._kernels.distinct_prefix_count(self.rows, length)
