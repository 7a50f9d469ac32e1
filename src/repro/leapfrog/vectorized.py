"""Block-at-a-time numpy backend for the Tributary join inner loop.

The scalar :class:`~repro.leapfrog.tributary.TributaryJoin` pays a Python
binary search per ``seek``.  This module executes the same leapfrog trie
walk level by level over *arrays of trie contexts*, so the seeks of
thousands of sibling contexts collapse into a handful of
``np.searchsorted`` calls (HoneyComb's batched-intersection idea, arXiv
2502.06715), and result tuples are emitted in blocks instead of one
generator yield each.

One walk serves a **batch of prepared joins** — the same query and variable
order over different workers' fragments.  Per atom, the packed prefix keys
of the joins' sorted fragments are laid end to end and the join's index in
the batch (the *segment*) becomes trie level 0: it leads every packed key,
the frontier starts with one context per join, and everything below is
oblivious to how many joins share the walk.  A simulated worker holds 1/p
of the data, so walking workers one at a time feeds the batched kernels
frontiers a few contexts wide; walking them together is what fills the
batches.  A single join (:meth:`TributaryJoin.iterate`) is the same walk
with one segment.

Counted-metric contract (enforced by ``tests/test_wcoj_differential.py``):
result rows, their order, ``TributaryStats.seeks`` / ``results`` /
``sort_cost`` / ``sorted_tuples``, and the per-iterator ``seeks`` counters
of every join are bit-identical to walking it alone with the scalar
backend.  The walk replicates the scalar seek accounting exactly:

- ``open``      → 1 seek (the block-end upper bound);
- ``next``      → 1 seek when a new key exists, 0 on exhaustion;
- ``seek(v)``   → 1 seek (lower bound) always, +1 (upper bound) on a hit.

Seeks are counted per context and folded per (segment, atom) with
``np.bincount`` into the same ``TrieIterator.seeks`` counters the scalar
walk increments.

The key observation enabling batching: a :class:`SortedRelation`'s rows are
sorted lexicographically, so the packed prefix keys of
:func:`~repro.engine.kernels.packed_key_levels` are globally non-decreasing
(across segments too — the segment is their most significant digit) and a
per-block binary search equals a single global ``searchsorted``.

Execution shape:

- a level with one participant is expanded **wholesale** from precomputed
  run boundaries; with several participants it runs the **lockstep
  leapfrog**: per-context cursor arrays advance in the same round-robin
  order as the scalar algorithm, grouped by acting participant so each
  step is at most a few ``searchsorted`` calls per participant.  The root
  is a level like any other: one context per join;
- the level-0 frontier is descended to the deepest level in **chunks** of
  at most ``_CHUNK_CAP`` contexts, each emitted as one block.  A lone
  join's frontier is cut into at least two chunks — the HoneyComb-style
  top-variable domain partitioning — which keeps partially-consumed
  generators recording strictly fewer seeks than exhausted ones (the PR 2
  ``try/finally`` contract); a batch is always drained, so it is not;
- emissions are restored to depth-first order with a stable sort on the
  context index before recursing.  With the segment on top, depth-first
  order *is* the per-join concatenation, so a block splits back per join
  with one ``searchsorted`` on its segment column and each join's rows keep
  the order the scalar walk emits (which downstream dedup, shuffles, and
  the golden captures pin).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from ..engine import kernels
from ..query.atoms import _COMPARISON_OPS, Constant
from .iterator import TrieIterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tributary import TributaryJoin

#: cap on contexts descended per top-level chunk; bounds peak frontier
#: memory while keeping searchsorted batches large
_CHUNK_CAP = 65536

#: cap on input tuples (summed over atoms and joins) walked as one batch.
#: A batch holds its joins' sorted columns and packed prefix keys plus the
#: frontier at once, so this bounds the walk's transient memory; chosen by
#: measurement against the benchmark's peak-RSS bound (DESIGN.md)
BATCH_TUPLE_CAP = 98304

Row = tuple[int, ...]


class _AtomArrays:
    """Search structures for one atom across a batch of joins.

    ``packed`` holds the prefix keys of every depth over the concatenation
    of the joins' sorted fragments, the join's index in the batch (the
    segment) as their leading digit; ``offsets`` are the segments' row
    boundaries.  The key columns themselves are not copied: a row's key is
    the low digit of its packed key (:meth:`keys`).  Run boundaries per
    level are built lazily.
    """

    __slots__ = ("offsets", "packed", "lows", "spans", "_runs")

    def __init__(
        self,
        offsets: np.ndarray,
        packed: list[np.ndarray],
        lows: list[int],
        spans: list[int],
    ) -> None:
        self.offsets = offsets
        self.packed = packed
        self.lows = lows
        self.spans = spans
        self._runs: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def gather(cls, relations) -> Optional["_AtomArrays"]:
        """Pack one atom's sorted relations; ``None`` when segment and key
        ranges do not fit 63 bits."""
        packing = kernels.packed_key_levels(
            [relation._columns_array for relation in relations]
        )
        if packing is None:
            return None
        offsets = np.zeros(len(relations) + 1, dtype=np.int64)
        np.cumsum([len(relation) for relation in relations], out=offsets[1:])
        return cls(offsets, *packing)

    def keys(self, level: int, rows: np.ndarray) -> np.ndarray:
        """The ``level``-th key of the given rows, decoded from the pack."""
        digits = self.packed[level][rows] % np.uint64(self.spans[level])
        return digits.astype(np.int64) + self.lows[level]

    def runs(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """(starts, ends) of the equal-key runs of ``packed[level]``."""
        cached = self._runs.get(level)
        if cached is None:
            packed = self.packed[level]
            change = np.flatnonzero(packed[1:] != packed[:-1]) + 1
            starts = np.concatenate(
                (np.zeros(1, dtype=np.int64), change.astype(np.int64))
            )
            ends = np.concatenate(
                (starts[1:], np.asarray([packed.size], dtype=np.int64))
            )
            cached = (starts, ends)
            self._runs[level] = cached
        return cached


class VectorizedTributaryRun:
    """One batched walk over prepared joins of one query and variable order.

    Every join must have no empty atom (an empty atom makes the scalar walk
    return before its first seek, so such joins never enter a batch).
    """

    def __init__(
        self, joins: Sequence["TributaryJoin"], arrays: list[_AtomArrays]
    ) -> None:
        self.joins = list(joins)
        self.arrays = arrays
        join = self.joins[0]
        self._depths = len(join.order)
        # order[depth] -> participating prepared-atom indices
        self._participants: list[list[int]] = [
            [
                i
                for i, p in enumerate(join._prepared)
                if variable in p.key_variables
            ]
            for variable in join.order
        ]
        # (atom index, depth) -> the atom's own trie level for that depth
        self._levels: dict[tuple[int, int], int] = {}
        for depth, variable in enumerate(join.order):
            for i in self._participants[depth]:
                self._levels[(i, depth)] = join._prepared[
                    i
                ].key_variables.index(variable)
        # depth -> atoms still to be walked below it; only their blocks are
        # carried down (none at the deepest level, the widest frontier)
        self._carried: list[list[int]] = [
            sorted({i for part in self._participants[depth + 1:] for i in part})
            for depth in range(self._depths)
        ]
        # comparisons as (operator, left depth, right depth | None, constant)
        depth_of = {variable: i for i, variable in enumerate(join.order)}
        self._filters = [
            [
                (
                    _COMPARISON_OPS[c.op],
                    depth_of[c.left],
                    None if isinstance(c.right, Constant) else depth_of[c.right],
                    c.right.value if isinstance(c.right, Constant) else None,
                )
                for c in comparisons
            ]
            for comparisons in join._comparisons_at_depth
        ]
        # seeks counted by the batched walk per (atom, segment), flushed
        # into the scalar iterators' counters so ``total_seeks()`` stays
        # the one source
        self._pending = [
            np.zeros(len(self.joins), dtype=np.int64) for _ in arrays
        ]

    # ------------------------------------------------------------------

    @staticmethod
    def supports(join: "TributaryJoin") -> bool:
        """Whether this join has a batched walk at all: every atom a sorted
        array prepared under numpy kernels (columnar), not a B-tree."""
        return kernels.get_backend() == "numpy" and all(
            isinstance(p.iterator, TrieIterator)
            and p.iterator.relation._columns_array is not None
            for p in join._prepared
        )

    @classmethod
    def build(
        cls, joins: Sequence["TributaryJoin"]
    ) -> Optional["VectorizedTributaryRun"]:
        """A batched run over supported joins, or ``None`` when some atom's
        segment and key ranges do not pack into 63 bits (the caller walks
        the joins some other way and counts the fallback)."""
        arrays = []
        for i in range(len(joins[0]._prepared)):
            gathered = _AtomArrays.gather(
                [join._prepared[i].iterator.relation for join in joins]
            )
            if gathered is None:
                return None
            arrays.append(gathered)
        return cls(joins, arrays)

    # ------------------------------------------------------------------

    def blocks(self) -> Iterator[tuple[list[Row], list[int]]]:
        """Yield ``(rows, bounds)`` blocks in exact scalar emission order.

        ``rows`` are head tuples of consecutive joins; join ``s`` of the
        batch owns ``rows[bounds[s]:bounds[s + 1]]``.
        """
        atoms = range(len(self.arrays))
        frontier = self._descend(
            0,
            [],
            np.arange(len(self.joins), dtype=np.int64),
            {i: self.arrays[i].offsets[:-1] for i in atoms},
            {i: self.arrays[i].offsets[1:] for i in atoms},
        )
        if frontier is None:
            return
        bindings, segment, block_lo, block_hi = frontier
        count = segment.size
        # a lone join streams to a consumer that may stop early, so its
        # frontier is cut in two at least; a batch is always drained and
        # descends whole, up to the cap
        halves = 2 if len(self.joins) == 1 else 1
        chunk = max(1, min(count // halves, _CHUNK_CAP))
        for start in range(0, count, chunk):
            stop = min(start + chunk, count)
            frontier = (
                [b[start:stop] for b in bindings],
                segment[start:stop],
                {i: a[start:stop] for i, a in block_lo.items()},
                {i: a[start:stop] for i, a in block_hi.items()},
            )
            for depth in range(1, self._depths):
                frontier = self._descend(depth, *frontier)
                if frontier is None:
                    break
            else:
                yield self._emit(frontier[0], frontier[1])

    # ------------------------------------------------------------------

    def _descend(self, depth, bindings, segment, block_lo, block_hi):
        """Expand every context one level down into ``(bindings, segment,
        block_lo, block_hi)``; ``None`` when the frontier empties."""
        part = self._participants[depth]
        expand = self._single if len(part) == 1 else self._lockstep
        parent_idx, values, blocks = expand(
            part, depth, segment, block_lo, block_hi
        )
        self._flush_seeks()
        if values.size == 0:
            return None
        child_bindings = [b[parent_idx] for b in bindings]
        child_bindings.append(values)
        child_segment = segment[parent_idx]
        child_lo: dict[int, np.ndarray] = {}
        child_hi: dict[int, np.ndarray] = {}
        for i in self._carried[depth]:
            if i in blocks:
                child_lo[i], child_hi[i] = blocks[i]
            else:
                child_lo[i] = block_lo[i][parent_idx]
                child_hi[i] = block_hi[i][parent_idx]
        keep = self._filter_mask(depth, child_bindings)
        if keep is not None:
            child_bindings = [b[keep] for b in child_bindings]
            child_segment = child_segment[keep]
            child_lo = {i: a[keep] for i, a in child_lo.items()}
            child_hi = {i: a[keep] for i, a in child_hi.items()}
            if child_segment.size == 0:
                return None
        return child_bindings, child_segment, child_lo, child_hi

    def _count(self, index: int, segment: np.ndarray, seeks: np.ndarray) -> None:
        """Fold per-context seek counts of one atom into its segments."""
        self._pending[index] += np.bincount(
            segment, weights=seeks, minlength=len(self.joins)
        ).astype(np.int64)

    def _single(self, part, depth, segment, block_lo, block_hi):
        """Wholesale expansion of a one-participant level: every context's
        distinct keys are exactly the packed-key runs inside its block."""
        index = part[0]
        arrays = self.arrays[index]
        level = self._levels[(index, depth)]
        starts, ends = arrays.runs(level)
        lo = block_lo[index]
        hi = block_hi[index]
        # block bounds are run boundaries of this level (trie blocks nest),
        # so the runs of context c are starts[first[c] : last[c]]
        first = np.searchsorted(starts, lo, side="left")
        last = np.searchsorted(starts, hi, side="left")
        counts = last - first
        total = int(counts.sum())
        # 1 open + (distinct - 1) nexts per context = its run count
        self._count(index, segment, counts)
        offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1])
        )
        flat = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets, counts)
            + np.repeat(first, counts)
        )
        child_lo = starts[flat]
        child_hi = ends[flat]
        parent_idx = np.repeat(np.arange(lo.size, dtype=np.int64), counts)
        values = arrays.keys(level, child_lo)
        return parent_idx, values, {index: (child_lo, child_hi)}

    def _lockstep(self, part, depth, segment, block_lo, block_hi):
        """Round-robin leapfrog over arrays of contexts.

        Per-context state mirrors the scalar algorithm exactly — cursor
        position/block-end per participant, the stable initial-key slot
        order, the acting-pointer ``p``, and ``max_key`` — advanced for all
        live contexts at once, grouped by acting participant so each step
        costs at most three ``searchsorted`` batches per participant.
        """
        count = len(part)
        context_count = segment.size
        levels = [self._levels[(i, depth)] for i in part]
        arrays = [self.arrays[i] for i in part]
        shape = (count, context_count)
        pos = np.empty(shape, dtype=np.int64)
        end = np.empty(shape, dtype=np.int64)
        his = np.empty(shape, dtype=np.int64)
        keys = np.empty(shape, dtype=np.int64)
        for j, i in enumerate(part):
            pos[j] = block_lo[i]
            end[j] = kernels.run_bounds(arrays[j].packed[levels[j]], pos[j])
            his[j] = block_hi[i]
            keys[j] = arrays[j].keys(levels[j], pos[j])
        # seeks per (participant, context); every open() pays its block-end
        # upper bound up front
        seeks = np.ones(shape, dtype=np.int64)
        slot_order = np.argsort(keys, axis=0, kind="stable")
        max_key = keys.max(axis=0)
        pointer = np.zeros(context_count, dtype=np.int64)
        acting = np.arange(context_count, dtype=np.int64)
        # whether any participant's hit blocks are needed further down
        carried = not set(part).isdisjoint(self._carried[depth])
        emit_ctx: list[np.ndarray] = []
        emit_val: list[np.ndarray] = []
        emit_pos: list[np.ndarray] = []
        emit_end: list[np.ndarray] = []
        while acting.size:
            current = slot_order[pointer[acting], acting]
            top = max_key[acting]
            agreed = keys[current, acting] == top
            # a hit costs its acting iterator one seek (next()'s block-end
            # bound), a miss two (seek()'s lower bound, then the block end);
            # an iterator that runs off its block skips the block-end bound
            seeks[current, acting] += 2 - agreed
            # next(): hop to the block end (misses are overwritten below)
            new_pos = end[current, acting]
            hit_count = np.count_nonzero(agreed)
            if hit_count:
                hits = acting[agreed]
                emit_ctx.append(hits)
                emit_val.append(top[agreed])
                if carried:
                    emit_pos.append(pos[:, hits])
                    emit_end.append(end[:, hits])
            if hit_count < acting.size:
                missed = ~agreed
                for j in range(count):
                    mine = (missed & (current == j)).nonzero()[0]
                    if mine.size == 0:
                        continue
                    # seek(max_key): one batched lower bound under the
                    # context's prefix — its segment at the top level
                    seeking = acting[mine]
                    level = levels[j]
                    if level > 0:
                        prefixes = arrays[j].packed[level - 1][pos[j, seeking]]
                    else:
                        prefixes = segment[seeking].astype(np.uint64)
                    new_pos[mine] = kernels.batched_seek_lower_bounds(
                        arrays[j].packed[level],
                        prefixes,
                        top[mine],
                        arrays[j].lows[level],
                        arrays[j].spans[level],
                    )
            exhausted = new_pos >= his[current, acting]
            if np.count_nonzero(exhausted):
                seeks[current[exhausted], acting[exhausted]] -= 1
                alive = ~exhausted
                acting = acting[alive]
                if acting.size == 0:
                    break
                current = current[alive]
                new_pos = new_pos[alive]
            pos[current, acting] = new_pos
            for j in range(count):
                mine = (current == j).nonzero()[0]
                if mine.size == 0:
                    continue
                landed = new_pos[mine]
                contexts = acting[mine]
                level = levels[j]
                end[j, contexts] = kernels.run_bounds(
                    arrays[j].packed[level], landed
                )
                fresh = arrays[j].keys(level, landed)
                keys[j, contexts] = fresh
                max_key[contexts] = fresh
            pointer[acting] = (pointer[acting] + 1) % count
        for j, i in enumerate(part):
            self._count(i, segment, seeks[j])
        if not emit_ctx:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, {}
        all_ctx = np.concatenate(emit_ctx)
        # chronological emissions per context are ascending; a stable sort
        # on the context index restores global depth-first order
        order = np.argsort(all_ctx, kind="stable")
        blocks = {}
        if carried:
            all_pos = np.concatenate(emit_pos, axis=1)[:, order]
            all_end = np.concatenate(emit_end, axis=1)[:, order]
            blocks = {i: (all_pos[j], all_end[j]) for j, i in enumerate(part)}
        return all_ctx[order], np.concatenate(emit_val)[order], blocks

    # ------------------------------------------------------------------

    def _filter_mask(self, depth, bindings) -> Optional[np.ndarray]:
        """Comparison-predicate mask at this depth (``None`` = keep all).

        A comparison fires at the deepest variable it mentions, so both of
        its sides are bound here and the mask is one array expression.
        """
        keep = None
        for compare, left, right, constant in self._filters[depth]:
            mask = compare(
                bindings[left], constant if right is None else bindings[right]
            )
            keep = mask if keep is None else keep & mask
        return keep

    def _emit(self, bindings, segment) -> tuple[list[Row], list[int]]:
        """Materialize one chunk's head tuples in scalar emission order,
        with the per-join split points of the (sorted) segment column."""
        joins = self.joins
        bounds = np.searchsorted(
            segment, np.arange(len(joins) + 1, dtype=np.int64)
        ).tolist()
        for s, join in enumerate(joins):
            join.stats.results += bounds[s + 1] - bounds[s]
        total = segment.size
        head = joins[0]._head_positions
        if not head:
            return [()] * total, bounds
        columns = [bindings[p].tolist() for p in head]
        if len(columns) == 1:
            return [(value,) for value in columns[0]], bounds
        return list(zip(*columns)), bounds

    def _flush_seeks(self) -> None:
        """Commit batched seek counts to the iterators, then check budgets."""
        for i, pending in enumerate(self._pending):
            for s in np.flatnonzero(pending).tolist():
                self.joins[s]._prepared[i].iterator.seeks += int(pending[s])
            pending[:] = 0
        for join in self.joins:
            join._check_seek_budget()
