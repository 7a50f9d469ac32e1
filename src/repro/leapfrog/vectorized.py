"""Block-at-a-time numpy backend for the Tributary join inner loop.

The scalar :class:`~repro.leapfrog.tributary.TributaryJoin` pays a Python
binary search per ``seek``.  This module executes the same leapfrog trie
walk level by level over *arrays of trie contexts*, so the seeks of
thousands of sibling contexts collapse into a handful of
``np.searchsorted`` calls (HoneyComb's batched-intersection idea, arXiv
2502.06715), and results are emitted as column blocks instead of one
generator yield each.

One walk serves a **batch of segments** — one query and variable order
(a :class:`~repro.leapfrog.tributary.JoinShape`, prepared once per
operator) over different workers' fragments.  It takes, per atom, each
worker's *unsorted* key columns as they are, packs them into **one** int64
array behind the worker's index in the batch (the *segment*) and sorts it
once (:func:`~repro.engine.kernels.sorted_packed_keys`): with the segment
leading, that sort is every worker's, and no sorted copy is made.  The
segment is trie level 0: the frontier starts with one context per segment,
and everything below is oblivious to how many segments share the walk.  A
simulated worker holds 1/p of the data, so walking workers together is
what fills the batches.  A single join (:meth:`TributaryJoin.iterate`) is
the same walk with one segment.  The one array is the whole trie: level
``d``'s prefix is ``full // stride_d`` and a seek searches ``full`` for
``target · stride_d``.  Only seeks search: every other bound is read from
the level's run index (:meth:`_AtomArrays.index`), built once per level —
the runs inside a block, and a found key's block end, the next run start.
The counted clock still charges the scalar walk's block-end searches.

The walk returns what it found as arrays: head rows per segment, seeks per
(atom, segment) and results per segment.  Nothing in it is per worker.  The
engine reads each worker's frame columns straight into it
(:func:`~repro.engine.local.local_tributary_joins`); a
:class:`~repro.leapfrog.tributary.TributaryJoin` (and
:func:`~repro.leapfrog.tributary.run_joins`) feeds it the key columns of
its relations and folds the counts back into its iterators.

Counted-metric contract (``tests/test_wcoj_differential.py``,
``tests/test_lockstep.py``): result rows, their order, ``TributaryStats``
and the per-iterator ``seeks`` counters of every join are bit-identical to
walking it alone with the scalar backend.  The walk replicates the scalar
seek accounting exactly:

- ``open``      → 1 seek (the block-end upper bound);
- ``next``      → 1 seek when a new key exists, 0 on exhaustion;
- ``seek(v)``   → 1 seek (lower bound) always, +1 (upper bound) on a hit.

Seeks are counted per context and folded per (atom, segment) with
``np.bincount`` into :attr:`VectorizedTributaryRun.seeks`.

The key observation enabling batching: the packed keys are sorted, so
every level's prefixes are globally non-decreasing (across segments too —
the segment is their most significant digit) and a per-block binary search
equals a single global ``searchsorted``.

Execution shape:

- a level with one participant is expanded **wholesale**: its distinct
  keys are the run boundaries inside each block
  (:meth:`VectorizedTributaryRun._single`);
- a level with two is a **merge**: per context the side with fewer runs
  has its distinct keys sought in the other's block by one
  ``searchsorted``, and the insertion points give the hits, the round
  robin's steps and run-offs, and the seeks in closed form
  (:meth:`VectorizedTributaryRun._merge`);
- a level with three or more runs the **lockstep leapfrog**: every live
  context steps once per iteration, in the scalar algorithm's round-robin
  order, and a step is one ``searchsorted`` per participant
  (:meth:`VectorizedTributaryRun._lockstep`).  The root is a level like
  any other: one context per segment;
- every level is descended in **chunks** of at most ``_CHUNK_CAP``
  contexts, and a merge level of at most ``_MERGE_CAP`` rows of the
  smaller blocks, recursively and in order
  (:meth:`VectorizedTributaryRun._walk`),
  so the frontier a batch holds stays bounded however wide the batch, and
  each leaf chunk is emitted as one
  :class:`~repro.engine.kernels.ColumnBlock` of head bindings.  A lone
  segment's first frontier is cut into at least two chunks — the
  HoneyComb-style top-variable domain partitioning — which keeps
  partially-consumed generators recording strictly fewer seeks than
  exhausted ones (the ``try/finally`` contract of ``iterate()``); a batch
  is always drained, so it is not;
- emissions are restored to depth-first order with a stable sort on the
  context index before recursing.  With the segment on top, depth-first
  order *is* the per-segment concatenation, so the emitted blocks, joined,
  split back per segment at the cumulative result counts, and each
  segment's rows keep the order the scalar walk emits (which downstream
  dedup, shuffles, and the golden captures pin).
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..engine import kernels
from ..query.atoms import _COMPARISON_OPS, Constant
from .tributary import JoinShape

#: cap on the contexts of one ``_descend`` call, at every level; bounds the
#: frontier and the lockstep's state while keeping searchsorted batches
#: large (DESIGN.md, "Memory shapes the batch")
_CHUNK_CAP = 8192
#: cap on the rows of the smaller blocks one ``_merge`` call holds, unless
#: one context has more: it bounds the keys enumerated and their state
_MERGE_CAP = 32768


def index_dtype(rows: int) -> np.dtype:
    """The narrowest signed integer that indexes ``rows`` rows and the end
    past them: int32 below ``2**31`` rows, int64 from there on."""
    return np.dtype(np.int32 if rows < 2**31 else np.int64)


class _AtomArrays:
    """The search structure for one atom across a batch of segments.

    ``full`` holds one packed key per row of the segments' fragments,
    sorted, the segment as the leading digit
    (:func:`~repro.engine.kernels.sorted_packed_keys`); ``offsets`` are
    the segments' row boundaries.  Level ``d``'s prefix is ``full //
    strides[d]`` and its key the low digit of that (:meth:`keys`).  Each
    level's run index (:meth:`index`) is built lazily, the first time the
    walk reaches the level.
    """

    __slots__ = ("offsets", "full", "lows", "spans", "strides", "_index")

    def __init__(
        self,
        offsets: np.ndarray,
        full: np.ndarray,
        lows: list[int],
        spans: list[int],
    ) -> None:
        self.offsets = offsets
        self.full = full
        self.lows = lows
        self.spans = spans
        self.strides = [math.prod(spans[d + 1:]) for d in range(len(spans))]
        self._index: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def pack(cls, blocks: Sequence[kernels.ColumnBlock]) -> Optional["_AtomArrays"]:
        """Pack and sort one atom's unsorted key columns, one block per
        segment; ``None`` when segment and key ranges do not fit 63 bits."""
        packing = kernels.sorted_packed_keys(blocks)
        if packing is None:
            return None
        offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum([block.length for block in blocks], out=offsets[1:])
        return cls(offsets, *packing)

    def keys(self, level: int, rows: np.ndarray) -> np.ndarray:
        """The ``level``-th key of the given rows, decoded from the pack."""
        prefixes = self.full[rows] // self.strides[level]
        return prefixes % self.spans[level] + self.lows[level]

    def index(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """``(runs, run_of)`` of ``level``'s equal-prefix runs.

        ``runs`` is where each run starts, then the row count: run ``r`` is
        ``[runs[r], runs[r + 1])``.  ``run_of[row]`` is the run holding
        ``row`` and ``run_of[rows]`` the run count, so the runs inside a
        block ``[lo, hi)`` of the level above are ``run_of[lo]`` up to
        ``run_of[hi]``.  Both come from one change mask, in
        :func:`index_dtype`.
        """
        cached = self._index.get(level)
        if cached is None:
            prefixes = self.full // self.strides[level]
            rows = prefixes.size
            change = prefixes[1:] != prefixes[:-1]
            dtype = index_dtype(rows)
            run_of = np.empty(rows + 1, dtype=dtype)
            run_of[0] = 0
            np.cumsum(change, dtype=dtype, out=run_of[1:rows])
            starts = np.flatnonzero(change)
            runs = np.empty(starts.size + 2, dtype=dtype)
            runs[0], runs[-1] = 0, rows
            np.add(starts, 1, out=runs[1:-1], casting="unsafe")
            run_of[rows] = runs.size - 1
            cached = self._index[level] = (runs, run_of)
        return cached

    def run_end(self, level: int, rows: np.ndarray) -> np.ndarray:
        """Per row, the first row past its run at ``level``: where the
        block of a key found at ``rows`` ends."""
        runs, run_of = self.index(level)
        return runs[run_of[rows] + 1]


class VectorizedTributaryRun:
    """One batched walk of a :class:`JoinShape` over a batch of segments.

    Every segment must have rows in every atom (an empty atom makes the
    scalar walk return before its first seek, so such a segment never
    enters a batch).  What the walk counts it keeps as arrays: ``seeks``
    per (atom, segment) and ``results`` per segment.
    """

    def __init__(
        self, shape: JoinShape, arrays: list[_AtomArrays], segments: int
    ) -> None:
        self.shape = shape
        self.arrays = arrays
        self.segments = segments
        self._depths = len(shape.order)
        self._participants = shape.participants
        # (atom index, depth) -> the atom's own trie level for that depth
        self._levels: dict[tuple[int, int], int] = {}
        for depth, variable in enumerate(shape.order):
            for i in self._participants[depth]:
                self._levels[(i, depth)] = shape.key_variables[i].index(variable)
        # depth -> atoms still to be walked below it; only their blocks are
        # carried down (none at the deepest level, the widest frontier)
        self._carried: list[list[int]] = [
            sorted({i for part in self._participants[depth + 1:] for i in part})
            for depth in range(self._depths)
        ]
        # comparisons as (operator, left depth, right depth | None, constant)
        depth_of = {variable: i for i, variable in enumerate(shape.order)}
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
            for comparisons in shape.comparisons
        ]
        #: seeks counted so far, per (atom, segment)
        self.seeks = np.zeros((len(arrays), segments), dtype=np.int64)
        #: head rows emitted so far, per segment
        self.results = np.zeros(segments, dtype=np.int64)
        self._settle: Optional[Callable[[], None]] = None

    @classmethod
    def build(
        cls, shape: JoinShape, keys: Sequence[Sequence[kernels.ColumnBlock]]
    ) -> Optional["VectorizedTributaryRun"]:
        """A run over ``keys[i][s]``, atom ``i``'s unsorted key columns in
        segment ``s`` (in trie-level order), or ``None`` when some atom's
        segment and key ranges do not pack into 63 bits (the caller walks
        the segments some other way and counts the fallback)."""
        arrays = []
        for blocks in keys:
            packed = _AtomArrays.pack(blocks)
            if packed is None:
                return None
            arrays.append(packed)
        return cls(shape, arrays, len(keys[0]))

    # ------------------------------------------------------------------

    def blocks(
        self, settle: Optional[Callable[[], None]] = None
    ) -> Iterator[kernels.ColumnBlock]:
        """Yield head rows in exact scalar emission order, segment after
        segment; ``settle`` is called after every level is expanded."""
        self._settle = settle
        atoms = range(len(self.arrays))
        yield from self._walk(
            0,
            [],
            np.arange(self.segments, dtype=np.int64),
            {i: self.arrays[i].offsets[:-1] for i in atoms},
            {i: self.arrays[i].offsets[1:] for i in atoms},
        )

    def rows(
        self, settle: Optional[Callable[[], None]] = None
    ) -> list[kernels.ColumnBlock]:
        """Walk to the end (:meth:`blocks`); every segment's head rows, one
        block each, cut from the one block of all of them."""
        width = len(self.shape.head_positions)
        walked = kernels.concat_rows(list(self.blocks(settle)), width)
        cuts = [0, *np.cumsum(self.results).tolist()]
        return [walked[start:stop] for start, stop in zip(cuts, cuts[1:])]

    # ------------------------------------------------------------------

    def _walk(self, depth, bindings, segment, block_lo, block_hi):
        """Descend the contexts at ``depth`` to the deepest level and emit
        them, at most ``_CHUNK_CAP`` contexts per :meth:`_descend` at every
        level, and on a :meth:`_merge` level at most ``_MERGE_CAP`` rows of
        the smaller blocks, chunk by chunk in order, so the emissions stay
        depth-first."""
        if depth == self._depths:
            yield self._emit(bindings, segment)
            return
        count = segment.size
        # a lone segment may stream to a consumer that stops early, so its
        # first frontier is cut in two at least; a batch is always drained
        halves = 2 if depth == 1 and self.segments == 1 else 1
        chunk = max(1, min(count // halves, _CHUNK_CAP))
        # a block holds at least as many rows as distinct keys
        rows = None
        part = self._participants[depth]
        if len(part) == 2:
            rows = np.cumsum(np.minimum(*(block_hi[i] - block_lo[i] for i in part)))
        start = 0
        while start < count:
            stop = min(start + chunk, count)
            if rows is not None:
                done = int(rows[start - 1]) if start else 0
                fits = int(rows.searchsorted(done + _MERGE_CAP, side="right"))
                stop = min(stop, max(start + 1, fits))
            window = slice(start, stop)
            start = stop
            frontier = self._descend(
                depth,
                [b[window] for b in bindings],
                segment[window],
                {i: a[window] for i, a in block_lo.items()},
                {i: a[window] for i, a in block_hi.items()},
            )
            if self._settle is not None:
                self._settle()
            if frontier is not None:
                yield from self._walk(depth + 1, *frontier)

    def _descend(self, depth, bindings, segment, block_lo, block_hi):
        """Expand every context one level down into ``(bindings, segment,
        block_lo, block_hi)``; ``None`` when the frontier empties."""
        part = self._participants[depth]
        if len(part) == 1:
            expand = self._single
        elif len(part) == 2:
            expand = self._merge
        else:
            expand = self._lockstep
        parent_idx, values, blocks = expand(
            part, depth, segment, block_lo, block_hi
        )
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
        self.seeks[index] += np.bincount(
            segment, weights=seeks, minlength=self.segments
        ).astype(np.int64)

    def _run_span(self, index, depth, block_lo, block_hi):
        """Per context, the first of atom ``index``'s runs at ``depth``
        inside its block, and how many there are: its distinct keys."""
        run_of = self.arrays[index].index(self._levels[(index, depth)])[1]
        # block bounds are run boundaries of this level (trie blocks nest)
        first = run_of[block_lo[index]]
        return first, run_of[block_hi[index]] - first

    def _single(self, part, depth, segment, block_lo, block_hi):
        """Wholesale expansion of a one-participant level: every context's
        distinct keys are exactly the packed-key runs inside its block."""
        index = part[0]
        arrays = self.arrays[index]
        level = self._levels[(index, depth)]
        runs = arrays.index(level)[0]
        first, counts = self._run_span(index, depth, block_lo, block_hi)
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
        child_lo = runs[flat]
        child_hi = runs[flat + 1]
        parent_idx = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        values = arrays.keys(level, child_lo)
        return parent_idx, values, {index: (child_lo, child_hi)}

    def _merge(self, part, depth, segment, block_lo, block_hi):
        """A two-participant level as a merge, without a per-step loop.

        Per context, the participant with fewer runs in its block (the
        first one on a tie) has its distinct keys enumerated and sought in
        the other's block, all at once (:meth:`_merge_side`); the step
        count is the only thing that depends on which side that is.  The
        two halves' emissions are interleaved back into context order.
        """
        first, count = {}, {}
        for i in part:
            first[i], count[i] = self._run_span(i, depth, block_lo, block_hi)
        a, b = part
        flip = count[b] < count[a]
        pieces = []
        for enum, contexts in ((a, ~flip), (b, flip)):
            ctx = np.flatnonzero(contexts)
            if ctx.size:
                pieces.append(
                    self._merge_side(
                        part, enum, depth, ctx, first[enum][ctx],
                        count[enum][ctx], segment, block_lo, block_hi,
                    )
                )
        if len(pieces) == 1:
            return pieces[0]
        (parents, values, blocks), (parents_b, values_b, blocks_b) = pieces
        order, parents = kernels.stable_order(
            np.concatenate((parents, parents_b)), segment.size
        )
        values = np.concatenate((values, values_b))[order]
        blocks = {
            i: tuple(
                np.concatenate((mine, theirs))[order]
                for mine, theirs in zip(blocks[i], blocks_b[i])
            )
            for i in blocks
        }
        return parents, values, blocks

    def _merge_side(
        self, part, enum, depth, ctx, first, count, segment, block_lo, block_hi
    ):
        """:meth:`_merge` over the contexts ``ctx`` whose keys are
        enumerated from participant ``enum``: runs ``first`` to ``first +
        count - 1`` of its level are each context's distinct keys.

        One ``searchsorted`` seeks every enumerated key in the other
        participant's block; ``found`` is its first row with a key at or
        above it, ``past`` its first row above it.  The scalar round-robin
        then follows in closed form.  Its turns alternate, and the side on
        turn is the one behind, so every step lands one side on its first
        key at or past the other's: the other side reaches ``found`` of
        each enumerated key it seeks, and the enumerated side skips to the
        first key whose ``past`` moved.  The walk therefore reaches the
        first enumerated key of every gap between the other side's keys,
        plus the key after a common key the enumerated side leads.  On a
        common key the side that got there first leads (calls ``next()``):
        the one whose largest key below it is smaller.  Where both are the
        previous common key — consecutive common keys — the lead is
        inherited from the run's first key, and on the tied first keys of
        a block it is ``part[0]``, slot 0 of the stable initial sort.
        """
        other = part[1] if enum == part[0] else part[0]
        mine, theirs = self.arrays[enum], self.arrays[other]
        level, at = self._levels[(enum, depth)], self._levels[(other, depth)]
        total = int(count.sum())
        heads = np.cumsum(count) - count
        rank = np.arange(total, dtype=np.int64) + np.repeat(first - heads, count)
        runs = mine.index(level)[0]
        lo, hi = runs[rank], runs[rank + 1]
        keys = mine.keys(level, lo)
        # every key sought in the other side's block
        low, span, stride = theirs.lows[at], theirs.spans[at], theirs.strides[at]
        ceiling = min(low + span, 2**63 - 1)
        start, end = block_lo[other][ctx], block_hi[other][ctx]
        prefix = theirs.full[start] // stride
        shift = np.repeat(prefix - prefix % span - low, count)
        # a key below the other side's lowest seeks its lowest: same landing
        found = theirs.full.searchsorted(
            kernels.seek_targets(np.maximum(keys, low), ceiling, shift, stride)
        )
        hit = found < np.repeat(end, count)
        hit &= theirs.full.take(found, mode="clip") // stride - shift == keys
        # a hit lands on the first row of its key's run: the block ends
        # where the next run starts
        past = found.copy()
        past[hit] = theirs.run_end(at, found[hit])
        # ``past`` of the key before, the other block's start before a
        # context's first key
        before = np.empty_like(past)
        before[1:] = past[:-1]
        before[heads] = start
        # who calls next() on a common key: we do when we got there first,
        # i.e. they had a key between ours and the one before; consecutive
        # common keys inherit it, a segmented forward fill
        inherit = hit & (found == before)
        leads = hit.copy()
        leads[heads[inherit[heads]]] = enum == part[0]
        inherit[heads] = False
        source = np.where(inherit, 0, np.arange(total, dtype=np.int64))
        np.maximum.accumulate(source, out=source)
        leads = leads[source]
        reached = past != before
        reached[heads] = True
        reached[1:] |= leads[:-1]
        steps = np.add.reduceat(reached, heads, dtype=np.int64)
        led = np.add.reduceat(leads, heads, dtype=np.int64)
        hits = np.add.reduceat(hit, heads, dtype=np.int64)
        last = np.maximum.reduceat(
            np.where(reached, np.arange(total, dtype=np.int64), 0), heads
        )
        # the other side runs off seeking (or stepping past) our last key
        # reached, unless we lead there; else we run off seeking theirs
        they_off = (past[last] == end) & ~leads[last]
        # they stand still before our first key is reached when it is below
        # theirs, or tied with it and ours to step
        idle = (found[heads] == start) & (~hit[heads] | leads[heads])
        # the closed form of _lockstep: open() pays its block end, a step a
        # lower bound and a block end, less the lower bound of a next() on
        # a hit and the block end of a step off the block; we step to every
        # key reached but the first, they to every one but an idle first
        segment = segment[ctx]
        self._count(enum, segment, 2 * steps - 1 + ~they_off - led)
        self._count(other, segment, 1 + 2 * (steps - idle) - (hits - led) - they_off)
        blocks = {
            i: (starts[hit], stops[hit])
            for i, starts, stops in ((enum, lo, hi), (other, found, past))
            if i in self._carried[depth]
        }
        return np.repeat(ctx, count)[hit], keys[hit], blocks

    def _lockstep(self, part, depth, segment, block_lo, block_hi):
        """Round-robin leapfrog over arrays of contexts, one binary search
        per participant and step: the levels of three or more participants
        (two are a :meth:`_merge`).

        Every live context steps once per iteration and the turn is shared:
        on turn ``t`` a context moves the iterator in slot ``t`` of its
        stable initial-key order, as the scalar algorithm does.  Cursor
        state is flat, indexed ``participant * n + context``: the position
        ``pos``, the block end ``his`` and ``base``, the prefix above the
        level times its span (a key is ``full[pos] // stride - base + low``).
        A context carries only ``top``, the scalar ``max_key``, and ``same``,
        how many of its iterators sit on it: all ``k`` is a hit.  ``next()`` is
        ``seek(key + 1)``, so one lower bound serves hits and misses.  The
        block-end search after every ``open``/``next``/``seek`` is charged
        but not performed: only the emitted blocks of participants walked
        further down need their ends, read once for the whole level from
        the run index (:meth:`_AtomArrays.run_end`).
        """
        k, n = len(part), segment.size
        fulls, levels, lows, ceilings, strides = [], [], [], [], []
        base = np.empty(k * n, dtype=np.int64)
        keys = np.empty((k, n), dtype=np.int64)
        for j, i in enumerate(part):
            arrays = self.arrays[i]
            level = self._levels[(i, depth)]
            low, span = arrays.lows[level], arrays.spans[level]
            fulls.append(arrays.full)
            levels.append(level)
            lows.append(low)
            ceilings.append(min(low + span, 2**63 - 1))
            strides.append(arrays.strides[level])
            prefix = arrays.full[block_lo[i]] // strides[j]
            np.remainder(prefix, span, out=keys[j])
            np.subtract(prefix, keys[j], out=base[j * n:(j + 1) * n])
            keys[j] += low
        lows, ceilings, stride_of = np.asarray(
            [lows, ceilings, strides], dtype=np.int64
        )
        pos = np.concatenate([block_lo[i] for i in part])
        his = np.concatenate([block_hi[i] for i in part])
        slots = np.argsort(keys, axis=0, kind="stable")
        top = keys.max(axis=0)
        same = np.count_nonzero(keys == top, axis=0)
        acting = np.arange(n, dtype=np.int64)
        # whose hit blocks are walked further down
        carried = [j for j, i in enumerate(part) if i in self._carried[depth]]
        # flat indices of every step taken, every hit, every step off a block
        stepped, emit_at, ran_off = [], [], []
        emit_val, emit_pos = [], []
        # what a turn reads of the flat state depends only on who is alive:
        # gathered when the turn comes round, kept until a context dies
        plans = [None] * k
        turn = 0
        while acting.size:
            plan = plans[turn]
            if plan is None:
                who = slots[turn][acting]
                at = who * n + acting
                # base - low may wrap; seek_targets says why that is exact
                plan = plans[turn] = (
                    at, his[at], ceilings[who], base[at] - lows[who],
                    stride_of[who], [(who == j).nonzero()[0] for j in range(k)],
                )
            at, end, ceiling, shift, stride, groups = plan
            stepped.append(at)
            hit = same == k
            if np.count_nonzero(hit):
                emit_at.append(at[hit])
                emit_val.append(top[hit])
                if carried:
                    emit_pos.append(
                        pos.reshape(k, n).take(acting[hit], axis=1)
                    )
            targets = kernels.seek_targets(top, ceiling, shift, stride, hit)
            landed = np.empty_like(targets)
            fresh = np.empty_like(targets)
            for j, mine in enumerate(groups):
                if mine.size:
                    found = fulls[j].searchsorted(targets[mine])
                    landed[mine] = found
                    # past the array only when past the block: dropped
                    # below; a scalar divisor per group is numpy's fast one
                    fresh[mine] = fulls[j].take(found, mode="clip") // strides[j]
            fresh -= shift
            alive = landed < end
            if np.count_nonzero(alive) < alive.size:
                ran_off.append(at[~alive])
                acting = acting[alive]
                if acting.size == 0:
                    break
                at, landed, fresh = at[alive], landed[alive], fresh[alive]
                top, same = top[alive], same[alive]
                plans = [None] * k
            pos[at] = landed
            same = same * (fresh == top) + 1
            top = fresh
            turn = (turn + 1) % k
        # open() pays its block end; a step pays a lower bound and a block
        # end, less the lower bound on a hit (next() has none) and the block
        # end when the iterator runs off its block
        seeks = (
            1
            + 2 * np.bincount(np.concatenate(stepped), minlength=k * n)
            - np.bincount(np.concatenate(emit_at + ran_off), minlength=k * n)
        )
        for j, i in enumerate(part):
            self._count(i, segment, seeks[j * n:(j + 1) * n])
        if not emit_val:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, {}
        # chronological emissions per context are ascending; a stable sort
        # on the context index restores global depth-first order
        order, all_ctx = kernels.stable_order(np.concatenate(emit_at) % n, n)
        blocks = {}
        if carried:
            all_pos = np.concatenate(emit_pos, axis=1)
            for j in carried:
                lo = all_pos[j][order]
                blocks[part[j]] = (lo, self.arrays[part[j]].run_end(levels[j], lo))
        return all_ctx, np.concatenate(emit_val)[order], blocks

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

    def _emit(self, bindings, segment) -> kernels.ColumnBlock:
        """One chunk's head bindings in scalar emission order, counted per
        segment."""
        self.results += np.bincount(segment, minlength=self.segments)
        head = [bindings[p] for p in self.shape.head_positions]
        return kernels.ColumnBlock(head, segment.size)
