"""Vectorized columnar kernels for the engine's per-tuple hot loops.

The simulator's *counted* cost model (tuples shuffled, skews, seeks,
sort_cost) is what reproduces the paper's figures, but DESIGN.md also
promises real measured time for the kernels themselves.  This module is the
seam between the two: every per-tuple loop in the shuffle, sort, and join
hot paths is expressed as a kernel with two interchangeable backends,

- ``python`` — the original tuple-at-a-time loops, kept verbatim as the
  reference implementation: row lists in, row lists out;
- ``numpy``  — columnar, vectorized implementations of the same kernels
  (batched multiplicative hashing, radix-sort partitioning, ``np.lexsort``
  sorting, ``np.searchsorted`` seeks, group-by join build/probe) over
  :class:`ColumnBlock` values, one int64 array per column.

Under numpy the block is what flows between kernels.  Rows enter it once
per Scan: the cluster converts the scanned relation with one
:func:`block_from_rows` call and deals each worker a strided view of it
(:meth:`~repro.engine.cluster.Cluster.fragments`).  Every kernel returns
blocks — a scan's selection is one mask, a partition's buckets are slices of
one gathered block, a projection selects columns, a join gathers its output
— and tuples are made once, at the result (:func:`row_tuples`).  A kernel
handed a row list (a test's input) converts it at entry.  A block *is* a
``Sequence[Row]``: anything that iterates, indexes or compares it sees the
tuples of Python ints a row list would hold.

Backends are *semantics-preserving by construction*: destinations, row
orders, result rows, and every counted metric are bit-identical between
them (``tests/test_kernels_differential.py`` proves it across all six
shuffle x join strategies).  Only wall-clock time differs.

The backend is one process-wide switch that every kernel reads, set, in
priority order, by

1. :func:`set_backend` / the :func:`use_backend` context manager,
2. the ``REPRO_KERNELS`` environment variable (``python`` or ``numpy``),
3. the default, ``numpy``.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from itertools import chain
from typing import Optional

import numpy as np

Row = tuple[int, ...]

#: the available kernel backends
KERNEL_BACKENDS = ("python", "numpy")

#: multiplicative-hash constants (Knuth's 2^32 golden-ratio multiplier)
_KNUTH = 2654435761
_MASK = 0xFFFFFFFF

_U_KNUTH = np.uint32(_KNUTH)
_U16 = np.uint32(16)


def _initial_backend() -> str:
    choice = os.environ.get("REPRO_KERNELS", "numpy").strip().lower()
    if choice not in KERNEL_BACKENDS:
        raise ValueError(
            f"REPRO_KERNELS={choice!r} is not a kernel backend; "
            f"use one of {KERNEL_BACKENDS}"
        )
    return choice


_backend = _initial_backend()


def get_backend() -> str:
    """The currently selected kernel backend."""
    return _backend


def set_backend(name: str) -> None:
    """Select the kernel backend globally (``python`` or ``numpy``)."""
    global _backend
    if name not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; use one of {KERNEL_BACKENDS}"
        )
    _backend = name


@contextmanager
def use_backend(name: Optional[str]) -> Iterator[str]:
    """Temporarily select a kernel backend (``None`` keeps the current one)."""
    global _backend
    previous = _backend
    if name is not None:
        set_backend(name)
    try:
        yield _backend
    finally:
        _backend = previous


# ----------------------------------------------------------------------
# The column block: the numpy backend's row container
# ----------------------------------------------------------------------


class ColumnBlock(Sequence):
    """Rows held as one int64 array per column, plus a row count.

    Immutable once built — kernels share column arrays between blocks
    (a projection selects columns, a slice is a view) and the scheduler
    checkpoints slots by reference.  Read as a sequence it yields the same
    tuples of Python ints as the row list it stands for, and compares equal
    to it; an empty block equals any empty sequence, whatever its width.
    It pickles as its arrays, a slice as the rows it covers.
    """

    __slots__ = ("columns", "length")
    __hash__ = None  # compares by content, like the row list it stands for

    def __init__(self, columns: Sequence[np.ndarray], length: int) -> None:
        self.columns = tuple(columns)
        self.length = length

    def __reduce__(self):
        return ColumnBlock, (self.columns, self.length)

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ColumnBlock(
                [column[index] for column in self.columns],
                len(range(*index.indices(self.length))),
            )
        if not -self.length <= index < self.length:
            raise IndexError("block row index out of range")
        return tuple(int(column[index]) for column in self.columns)

    def __eq__(self, other):
        if isinstance(other, (ColumnBlock, list, tuple)):
            return self.tolist() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"ColumnBlock({len(self.columns)} columns, {self.length} rows)"

    def take(self, indices: np.ndarray) -> "ColumnBlock":
        """The rows at ``indices`` (an integer array), in that order."""
        return ColumnBlock(
            [column[indices] for column in self.columns], len(indices)
        )

    def tolist(self) -> list[Row]:
        """The rows as a list of tuples of Python ints."""
        if not self.columns:
            return [()] * self.length
        return list(zip(*(column.tolist() for column in self.columns)))


def block_from_rows(rows: Sequence[Row]) -> ColumnBlock:
    """*The* row-list -> block conversion; everything else keeps blocks.

    int64 is the numpy backend's value domain: a value outside it is
    reported here, by value, instead of as numpy's bare ``OverflowError``.
    """
    count = len(rows)
    width = len(rows[0]) if count else 0
    if not width:
        return ColumnBlock((), count)
    try:
        flat = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=count * width
        )
    except OverflowError:
        bound = 2**63
        value = next(v for row in rows for v in row if not -bound <= v < bound)
        raise ValueError(
            f"value {value} does not fit int64: the numpy kernel backend "
            "holds every column as an int64 array (kernels='python' has no "
            "such limit)"
        ) from None
    # one contiguous array per column
    return ColumnBlock(np.ascontiguousarray(flat.reshape(count, width).T), count)


def as_block(rows: Sequence[Row]) -> ColumnBlock:
    """``rows`` as a block: itself when it already is one."""
    return rows if isinstance(rows, ColumnBlock) else block_from_rows(rows)


def _empty_block(width: int) -> ColumnBlock:
    return ColumnBlock([np.empty(0, dtype=np.int64)] * width, 0)


def row_tuples(rows: Sequence[Row]) -> list[Row]:
    """``rows`` as a list of tuples — the result boundary, where a block's
    cells are boxed into Python ints, once."""
    return rows.tolist() if isinstance(rows, ColumnBlock) else rows


def concat_rows(parts: Sequence[Sequence[Row]], width: int) -> Sequence[Row]:
    """The rows of ``parts`` (each ``width`` wide), one part after another:
    one block on the numpy backend, one list on the python backend."""
    if _backend != "numpy":
        return [row for part in parts for row in part]
    blocks = [as_block(part) for part in parts if len(part)]
    if not blocks:
        return _empty_block(width)
    return ColumnBlock(
        [
            np.concatenate([block.columns[i] for block in blocks])
            for i in range(width)
        ],
        sum(block.length for block in blocks),
    )


# ----------------------------------------------------------------------
# Hashing
# ----------------------------------------------------------------------


def hash_row(values: Sequence[int], salt: int = 0) -> int:
    """Deterministic multiplicative hash of a key tuple (scalar reference)."""
    mixed = salt
    for value in values:
        mixed = ((mixed ^ value) * _KNUTH) & _MASK
        mixed ^= mixed >> 16
    return mixed


def dim_hash(value: int, salt: int, dim: int) -> int:
    """One hypercube dimension's hash of a single value (scalar reference)."""
    if dim == 1:
        return 0
    mixed = ((value + salt) * _KNUTH) & _MASK
    mixed ^= mixed >> 16
    return mixed % dim


def _low32(column: np.ndarray) -> np.ndarray:
    """An int64 column's low 32 bits (``astype`` wraps, as C casts do)."""
    return column.astype(np.uint32)


def _mix(mixed: np.ndarray) -> np.ndarray:
    """One multiply-fold round of the hash on uint32, in place."""
    mixed *= _U_KNUTH
    mixed ^= mixed >> _U16
    return mixed


def _hash_columns(columns: Sequence[np.ndarray], salt: int, count: int) -> np.ndarray:
    """Vectorized :func:`hash_row` over parallel int64 key columns.

    Every step of the scalar hash keeps only the low 32 bits, and those
    depend only on the low 32 bits of each value and of the salt: XOR is
    bitwise, and the low 32 bits of a product are those of its factors'
    low 32 bits multiplied.  So wrapping uint32 arithmetic over each
    column's low 32 bits is exact for any int64 value.
    """
    if not columns:
        return np.full(count, np.uint32(salt & _MASK), dtype=np.uint32)
    mixed = _low32(columns[0])
    if salt & _MASK:
        mixed ^= np.uint32(salt & _MASK)
    _mix(mixed)
    for column in columns[1:]:
        mixed ^= _low32(column)
        _mix(mixed)
    return mixed


# ----------------------------------------------------------------------
# Shuffle routing / partitioning
# ----------------------------------------------------------------------


def _narrow(destinations: np.ndarray, buckets: int) -> np.ndarray:
    """Destination ids as the smallest unsigned type that holds them.  The
    callers rebind their ids to the result, so the wide ones are freed
    before :func:`_bucketize` gathers the block."""
    return destinations.astype(np.min_scalar_type(buckets - 1))


def _bucketize(
    block: ColumnBlock,
    destinations: np.ndarray,
    buckets: int,
    copies: int = 1,
) -> tuple[ColumnBlock, list[int]]:
    """Gather a block into destination order, preserving scan order; return
    the gathered block and its ``buckets + 1`` cuts (bucket ``b`` is rows
    ``cuts[b]:cuts[b + 1]``) — the one partition primitive every exchange
    and every producer-side routing shares.

    ``destinations`` is a flat array of ``len(block) * copies`` destination
    ids in scan-major order (row ``i``'s copies at positions
    ``i*copies .. i*copies+copies-1``), of the smallest unsigned type that
    holds ``buckets - 1`` (:func:`_narrow`) — at most 16 bits for up to
    65 536 buckets, which numpy's stable argsort sorts by radix.  The ids
    are sorted once; stability keeps the within-bucket order identical to
    the python backend's append order, and the cuts are the running sums
    of the bucket counts.
    """
    sources = np.argsort(destinations, kind="stable")
    cuts = [0, *np.cumsum(np.bincount(destinations, minlength=buckets)).tolist()]
    if copies != 1:
        sources //= copies
    return block.take(sources), cuts


def _split(gathered: ColumnBlock, cuts: Sequence[int]) -> list[ColumnBlock]:
    """The buckets of a gathered block: slices of it, one per cut pair."""
    return [gathered[cuts[b]: cuts[b + 1]] for b in range(len(cuts) - 1)]


def _shuffle_destinations(
    block: ColumnBlock, key_indices: Sequence[int], workers: int, salt: int
) -> np.ndarray:
    """Every row's regular-shuffle destination, :func:`_narrow`-ed."""
    columns = [block.columns[i] for i in key_indices]
    destinations = _hash_columns(columns, salt, block.length)
    if workers & (workers - 1):
        destinations %= np.uint32(workers)
    else:  # a power of two: the remainder is the low bits
        destinations &= np.uint32(workers - 1)
    return _narrow(destinations, workers)


def shuffle_partition(
    rows: Sequence[Row],
    key_indices: Sequence[int],
    workers: int,
    salt: int = 0,
) -> list[Sequence[Row]]:
    """Hash-partition rows on their key columns into ``workers`` buckets.

    Rows keep their scan order within each bucket (the numpy path's stable
    partitioning matches the python path's append order exactly).
    """
    if _backend == "numpy":
        block = as_block(rows)
        if not block.length:
            return [block] * workers
        destinations = _shuffle_destinations(block, key_indices, workers, salt)
        return _split(*_bucketize(block, destinations, workers))
    outputs: list[list[Row]] = [[] for _ in range(workers)]
    for row in rows:
        destination = hash_row([row[i] for i in key_indices], salt) % workers
        outputs[destination].append(row)
    return outputs


def route_rows(
    rows: Sequence[Row],
    key_indices: Sequence[int],
    workers: int,
    salt: int = 0,
) -> tuple[ColumnBlock, list[int]]:
    """Route one producer's rows for a regular shuffle, on the producer.

    Numpy backend only.  The rows gathered stably into destination order
    and the ``workers + 1`` cuts of every destination's run: the buckets
    :func:`shuffle_partition` would give, kept in one block.
    """
    block = as_block(rows)
    if not block.length:
        return block, [0] * (workers + 1)
    destinations = _shuffle_destinations(block, key_indices, workers, salt)
    return _bucketize(block, destinations, workers)


def assemble_routed(
    parts: Sequence[Sequence[Row]],
    cuts: Sequence[Sequence[int]],
    width: int,
) -> list[ColumnBlock]:
    """Consumer buckets from parts each routed by :func:`route_rows`.

    Numpy backend only.  Bucket ``b`` is part 0's run ``b``, then part 1's,
    and so on: exactly :func:`shuffle_partition` of the parts'
    concatenation, whose stable partition keeps every bucket in
    (producer, scan) order.  Each part is scattered once into one
    assembled block — its columns are the rows of a single allocation —
    of which the buckets are slices; nothing is hashed or sorted.
    """
    bounds = np.asarray(cuts, dtype=np.int64)  # parts x (buckets + 1)
    sizes = np.diff(bounds, axis=1)
    per_bucket = sizes.sum(axis=0)
    edges = np.cumsum(per_bucket)
    # where run (part, bucket) starts in the assembled block, less where it
    # starts in its part: the shift that carries its rows over
    shifts = (edges - per_bucket) + (np.cumsum(sizes, axis=0) - sizes) - bounds[:, :-1]
    columns = np.empty((width, int(edges[-1])), dtype=np.int64)
    for part, shift, size in zip(parts, shifts, sizes):
        block = as_block(part)
        if not block.length:
            continue
        targets = np.repeat(shift, size)
        targets += np.arange(block.length)
        for column, source in zip(columns, block.columns):
            column[targets] = source
    return _split(ColumnBlock(list(columns), int(edges[-1])), [0, *edges.tolist()])


def hypercube_partition(
    rows: Sequence[Row],
    bound: Sequence[tuple[int, int, int, int]],
    offsets: Sequence[int],
    workers: int,
) -> list[Sequence[Row]]:
    """Route rows to their hypercube coordinates (with replication).

    ``bound`` holds one ``(column, salt, dim, stride)`` entry per hypercube
    dimension constrained by the atom; ``offsets`` enumerates the
    replication targets over the unconstrained dimensions (see
    :meth:`~repro.hypercube.mapping.HyperCubeMapping.frame_routing`).  Each
    row lands on ``base + offset`` for every offset, where ``base`` is the
    sum of its bound coordinates' strides.  Within a bucket, rows keep scan
    order, then offset order — identical for both backends.
    """
    copies = len(offsets)
    if _backend == "numpy" and copies:
        block = as_block(rows)
        if not block.length:
            return [block] * workers
        base = np.zeros(block.length, dtype=np.uint32)
        for column, salt, dim, stride in bound:
            if dim == 1:
                continue
            mixed = _low32(block.columns[column])
            mixed += np.uint32(salt & _MASK)
            _mix(mixed)
            mixed %= np.uint32(dim)
            mixed *= np.uint32(stride)
            base += mixed
        destinations = _narrow(
            (base[:, None] + np.asarray(offsets, dtype=np.uint32)[None, :]).ravel(),
            workers,
        )  # row-major == (scan order, offset order)
        return _split(*_bucketize(block, destinations, workers, copies=copies))
    outputs: list[list[Row]] = [[] for _ in range(workers)]
    for row in rows:
        base = 0
        for column, salt, dim, stride in bound:
            base += dim_hash(row[column], salt, dim) * stride
        for offset in offsets:
            outputs[base + offset].append(row)
    return outputs


# ----------------------------------------------------------------------
# Sorting
# ----------------------------------------------------------------------


def _pack_columns(
    columns: Sequence[np.ndarray],
) -> Optional[tuple[np.ndarray, int]]:
    """Pack parallel key columns into one uint64 whose numeric order is the
    columns' lexicographic order, or ``None`` when the value ranges do not
    fit in 64 bits.  A single radix sort of the packed key then replaces a
    multi-pass ``np.lexsort`` (and packed equality is key-tuple equality).

    Returns the packed keys plus their capacity (the product of the column
    spans, an exclusive upper bound on the packed values).
    """
    if not columns:
        return None
    spans: list[tuple[int, int]] = []
    capacity = 1
    for column in columns:
        low = int(column.min())
        span = int(column.max()) - low + 1
        capacity *= span
        if capacity > 2**63:  # conservative headroom below 2**64
            return None
        spans.append((low, span))
    packed = np.zeros(len(columns[0]), dtype=np.uint64)
    stride = 1
    for column, (low, span) in zip(reversed(columns), reversed(spans)):
        packed += (column - low).astype(np.uint64) * np.uint64(stride)
        stride *= span
    return packed, capacity


def _key_ids(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, int]:
    """One uint64 per row, equal exactly when the rows' key tuples are, plus
    the ids' capacity (an exclusive upper bound on them)."""
    packing = _pack_columns(columns)
    if packing is not None:
        return packing
    # ranges too wide for 64-bit packing: dense ids via np.unique
    _, inverse = np.unique(np.stack(columns, axis=1), axis=0, return_inverse=True)
    return inverse.reshape(-1).astype(np.uint64), inverse.size


def stable_order(ids: np.ndarray, capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """The stable argsort of 64-bit ``ids`` in ``[0, capacity)`` and the ids
    in that order: *the* way this backend orders rows by an integer key.

    With the element index appended as the least-significant bits the keys
    are unique, so one plain (non-indirect) sort yields the permutation and
    the sorted ids at a tenth of an indirect merge sort's price — which is
    what runs when ``capacity`` leaves no room for the index.
    """
    bits = max(ids.size - 1, 0).bit_length()
    if capacity << bits > 2**63:
        order = np.argsort(ids, kind="stable")
        return order, ids[order]
    keyed = ids.view(np.uint64) << np.uint64(bits)
    keyed |= np.arange(ids.size, dtype=np.uint64)
    keyed.sort()
    order = (keyed & np.uint64((1 << bits) - 1)).view(np.int64)
    keyed >>= np.uint64(bits)
    return order, keyed.view(ids.dtype)


def sort_projected(rows: Sequence[Row], positions: Sequence[int]) -> Sequence[Row]:
    """Project rows onto ``positions`` and sort them lexicographically: a
    sorted list on the python backend, a sorted block on numpy.

    No join reads it: the batched Tributary walk sorts one packed key array
    per atom (:func:`sorted_packed_keys`) and the scalar walk sorts its own
    row list (:class:`~repro.storage.sorted.SortedRelation`).  It stays as
    the measured sort kernel of ``perf/layers.py``."""
    positions = list(positions)
    if _backend == "numpy":
        if not len(rows):
            return _empty_block(len(positions))
        if not positions:
            return ColumnBlock((), len(rows))
        block = as_block(rows)
        columns = [block.columns[p] for p in positions]
        packing = _pack_columns(columns)
        if packing is None:  # lexsort's *last* key is the primary one
            order = np.lexsort(columns[::-1])
        else:
            order, _ = stable_order(*packing)
        return ColumnBlock([column[order] for column in columns], block.length)
    return sorted(tuple(row[p] for p in positions) for row in rows)


# ----------------------------------------------------------------------
# Batched WCOJ trie seeks (the vectorized leapfrog inner loop)
# ----------------------------------------------------------------------


def sorted_packed_keys(
    blocks: Sequence[ColumnBlock],
) -> Optional[tuple[np.ndarray, list[int], list[int]]]:
    """Unsorted blocks of equal width as one sorted array of packed keys.

    One block per simulated worker, each the key columns of one atom's
    fragment.  A row packs the block's index in the sequence (the
    *segment*: a trie level above the first column, at the price of
    ``log2(len(blocks))`` key bits), then its columns as offsets from the
    lowest value over all blocks: ``full = (segment · span_0 + col_0 −
    low_0) · span_1 + col_1 − low_1 …``.  The segment leads, so one
    in-place sort of the whole array is every block's lexicographic sort,
    the blocks kept in sequence: no per-block sorted copy ever exists.
    The packing is one pass over arrays whatever the number of blocks: the
    segment ids are one ``np.repeat`` of the block lengths, and each depth
    is one concatenated column.

    Level ``d``'s prefix — the segment and the first ``d + 1`` columns —
    is ``full // stride_d`` with ``stride_d`` the product of the spans
    below ``d``.  It is globally non-decreasing, across block boundaries
    too, so a binary search *within one trie block* is one global
    ``np.searchsorted(full, target · stride_d)`` — which is what lets
    :mod:`~repro.leapfrog.vectorized` batch the seeks of thousands of
    sibling trie contexts into one call.  A row's ``d``-th key is
    ``full // stride_d % span_d + low_d``.

    Returns ``(full, lows, spans)``, or ``None`` when the segment count
    times the spans does not stay below ``2**63`` (callers fall back) — so
    ``(prefix + 1) · span_d · stride_d`` and everything below it is exact
    in int64.  An empty block adds no rows and nothing to a span; at least
    one block must hold rows.
    """
    lengths = [block.length for block in blocks]
    full = np.repeat(np.arange(len(blocks), dtype=np.int64), lengths)
    lows: list[int] = []
    spans: list[int] = []
    capacity = len(blocks)
    for depth in range(len(blocks[0].columns)):
        column = np.concatenate([block.columns[depth] for block in blocks])
        low = int(column.min())
        span = int(column.max()) - low + 1
        capacity *= span
        if capacity >= 2**63:
            return None
        full *= span
        full += column - low  # span < 2**63, so the offset cannot wrap
        lows.append(low)
        spans.append(span)
    full.sort()
    return full, lows, spans


def seek_targets(values: np.ndarray, ceiling, shift, stride, past=0) -> np.ndarray:
    """Packed search targets of a batch of LFTJ ``seek`` calls: searching
    a :func:`sorted_packed_keys` array for them (``side="left"``) lands
    every seek on the first row under its prefix whose key is ``>= value``,
    or on the end of the prefix's block.

    Per value, or one for all: ``ceiling = min(low + span, 2**63 - 1)``,
    ``shift = prefix * span - low`` and ``stride`` of the level searched.
    ``past`` (0/1 per value) asks for the first key *above* an in-range
    value instead — ``next()`` is ``seek(key + 1)``.  A value must not be
    below ``low`` (a leapfrog's max key never is: the seeking iterator sits
    below it).

    The value is clamped before anything is added: a key ``2**63`` or more
    above ``low`` would wrap ``value - low`` back into the range, and
    ``key + 1`` wraps at the top of int64.  After the clamp the sum is
    ``prefix * span + offset`` with ``0 <= offset <= span``, and that times
    the stride fits, so a ``shift`` that itself wrapped (a very negative
    ``low``) still multiplies out exactly.
    """
    return (np.minimum(values, ceiling) + shift + past) * stride


# ----------------------------------------------------------------------
# Hash-join build/probe
# ----------------------------------------------------------------------


def hash_join_rows(
    left_rows: Sequence[Row],
    right_rows: Sequence[Row],
    left_key: Sequence[int],
    right_key: Sequence[int],
    right_extra: Sequence[int],
) -> Sequence[Row]:
    """Equi-join two row sets: for each right row (in order), emit
    ``left_row + right_extra_columns`` for every matching left row in left
    scan order — the exact output order of the tuple-at-a-time build/probe.

    An empty key joins everything with everything (cross product).
    """
    if _backend == "numpy":
        left, right = as_block(left_rows), as_block(right_rows)
        if not left.length or not right.length:
            return _empty_block(len(left.columns) + len(right_extra))
        return _hash_join_numpy(left, right, left_key, right_key, right_extra)
    table: dict[Row, list[Row]] = {}
    for row in left_rows:
        table.setdefault(tuple(row[i] for i in left_key), []).append(row)
    output: list[Row] = []
    for row in right_rows:
        matches = table.get(tuple(row[i] for i in right_key))
        if not matches:
            continue
        extra = tuple(row[i] for i in right_extra)
        for left_row in matches:
            output.append(left_row + extra)
    return output


def _hash_join_numpy(
    left: ColumnBlock,
    right: ColumnBlock,
    left_key: Sequence[int],
    right_key: Sequence[int],
    right_extra: Sequence[int],
) -> ColumnBlock:
    if left_key:  # scalar key ids, equal exactly when the key tuples are
        ids, capacity = _key_ids([
            np.concatenate([left.columns[li], right.columns[ri]])
            for li, ri in zip(left_key, right_key)
        ])
    else:  # cross product: a single shared key
        ids, capacity = np.zeros(left.length + right.length, dtype=np.uint64), 1
    right_ids = ids[left.length:]
    # build side: rows by (key id, left scan order)
    order, sorted_ids = stable_order(ids[: left.length], capacity)
    starts = np.searchsorted(sorted_ids, right_ids, side="left")
    ends = np.searchsorted(sorted_ids, right_ids, side="right")
    counts = ends - starts
    total = int(counts.sum())
    # expand each right row's [start, end) slice of the sorted left side
    output_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    flat = np.arange(total, dtype=np.int64)
    flat += np.repeat(starts - output_starts, counts)
    left_take = order[flat]
    right_take = np.repeat(np.arange(right.length, dtype=np.int64), counts)
    return ColumnBlock(
        [column[left_take] for column in left.columns]
        + [right.columns[i][right_take] for i in right_extra],
        total,
    )


# ----------------------------------------------------------------------
# Columnar selections / projections
# ----------------------------------------------------------------------


def project_rows(
    rows: Sequence[Row],
    indices: Sequence[int],
    dedup: bool = False,
) -> Sequence[Row]:
    """The given columns of every row; ``dedup`` drops duplicate rows,
    keeping first-seen order.  On numpy a projection selects column arrays
    (nothing is copied) and de-duplication is one :func:`stable_order`."""
    if _backend == "numpy":
        block = as_block(rows)
        if not block.length:
            return _empty_block(len(indices))
        block = ColumnBlock([block.columns[i] for i in indices], block.length)
        return _distinct(block) if dedup else block
    projected = (tuple(row[i] for i in indices) for row in rows)
    return list(dict.fromkeys(projected)) if dedup else list(projected)


def _distinct(block: ColumnBlock) -> ColumnBlock:
    """A non-empty block's distinct rows, in first-seen order."""
    if not block.columns:
        return block[:1]
    order, ids = stable_order(*_key_ids(block.columns))
    first = np.ones(block.length, dtype=bool)  # the head of each run of a key
    first[1:] = ids[1:] != ids[:-1]
    first_seen = order[first]
    first_seen.sort()
    return block.take(first_seen)


def select_rows(
    rows: Sequence[Row],
    variables: Sequence,
    comparisons: Sequence,
) -> Sequence[Row]:
    """The rows that pass every comparison, in order; ``variables`` label
    the columns.  :meth:`~repro.query.atoms.Comparison.evaluate` takes a
    column per variable as readily as a value, so on numpy the comparisons
    are one boolean mask over the block.  With no comparisons ``rows``
    itself is the answer, on either backend."""
    if not comparisons:
        return rows
    if _backend == "numpy":
        block = as_block(rows)
        if not block.length:
            return block
        binding = dict(zip(variables, block.columns))
        mask = np.ones(block.length, dtype=bool)
        for comparison in comparisons:
            mask &= comparison.evaluate(binding)
        return block.take(np.flatnonzero(mask))
    kept: list[Row] = []
    for row in rows:
        binding = dict(zip(variables, row))
        if all(comparison.evaluate(binding) for comparison in comparisons):
            kept.append(row)
    return kept
