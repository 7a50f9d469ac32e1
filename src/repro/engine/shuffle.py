"""The three shuffle algorithms compared throughout the paper (Sec. 3).

1. **Regular shuffle** — hash-partition a frame on its join attribute(s).
   Vulnerable to value skew: all tuples of a heavy-hitter value land on one
   consumer (Table 2's consumer skew of 1.35/1.72 on the Twitter data and
   20.8 after the first join).
2. **Broadcast** — keep the largest relation in place, copy every other
   relation to all workers (``|R| * p`` tuples sent, Table 4).
3. **HyperCube shuffle** — route every base tuple to its hypercube
   coordinates in a single round, replicating along the unconstrained
   dimensions (Table 3: ``|R| * p^(1/3)`` for the triangle query, skew
   ~1.05 because every value is hashed into only ``p^(1/3)`` buckets).

Every shuffle records tuples sent, producer skew, and consumer skew into
:class:`~repro.engine.stats.ExecutionStats`, charges 1 work unit per tuple
sent (producer side) and 1 per tuple received (consumer side) — so consumer
skew translates into wall-clock penalty exactly as the paper observes — and
registers received tuples against the consumers' memory budget.

Every bucket holds its rows in (producer, scan[, offset]) order, the order
per-producer appends would give.  An exchange partitions the producers'
concatenation with **one** kernel call (:mod:`~repro.engine.kernels`):
the numpy backend concatenates column blocks, hashes the key columns in
one vectorized batch, radix-sorts once, gathers once and hands every
consumer a slice of that gathered block; a broadcast hands every consumer
the *same* block, which is safe because frames are never mutated.  A
regular shuffle of frames their producers already routed for it
(:class:`~repro.engine.frame.Routing`: a local operator whose output only
this exchange reads) skips the hashing and the sort: it only assembles
each consumer's runs, producer by producer, into one block.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..hypercube.mapping import HyperCubeMapping
from ..query.atoms import Atom, Variable
from .frame import Frame
from .kernels import (
    assemble_routed,
    concat_rows,
    hash_row,
    hypercube_partition,
    shuffle_partition,
)
from .memory import MemoryBudget
from .stats import ExecutionStats

__all__ = [
    "broadcast",
    "hash_row",
    "hypercube_shuffle",
    "regular_shuffle",
]


def _charge_shuffle(
    stats: ExecutionStats,
    phase: str,
    sent: Sequence[int],
    received: Sequence[int],
    memory: Optional[MemoryBudget],
) -> None:
    for worker, count in enumerate(sent):
        if count:
            stats.charge(worker, count, phase)
    for worker, count in enumerate(received):
        if count:
            stats.charge(worker, count, phase)
        if memory is not None:
            memory.allocate(worker, count, phase)
            stats.record_memory(worker, memory.resident(worker))


def regular_shuffle(
    frames: Sequence[Frame],
    key: Sequence[Variable],
    workers: int,
    stats: ExecutionStats,
    name: str,
    phase: str,
    memory: Optional[MemoryBudget] = None,
) -> list[Frame]:
    """Hash-partition per-worker frames on the key variables.

    When every frame was routed for exactly this key and worker count,
    consumer ``c``'s bucket is producer 0's run ``c``, then producer 1's,
    and so on — the buckets the stable partition of the concatenation
    gives, assembled without hashing a row.  Counts, and so every record,
    charge and registration, are the same either way.
    """
    if not frames:
        raise ValueError("no input frames")
    variables = frames[0].variables
    wanted = (tuple(key), workers)
    if all(
        frame.routing is not None
        and (frame.routing.key, frame.routing.workers) == wanted
        for frame in frames
    ):
        outputs = assemble_routed(
            [frame.rows for frame in frames],
            [frame.routing.cuts for frame in frames],
            len(variables),
        )
    else:
        rows = concat_rows([frame.rows for frame in frames], len(variables))
        outputs = shuffle_partition(rows, frames[0].indices_of(key), workers)
    sent = [len(frame) for frame in frames]
    received = [len(bucket) for bucket in outputs]
    stats.record_shuffle(name, sent, received)
    _charge_shuffle(stats, phase, sent, received, memory)
    return [Frame(variables, bucket) for bucket in outputs]


def broadcast(
    frames: Sequence[Frame],
    workers: int,
    stats: ExecutionStats,
    name: str,
    phase: str,
    memory: Optional[MemoryBudget] = None,
) -> list[Frame]:
    """Replicate the union of all fragments to every worker."""
    variables = frames[0].variables
    rows = concat_rows([frame.rows for frame in frames], len(variables))
    sent = [len(frame) * workers for frame in frames]
    received = [len(rows)] * workers
    stats.record_shuffle(name, sent, received)
    _charge_shuffle(stats, phase, sent, received, memory)
    return [Frame(variables, rows) for _ in range(workers)]


def hypercube_shuffle(
    frames: Sequence[Frame],
    atom: Atom,
    mapping: HyperCubeMapping,
    workers: int,
    stats: ExecutionStats,
    name: str,
    phase: str,
    memory: Optional[MemoryBudget] = None,
) -> list[Frame]:
    """Route each tuple of ``atom`` to its hypercube coordinates.

    The frame's variables must be the atom's variables (the scan output);
    hashing uses the per-dimension hash functions of ``mapping``.  Workers
    beyond ``mapping.workers_used`` receive nothing (the optimal integral
    configuration may leave machines idle, paper Sec. 4) — consumer skew is
    therefore computed over the ``workers_used`` participating consumers
    only, so idle machines do not dilute the average load and inflate the
    reported skew (Table 3's ~1.05).
    """
    variables = frames[0].variables
    if set(variables) != set(atom.variables()):
        raise ValueError(
            f"frame variables {variables} do not match atom {atom.alias}"
        )
    bound, offsets = mapping.frame_routing(atom, variables)
    rows = concat_rows([frame.rows for frame in frames], len(variables))
    outputs = hypercube_partition(rows, bound, offsets, workers)
    sent = [len(frame) * len(offsets) for frame in frames]
    received = [len(bucket) for bucket in outputs]
    # idle workers beyond the integral configuration are not consumers
    stats.record_shuffle(name, sent, received[: mapping.workers_used])
    _charge_shuffle(stats, phase, sent, received, memory)
    return [Frame(variables, bucket) for bucket in outputs]
