"""Heavy-hitter-aware shuffling — the classic skew mitigation (an ablation).

The paper's footnote 2 notes that "some parallel hash join algorithms
detect the heavy hitters and treat them specially, to avoid skew" — and its
Sec. 2.1 argues the HyperCube shuffle needs no such machinery because every
value is hashed into only ``p^(1/k)`` buckets.  This module implements the
footnote's technique so the comparison can be made concrete:

- :func:`detect_heavy_hitters` finds join-key values whose frequency would
  overload a single worker;
- :func:`skew_resilient_shuffle` partitions the build side normally except
  that heavy keys are *split* round-robin across all workers, while the
  probe side's heavy tuples are *broadcast* — the standard
  partial-duplication skew join.  Every join result is still produced
  exactly once.

No query plan reaches this module: it lives beside
``test_ablation_skew_shuffle.py``, which measures its effect on the Q1
first join against plain hashing and the HyperCube shuffle.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from repro.engine.frame import Frame
from repro.engine.memory import MemoryBudget
from repro.engine.shuffle import hash_row
from repro.engine.stats import ExecutionStats
from repro.query.atoms import Variable


def detect_heavy_hitters(
    frames: Sequence[Frame],
    key: Sequence[Variable],
    workers: int,
    factor: float = 2.0,
) -> set[tuple[int, ...]]:
    """Join-key values with frequency above ``factor * average worker load``.

    The threshold mirrors the paper's Sec. 2.1 analysis: under a plain hash
    partition any value with degree above ``m/p`` necessarily overloads its
    worker, so values past ``factor * m/p`` are flagged.
    """
    if not frames:
        return set()
    indices = frames[0].indices_of(key)
    counts: Counter = Counter()
    total = 0
    for frame in frames:
        for row in frame.rows:
            counts[tuple(row[i] for i in indices)] += 1
            total += 1
    if total == 0:
        return set()
    threshold = factor * total / workers
    return {value for value, count in counts.items() if count > threshold}


def skew_resilient_shuffle(
    build_frames: Sequence[Frame],
    probe_frames: Sequence[Frame],
    key: Sequence[Variable],
    workers: int,
    stats: ExecutionStats,
    name: str,
    phase: str,
    memory: Optional[MemoryBudget] = None,
    factor: float = 2.0,
    salt: int = 0,
) -> tuple[list[Frame], list[Frame], set[tuple[int, ...]]]:
    """Co-partition two inputs on ``key`` with heavy-hitter special-casing.

    Light keys hash-partition as usual on both sides.  For heavy keys
    (detected on the *build* side), build tuples are dealt round-robin
    across all workers and probe tuples are replicated to all workers, so
    each (build tuple, probe tuple) pair still meets exactly once.

    Returns ``(build partitions, probe partitions, heavy keys)``.
    """
    heavy = detect_heavy_hitters(build_frames, key, workers, factor=factor)
    build_vars = build_frames[0].variables
    probe_vars = probe_frames[0].variables
    build_key = build_frames[0].indices_of(key)
    probe_key = probe_frames[0].indices_of(key)

    build_out: list[list[tuple[int, ...]]] = [[] for _ in range(workers)]
    probe_out: list[list[tuple[int, ...]]] = [[] for _ in range(workers)]
    build_sent = [0] * len(build_frames)
    probe_sent = [0] * len(probe_frames)

    round_robin = 0
    for producer, frame in enumerate(build_frames):
        for row in frame.rows:
            value = tuple(row[i] for i in build_key)
            if value in heavy:
                destination = round_robin % workers
                round_robin += 1
            else:
                destination = hash_row(value, salt) % workers
            build_out[destination].append(row)
            build_sent[producer] += 1

    for producer, frame in enumerate(probe_frames):
        for row in frame.rows:
            value = tuple(row[i] for i in probe_key)
            if value in heavy:
                for destination in range(workers):
                    probe_out[destination].append(row)
                probe_sent[producer] += workers
            else:
                destination = hash_row(value, salt) % workers
                probe_out[destination].append(row)
                probe_sent[producer] += 1

    stats.record_shuffle(
        f"{name} build", build_sent, [len(rows) for rows in build_out]
    )
    stats.record_shuffle(
        f"{name} probe", probe_sent, [len(rows) for rows in probe_out]
    )
    for worker in range(workers):
        received = len(build_out[worker]) + len(probe_out[worker])
        stats.charge(worker, received, phase)
        if memory is not None:
            memory.allocate(worker, received, phase)
            stats.record_memory(worker, memory.resident(worker))
    for producer, count in enumerate(build_sent):
        stats.charge(producer, count, phase)
    for producer, count in enumerate(probe_sent):
        stats.charge(producer, count, phase)

    return (
        [Frame(build_vars, rows) for rows in build_out],
        [Frame(probe_vars, rows) for rows in probe_out],
        heavy,
    )
