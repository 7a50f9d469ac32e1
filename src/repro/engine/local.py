"""Per-worker local execution helpers.

After a shuffle delivers frames to a worker, the rest of the query runs
locally.  For Tributary-join strategies that means the multiway leapfrog
over every fragment; this module runs it over frames and charges its sort
and seek work to the right worker and phase (the paper separates "time on
sorting" from "time on TJ", e.g. Table 5 and Fig. 10c).  The counted model
still charges the paper's per-fragment sort and its scratch copy; the
batched walk itself sorts one packed key array per atom, for all the
workers of a batch at once.

The entry point takes a *batch* of workers: every worker is accounted on
its own ledger exactly as if it ran alone, but the trie walks of a batch
are one shared walk.  A simulated worker holds too little data to keep the
vectorized kernels busy by itself.  Under numpy kernels the operator is
prepared once (a :class:`~repro.leapfrog.tributary.JoinShape`) and the
walk (:class:`~repro.leapfrog.vectorized.VectorizedTributaryRun`) reads
each worker's frame columns directly: nothing is built per worker, and the
walk's seeks and results come back as arrays.  The python backend, and a
batch whose keys do not pack into 63 bits, build one
:class:`~repro.leapfrog.tributary.TributaryJoin` per worker and walk them
with :func:`~repro.leapfrog.tributary.run_joins`, the scalar reference.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Sequence

from ..leapfrog.tributary import JoinShape, TributaryJoin, run_joins
from ..leapfrog.vectorized import VectorizedTributaryRun
from ..query.atoms import Atom, ConjunctiveQuery, Variable
from ..storage.sorted import _sort_cost
from . import kernels
from .frame import Frame, frame_relation
from .memory import MemorySink
from .stats import StatsSink

#: Cost of one sort comparison relative to one hash-join work unit (a hash
#: table insert/probe).  A merge-sort comparison of two int tuples is far
#: cheaper than a hash build/probe (hashing, allocation, pointer chasing);
#: 0.25 calibrates the simulator so the paper's Table 5 shape holds (sorting
#: dominates Tributary-join time, ~73% for BR_TJ on Q1) while TJ still beats
#: the hash-join pipeline whenever intermediates are large (Q1/Q2/Q4/Q5/Q6).
#: It prices the paper's model, not this engine's work: each worker is charged
#: ``n log n`` comparisons for a sorted copy of its fragment (the goldens pin
#: it); the batched walk sorts one packed key array per atom and copies none.
SORT_COMPARISON_WEIGHT = 0.25

#: cap on input tuples (summed over atoms and joins) walked as one batch.
#: A batch holds one packed 8-byte key per input tuple (the walk's frontier
#: is bounded separately, per level); 2**19 keeps the largest registry
#: cluster — Q6 at bench scale, 297 000 shuffled tuples — in one batch
BATCH_TUPLE_CAP = 2**19


def scanned_query(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Rewrite a query to run over already-scanned frames.

    Scans apply constants and repeated variables (see
    :func:`~repro.engine.frame.atom_frame`), so the local query's atoms are
    simply ``alias(vars...)`` over the frame data; comparisons and the head
    are unchanged.
    """
    atoms = tuple(
        Atom(relation=atom.alias, terms=atom.variables(), alias=atom.alias)
        for atom in query.atoms
    )
    return ConjunctiveQuery(
        name=query.name,
        head=query.head,
        atoms=atoms,
        comparisons=query.comparisons,
    )


class LocalJoinTask(NamedTuple):
    """One worker's share of a batched local Tributary join."""

    worker: int
    frames: Mapping[str, Frame]  # atom alias -> this worker's fragment
    stats: StatsSink
    memory: Optional[MemorySink] = None


def _input_tuples(task: LocalJoinTask) -> int:
    """How many tuples the task's join reads (and is charged a sorted copy of)."""
    return sum(len(frame) for frame in task.frames.values())


def _input_capped(tasks: Sequence[LocalJoinTask]) -> list[list[LocalJoinTask]]:
    """Cut tasks, in order, into the fewest batches of about equal input
    that keep a batch near or under ``BATCH_TUPLE_CAP`` tuples.

    Balanced rather than filled to the cap: the largest batch sets the
    walk's peak memory, the number of batches its running time.
    """
    sizes = [_input_tuples(task) for task in tasks]
    count = max(1, -(-sum(sizes) // BATCH_TUPLE_CAP))
    share = sum(sizes) / count or 1.0  # all-empty inputs: one batch
    batches: list[list[LocalJoinTask]] = [[] for _ in range(count)]
    before = 0
    for task, size in zip(tasks, sizes):
        # a task joins the batch its midpoint falls into
        batches[min(count - 1, int((before + size / 2) / share))].append(task)
        before += size
    return [batch for batch in batches if batch]


class _Walked(NamedTuple):
    """What one worker's join produced and is charged for."""

    rows: Sequence[tuple[int, ...]]
    sort_cost: int  # the paper's sort of every fragment, in comparisons
    seeks: int
    scalar_walks: int = 0


def _walk_frames(
    shape: JoinShape, query: ConjunctiveQuery, tasks: Sequence[LocalJoinTask]
) -> Optional[list[_Walked]]:
    """The batch's joins as one walk over the workers' frame columns, or
    ``None`` when the batch does not pack into 63 bits.

    A scanned query's atoms select nothing, so every frame is walked as it
    is: its key columns are selected from its block, and its sort is
    charged on its length.
    """
    frames = [[task.frames[atom.alias] for atom in query.atoms] for task in tasks]
    live = [k for k, mine in enumerate(frames) if all(map(len, mine))]
    width = len(query.head)
    rows = [kernels.concat_rows([], width)] * len(tasks)
    seeks = [0] * len(tasks)
    if live:
        keys = [
            [kernels.project_rows(frames[k][i].rows, positions) for k in live]
            for i, positions in enumerate(shape.key_positions)
        ]
        run = VectorizedTributaryRun.build(shape, keys)
        if run is None:
            return None
        walked = zip(live, run.rows(), run.seeks.sum(axis=0).tolist())
        for k, mine, count in walked:
            rows[k], seeks[k] = mine, count
    if not query.is_full():
        rows = [kernels.project_rows(r, range(width), dedup=True) for r in rows]
    return [
        _Walked(r, sum(_sort_cost(len(frame)) for frame in mine), count)
        for r, mine, count in zip(rows, frames, seeks)
    ]


def _walk_joins(
    query: ConjunctiveQuery,
    order: Optional[Sequence[Variable]],
    tasks: Sequence[LocalJoinTask],
) -> list[_Walked]:
    """The batch's joins as one :class:`TributaryJoin` per worker, walked
    by :func:`run_joins`: the scalar reference and the overflow fallback."""
    joins = [
        TributaryJoin(
            query,
            {alias: frame_relation(f, alias) for alias, f in task.frames.items()},
            order=order,
        )
        for task in tasks
    ]
    return [
        _Walked(rows, join.stats.sort_cost, join.total_seeks(), join.stats.scalar_walks)
        for join, rows in zip(joins, run_joins(joins))
    ]


def local_tributary_joins(
    query: ConjunctiveQuery,
    tasks: Sequence[LocalJoinTask],
    order: Optional[Sequence[Variable]] = None,
    sort_phase: str = "sort",
    join_phase: str = "tributary join",
) -> tuple[list[Sequence[tuple[int, ...]]], Optional[Exception]]:
    """Run many workers' Tributary joins of one query, sharing trie walks.

    ``query`` must be a *scanned* query (see :func:`scanned_query`) whose
    atom aliases key every task's ``frames``.  Each worker is charged on
    its own ``stats``/``memory`` in the order a lone run charges it —
    allocate the sorted copies, (walk,) charge ``n log n`` sort comparisons
    to ``sort_phase`` and seeks plus result materialization to
    ``join_phase``, allocate the results, release the copies — only the
    walk in the middle is shared by a batch of workers.  Under numpy the
    walk reads the frames' columns (:func:`_walk_frames`); otherwise, or
    when a batch does not pack, it builds one join per worker
    (:func:`_walk_joins`).

    Returns ``(rows per task, error)``, the head rows as the kernel backend
    holds them (one column block per task on numpy).  Tasks are in worker-id
    order; when a task fails (a simulated OOM at either allocation) the rows
    cover the tasks before it, ``error`` is its exception, its ledger holds
    what it charged up to the failure, and later tasks are abandoned — the
    state a one-worker-at-a-time execution stopping at that worker leaves
    behind.
    """
    try:
        shape = JoinShape.of(query, order)
    except Exception as error:
        return [], error
    results: list[Sequence[tuple[int, ...]]] = []
    for batch in _input_capped(tasks):
        ready: list[LocalJoinTask] = []
        failure: Optional[Exception] = None
        for task in batch:
            if task.memory is not None:
                try:
                    # charge the paper's sorted copy of every fragment (the
                    # batched walk makes none) *before* the work, so a
                    # simulated OOM fires first
                    task.memory.allocate(
                        task.worker, _input_tuples(task), sort_phase
                    )
                    task.stats.record_memory(
                        task.worker, task.memory.resident(task.worker)
                    )
                except Exception as error:
                    failure = error
                    break
            ready.append(task)
        try:
            walked = None
            if kernels.get_backend() == "numpy":
                walked = _walk_frames(shape, query, ready)
            if walked is None:
                walked = _walk_joins(query, order, ready)
        except Exception as error:
            # the shared walk cannot say whose data broke it: the batch's
            # first worker fails, so nothing after the last sound ledger
            # is committed
            return results, error
        for task, (rows, sort_cost, seeks, scalar_walks) in zip(ready, walked):
            worker, stats, memory = task.worker, task.stats, task.memory
            try:
                stats.charge(worker, sort_cost * SORT_COMPARISON_WEIGHT, sort_phase)
                stats.charge(worker, seeks + len(rows), join_phase)
                if scalar_walks:
                    stats.record_wcoj_fallbacks(worker, scalar_walks)
                if memory is not None:
                    memory.allocate(worker, len(rows), join_phase)
                    stats.record_memory(worker, memory.resident(worker))
                    # the charged sorted copies are scratch space, dropped
                    # once the join is done
                    memory.release(worker, _input_tuples(task))
            except Exception as error:
                return results, error
            results.append(rows)
        if failure is not None:
            return results, failure
    return results, None


def local_tributary_join(
    query: ConjunctiveQuery,
    frames: Mapping[str, Frame],
    worker: int,
    stats: StatsSink,
    order: Optional[Sequence[Variable]] = None,
    sort_phase: str = "sort",
    join_phase: str = "tributary join",
    memory: Optional[MemorySink] = None,
) -> Sequence[tuple[int, ...]]:
    """Run one worker's Tributary join over its local frames: a batch of
    one through :func:`local_tributary_joins`, raising its failure."""
    results, error = local_tributary_joins(
        query,
        [LocalJoinTask(worker, frames, stats, memory)],
        order=order,
        sort_phase=sort_phase,
        join_phase=join_phase,
    )
    if error is not None:
        raise error
    return results[0]
