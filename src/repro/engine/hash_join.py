"""Symmetric (pipelined) hash join and left-deep pipelines over frames.

This is the paper's baseline join operator: "creates a hash table for each
of its two inputs; when data arrives on an input, the join inserts it into a
hash table and probes the other hash table for matches".  In the simulator
the symmetry matters for cost accounting — both inputs are fully hashed, so
we charge one build unit per input tuple, one probe unit per input tuple,
and one unit per output tuple; both hash tables plus the materialized output
count against worker memory.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..query.atoms import Comparison, Variable
from .frame import Frame
from .kernels import concat_rows, hash_join_rows, project_rows, select_rows
from .memory import MemorySink
from .stats import StatsSink


def join_output_variables(
    left: Sequence[Variable], right: Sequence[Variable]
) -> tuple[Variable, ...]:
    """Left variables followed by the right's new variables."""
    left_set = set(left)
    return tuple(left) + tuple(v for v in right if v not in left_set)


def join_columns(
    left: Sequence[Variable], right: Sequence[Variable], join_vars: Sequence[Variable]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The key's columns in ``left``, its columns in ``right`` and the columns
    of ``right``'s new variables: lowering resolves them, once per operator."""
    left_set = set(left)
    return (
        tuple(left.index(v) for v in join_vars),
        tuple(right.index(v) for v in join_vars),
        tuple(i for i, v in enumerate(right) if v not in left_set),
    )


def hash_join_frames(
    left: Frame,
    right: Frame,
    columns: tuple[Sequence[int], Sequence[int], Sequence[int]],
    out_variables: tuple[Variable, ...],
    worker: int,
    stats: StatsSink,
    phase: str,
    memory: Optional[MemorySink] = None,
) -> Frame:
    """Join two frames on resolved ``columns`` (see :func:`join_columns`)."""
    # build/probe runs through the kernel layer: the numpy backend encodes
    # keys columnar, expands match ranges vectorized and gathers the output
    # as a column block, its rows in the exact order of the tuple-at-a-time
    # build/probe loop
    output_rows = hash_join_rows(left.rows, right.rows, *columns)

    # build units + probe units + output materialization
    work = 2 * (len(left.rows) + len(right.rows)) + len(output_rows)
    stats.charge(worker, work, phase)
    if memory is not None:
        # the hash tables are built over buffers already charged at shuffle
        # receive time; only the produced output adds resident tuples.  (The
        # Tributary path, by contrast, charges an extra sorted copy of its
        # inputs — that difference is what makes RS_TJ hit the budget first,
        # the paper's Fig. 9 failure mode.)
        memory.allocate(worker, len(output_rows), phase)
        stats.record_memory(worker, memory.resident(worker))
    if not len(output_rows):
        # an empty row list, which an input may be, has no width to pass on
        output_rows = concat_rows((), len(out_variables))
    return Frame(out_variables, output_rows)


def symmetric_hash_join(
    left: Frame,
    right: Frame,
    join_vars: Sequence[Variable],
    worker: int,
    stats: StatsSink,
    phase: str,
    memory: Optional[MemorySink] = None,
) -> Frame:
    """Join two frames on ``join_vars`` (cross product when empty)."""
    columns = join_columns(left.variables, right.variables, join_vars)
    out_variables = join_output_variables(left.variables, right.variables)
    return hash_join_frames(
        left, right, columns, out_variables, worker, stats, phase, memory
    )


def semijoin(
    target: Frame, keys: Frame, key_indices: Sequence[int]
) -> tuple[Frame, int]:
    """The ``target`` rows whose columns ``key_indices`` appear as a row of
    ``keys``, in order, and how many distinct key rows were probed: a hash
    join of the distinct keys with the target, put back in the target's
    column order."""
    distinct = project_rows(keys.rows, range(len(key_indices)), dedup=True)
    width = len(target.variables)
    extra = [i for i in range(width) if i not in key_indices]
    joined = hash_join_rows(
        distinct, target.rows, range(len(key_indices)), key_indices, extra
    )
    placed = [*key_indices, *extra]  # joined column j is target column placed[j]
    kept = project_rows(joined, [placed.index(i) for i in range(width)])
    return Frame(target.variables, kept), len(distinct)


def apply_comparisons(
    frame: Frame,
    comparisons: Sequence[Comparison],
    worker: int,
    stats: StatsSink,
    phase: str,
) -> tuple[Frame, list[Comparison]]:
    """Apply every comparison whose variables are all present in the frame.

    Returns the filtered frame and the comparisons that remain deferred.
    """
    available = set(frame.variables)
    ready = [c for c in comparisons if set(c.variables()) <= available]
    deferred = [c for c in comparisons if set(c.variables()) - available]
    if not ready:
        return frame, deferred
    kept = select_rows(frame.rows, frame.variables, ready)
    stats.charge(worker, len(frame.rows), phase)
    return Frame(frame.variables, kept), deferred
