"""Shared-memory row transport for the process-backed runtime.

The process runtime (:class:`~repro.engine.runtime.ProcessRuntime`) forks
its session children once per plan, before any Round has run, so nothing a
Round reads arrives by copy-on-write: each Round's slot inputs are shipped
to the child that runs them, and its results are shipped back.  Either way
the rows would otherwise be pickled tuple by tuple through the session
pipe.  This module moves large row blocks through
``multiprocessing.shared_memory`` instead: the sender packs the block into
one int64 column-major array in ``/dev/shm``, ships only the segment name,
and the receiver reattaches, materializes, and unlinks it; a sender whose
receiver died unlinks what it shipped itself (:meth:`SharedRows.discard`).
Only a frame's row *list* travels this way, and only the python kernel
backend's frames are lists: under numpy every frame, a scanned one
included, is a column block, whose large arrays cross the pipe out of band
after the pickle, each copied once into the pipe and once out of it (see
:func:`~repro.engine.runtime._send`).

Small payloads stay on the pickle path — below a few tens of thousands of
rows the copy into shared memory costs more than pickling saves, so
:func:`share_rows` declines them (``SHARED_MIN_ROWS``).

Both transports are invisible to the engine: counted metrics, row values,
and row order are identical either way (``tests/test_wcoj_differential.py``
and the shm unit tests pin this).
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Optional, Sequence

import numpy as np

Row = tuple[int, ...]

#: below this row count, pickling beats the shared-memory round trip
SHARED_MIN_ROWS = 16384


@dataclass
class SharedRows:
    """A picklable handle to a row block parked in shared memory."""

    name: str
    count: int
    width: int

    def load(self) -> list[Row]:
        """Materialize the rows, then release the shared segment."""
        segment = shared_memory.SharedMemory(name=self.name)
        try:
            data = np.ndarray(
                (self.width, self.count), dtype=np.int64, buffer=segment.buf
            ).copy()
        finally:
            segment.close()
            segment.unlink()
        if self.width == 0:
            return [()] * self.count
        return list(zip(*data.tolist()))

    def discard(self) -> None:
        """Release the segment unread — its receiver is gone.  A segment the
        receiver did load (and so unlinked) before going is not an error."""
        try:
            segment = shared_memory.SharedMemory(name=self.name)
        except FileNotFoundError:
            return
        segment.close()
        segment.unlink()


def share_rows(rows: Sequence[Row]) -> Optional[SharedRows]:
    """Park a row block in shared memory; ``None`` when not worthwhile.

    Declines blocks that are too small to pay for the copy, ragged, or not
    plain int64 tuples (the engine's rows always are; anything else keeps
    the pickle path).  The segment is created unregistered from the child's
    resource tracker — the parent owns the unlink, in
    :meth:`SharedRows.load`.
    """
    count = len(rows)
    if count < SHARED_MIN_ROWS:
        return None
    width = len(rows[0])
    try:
        data = np.asarray(rows, dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    if data.shape != (count, width):
        return None
    columns = np.ascontiguousarray(data.T)
    segment = shared_memory.SharedMemory(
        create=True, size=max(1, columns.nbytes)
    )
    try:
        np.ndarray(
            columns.shape, dtype=np.int64, buffer=segment.buf
        )[:] = columns
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    # the forked child exits before the parent reads the segment; hand
    # cleanup responsibility to the parent (SharedRows.load unlinks) so the
    # child's resource tracker does not reap or double-free it
    try:
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary by version
        pass
    segment.close()
    return SharedRows(name=segment.name, count=count, width=width)
