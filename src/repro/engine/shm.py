"""Row-list packing for the process runtime's session pipe.

The process runtime (:class:`~repro.engine.runtime.ProcessRuntime`) ships
each Round's slot inputs to the child that runs them, and its results back,
over one session pipe: a protocol-5 pickle whose large array buffers follow
it out of band, each copied once into the pipe and once out of it (see
:func:`~repro.engine.runtime._send`).  Under numpy every frame is a column
block, whose arrays take that path as they are.  Only the python kernel
backend's frames hold a row *list*, which would otherwise pickle tuple by
tuple; :func:`share_rows` packs a large one into one int64 column-major
array, which :class:`SharedRows` carries across the pipe like any block's
arrays, and :meth:`SharedRows.load` rebuilds the list on the far side.
Nothing is parked outside the message, so a child that dies mid-Round
leaves nothing behind.

Packing pays on a pipe round trip, where a pickled list is unpickled and
pickled again tuple by tuple (EXPERIMENTS.md, "One transport"); lists
below ``SHARED_MIN_ROWS`` keep the plain pickle path, where they have
always gone.  The module keeps its name, ``SHARED_MIN_ROWS``,
:func:`share_rows` and :meth:`SharedRows.load` because the differential
suites and the benchmark's probes address them by these names.

The packing is invisible to the engine: counted metrics, row values, and
row order are identical either way (``tests/test_wcoj_differential.py``
and ``tests/test_shm.py`` pin this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

Row = tuple[int, ...]

#: a row list this long or longer crosses the session pipe packed
SHARED_MIN_ROWS = 16384


@dataclass
class SharedRows:
    """A row list packed as one ``(width, count)`` int64 array."""

    columns: np.ndarray

    def load(self) -> list[Row]:
        """Rebuild the rows, in order."""
        width, count = self.columns.shape
        if width == 0:
            return [()] * count
        return list(zip(*self.columns.tolist()))


def share_rows(rows: Sequence[Row]) -> Optional[SharedRows]:
    """Pack a row list column-major; ``None`` when not worthwhile.

    Declines lists that are too small to pay for the packing, ragged, or
    not plain int64 tuples (the engine's rows always are; anything else
    keeps the pickle path).
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
    return SharedRows(np.ascontiguousarray(data.T))
