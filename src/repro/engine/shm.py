"""Row-list packing, kept for a pinned import and the benchmark's probes.

The process runtime (:class:`~repro.engine.runtime.ProcessRuntime`) no
longer packs anything: a python-backend frame's row list crosses the
session pipe pickled as it is, and a numpy frame's column block moves its
arrays out of band (see :func:`~repro.engine.runtime._send`).  Packing a
list into one int64 array and rebuilding it on the far side cost more than
the pickling it replaced at every size measured (EXPERIMENTS.md, "The
driver is an executor").  ``SHARED_MIN_ROWS``, :class:`SharedRows` and
:func:`share_rows` stay only because the pinned
``tests/test_kernels_differential.py`` imports ``SHARED_MIN_ROWS`` (as the
size of a "large" frame) and ``perf/layers.py`` times :func:`share_rows`
and :meth:`SharedRows.load` under their metric names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

Row = tuple[int, ...]

#: the row count from which :func:`share_rows` packs a list
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
