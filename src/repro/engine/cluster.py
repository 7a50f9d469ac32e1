"""The simulated shared-nothing cluster.

The paper deploys 64 Myria workers over 16 machines, each with its own
storage, and partitions every input relation across them round-robin.  Our
:class:`Cluster` reproduces exactly that starting state, dealt when a Scan
asks for it: :meth:`Cluster.fragments` gives worker ``w`` rows ``w, w + p,
w + 2p, ...`` of the relation, in the kernel backend's container — one
column block of the whole relation and a strided view of it per worker
under numpy, list slices under python.  All shuffles and local operators
then run against these fragments, charging work and memory through
:class:`~repro.engine.stats.ExecutionStats` and
:class:`~repro.engine.memory.MemoryBudget`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..storage.relation import Database
from . import kernels
from .frame import Frame
from .memory import MemoryBudget


class Cluster:
    """``p`` workers, each holding round-robin fragments of the input."""

    def __init__(self, workers: int, memory: Optional[MemoryBudget] = None) -> None:
        if workers < 1:
            raise ValueError("a cluster needs at least one worker")
        self.workers = workers
        self.memory = memory or MemoryBudget()
        self.database: Optional[Database] = None

    def load(self, database: Database) -> None:
        """Bind the database; each Scan deals its relation when it runs."""
        self.database = database

    def fragments(self, relation_name: str) -> list[Sequence[kernels.Row]]:
        """A loaded relation dealt round-robin, one fragment per worker.

        Under numpy the relation is converted by one
        :func:`~repro.engine.kernels.block_from_rows` call and each fragment
        is a strided view of that block; under python each is a list slice.
        Nothing is kept: every call deals afresh.
        """
        rows = self._loaded()[relation_name].rows
        if kernels.get_backend() == "numpy":
            rows = kernels.block_from_rows(rows)
        return [rows[worker::self.workers] for worker in range(self.workers)]

    def encoder(self):
        """The database's dictionary encoder (for string query constants)."""
        return self._loaded().encode

    def _loaded(self) -> Database:
        if self.database is None:
            raise RuntimeError("cluster has no loaded database")
        return self.database

    def release_frames(self, frames: Sequence[Frame]) -> None:
        """Release per-worker frames from the memory budget.

        Used when a distributed data structure is consumed or superseded —
        scanned fragments streamed out by a shuffle, an intermediate
        replaced by its re-partitioned copy — so residency tracks the peak
        working set instead of growing monotonically.
        """
        for worker, frame in enumerate(frames):
            if len(frame):
                self.memory.release(worker, len(frame))

    def __repr__(self) -> str:
        return f"Cluster(workers={self.workers}, database={self.database!r})"
