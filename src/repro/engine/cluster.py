"""The simulated shared-nothing cluster.

The paper deploys 64 Myria workers over 16 machines, each with its own
storage, and partitions every input relation across them round-robin.  Our
:class:`Cluster` reproduces exactly that starting state: ``load`` splits each
relation's rows round-robin over ``p`` per-worker fragment lists.  All
shuffles and local operators then run against these fragments, charging work
and memory through :class:`~repro.engine.stats.ExecutionStats` and
:class:`~repro.engine.memory.MemoryBudget`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..storage.relation import Database, Relation
from .frame import Frame
from .memory import MemoryBudget


class Cluster:
    """``p`` workers, each holding round-robin fragments of the input."""

    def __init__(self, workers: int, memory: Optional[MemoryBudget] = None) -> None:
        if workers < 1:
            raise ValueError("a cluster needs at least one worker")
        self.workers = workers
        self.memory = memory or MemoryBudget()
        self._fragments: dict[str, list[list[tuple[int, ...]]]] = {}
        self.database: Optional[Database] = None

    def load(self, database: Database) -> None:
        """Round-robin partition every relation of the database."""
        self.database = database
        self._fragments.clear()
        for name, relation in database.relations().items():
            fragments: list[list[tuple[int, ...]]] = [[] for _ in range(self.workers)]
            for index, row in enumerate(relation.rows):
                fragments[index % self.workers].append(row)
            self._fragments[name] = fragments

    def view(self, memory: Optional[MemoryBudget] = None) -> "Cluster":
        """A cluster sharing this one's loaded fragments under its own budget.

        Fragments are read-only during execution (scans copy rows into
        fresh frames), so many concurrent executions can share one loaded
        partitioning; what must *not* be shared is the memory accounting —
        each execution resets and charges its budget privately.  The
        serving layer (:mod:`~repro.engine.service`) admits every query on
        a view of one template cluster per (database, workers) pair,
        paying the round-robin partitioning cost once instead of per
        query.  Views are indistinguishable from a freshly loaded cluster:
        the partitioning is deterministic, so a view's fragments equal
        what ``Cluster(workers).load(database)`` would produce.
        """
        clone = Cluster(self.workers, memory or MemoryBudget())
        clone.database = self.database
        clone._fragments = self._fragments
        return clone

    def fragments(self, relation_name: str) -> list[list[tuple[int, ...]]]:
        """Per-worker row lists of a loaded relation."""
        try:
            return self._fragments[relation_name]
        except KeyError:
            raise KeyError(
                f"relation {relation_name!r} not loaded; known: "
                f"{sorted(self._fragments)}"
            ) from None

    def fragment_relation(self, relation_name: str, worker: int) -> Relation:
        """One worker's fragment, viewed as a Relation."""
        if self.database is None:
            raise RuntimeError("cluster has no loaded database")
        # the fragment's rows are the base relation's own, validated when it
        # was built, and nothing downstream writes to them: share, don't copy
        return self.database[relation_name].with_rows(
            self.fragments(relation_name)[worker]
        )

    def encoder(self):
        """The database's dictionary encoder (for string query constants)."""
        if self.database is None:
            raise RuntimeError("cluster has no loaded database")
        return self.database.encode

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
        return f"Cluster(workers={self.workers}, relations={sorted(self._fragments)})"
