"""Pluggable worker runtimes for the per-worker local-join phases.

The simulator's "workers" are logical partitions.  HoneyComb (Wu & Suciu,
2025) makes the case that worst-case-optimal distributed joins only pay off
at scale when local evaluation exploits multicores — this module is that seam.

There is one way to run a worker task: :meth:`WorkerRuntime.map_local`
hands every executor its workers as one *batch* of ``(worker, ledger,
inputs)`` and calls a picklable runner on it, so the Tributary joins of a
batch share a trie walk while each worker is still accounted on its own
ledger.  The three runtimes differ only in who the executors are
(:meth:`~WorkerRuntime._local_batches`, :meth:`~WorkerRuntime._run_batches`):

- :class:`SerialRuntime` — the calling thread runs every worker as one batch;
- :class:`ParallelRuntime` — one batch per thread of a
  :class:`concurrent.futures.ThreadPoolExecutor`;
- :class:`ProcessRuntime` — one batch per forked, pipe-connected session
  child (``--runtime parallel:N:proc``), the only mode that escapes the GIL
  for true multicore wall-clock speedup.  Everything a child needs — the
  runner, the slot inputs, the ledgers — is shipped to it as a protocol-5
  pickle whose array buffers of 64 KiB or more follow it out of band
  (:func:`_send`), one copy each way; a python-backend frame's row *list*
  above a size threshold crosses through a :mod:`~repro.engine.shm`
  shared-memory segment instead.  Under numpy every frame is a column
  block.  Each worker's ledger is pickled back and merged exactly like the
  thread runtime's.

Determinism is guaranteed by construction rather than by locking: every
worker task receives an isolated :class:`WorkerLedger` — a per-worker
:class:`~repro.engine.stats.WorkerStats` recorder plus a
:class:`~repro.engine.memory.WorkerMemoryAccount` delta ledger — so no
shared mutable ``stats``/``memory`` object is threaded through concurrent
operator calls.  Ledgers are merged back into the shared
:class:`~repro.engine.stats.ExecutionStats` and
:class:`~repro.engine.memory.MemoryBudget` in worker-id order, making result
rows and every counted metric (CPU charges, wall clock, peak memory, skews)
identical across runtimes.  Failure is deterministic too: when workers fail
(out of memory, or hit by an injected fault), the runtime commits the
ledgers of every worker *before* the lowest failing worker id (plus that
worker's partial ledger) and re-raises its error — exactly the state a
serial execution leaves behind.
"""

from __future__ import annotations

import copyreg
import ctypes
import io
import multiprocessing
import os
import pickle
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Iterable, Optional, Union

from .frame import Frame
from .memory import MemoryBudget, WorkerMemoryAccount
from .shm import SharedRows, share_rows
from .stats import ExecutionStats, WorkerStats

#: a structured local runner: called with a batch of ``(worker id, ledger,
#: shipped slot inputs)`` in worker-id order, returns ``(value, error)`` per
#: task up to and including the first failing one (later tasks of the batch
#: are never committed, so it may abandon them); must be picklable (a
#: module-level function or functools.partial of one)
LocalRunner = Callable[[list], list]


@dataclass
class WorkerLedger:
    """Isolated per-worker stat recorder and memory account for one task."""

    worker: int
    stats: WorkerStats
    memory: WorkerMemoryAccount


def _open_ledger(worker: int, memory: MemoryBudget) -> WorkerLedger:
    return WorkerLedger(
        worker=worker,
        stats=WorkerStats(worker),
        memory=memory.open_account(worker),
    )


def _run_batch(runner: "LocalRunner", batch: list) -> list:
    """One ``runner`` call over a batch of ``(worker, ledger, inputs)``; its
    outcomes as ``(worker, value, ledger, error)`` — the ledger the task
    charged rides along even when it failed.  A runner that raises instead
    of reporting fails its batch's first worker, so an executor (a session
    child above all) survives it and nothing past a sound ledger commits."""
    try:
        reported = runner(batch)
    except Exception as error:
        reported = [(None, error)]
    return [
        (worker, value, ledger, error)
        for (worker, ledger, _), (value, error) in zip(batch, reported)
    ]


class WorkerRuntime:
    """The contract every runtime shares: :meth:`map_local`.

    Subclasses only choose the executors (:meth:`_local_batches`,
    :meth:`_run_batches`); the base runs one batch on the calling thread.
    """

    name = "abstract"

    def map_local(
        self,
        worker_ids: Iterable[int],
        runner: LocalRunner,
        payloads: dict,
        stats: ExecutionStats,
        memory: MemoryBudget,
    ) -> list:
        """Run one local round: ``runner`` over every worker id, values
        returned in worker order.

        ``runner`` is a *picklable* batch callable (see :data:`LocalRunner`)
        and ``payloads[worker]`` holds the slot inputs that worker reads.
        Each executor of the runtime is handed its workers as **one batch**
        (:meth:`_local_batches` says which), so the runner can share work
        across them — the Tributary joins of a batch share trie walks —
        while every worker still charges its own ledger.

        Ledgers are committed into ``stats``/``memory`` in worker-id order.
        If any worker fails, the error of the lowest failing worker id is
        re-raised after committing the ledgers of all earlier workers plus
        the failing worker's partial ledger (discarding later workers),
        which matches a serial execution stopping at the first failure.
        """
        ids = list(worker_ids)
        if not ids:
            return []
        ledgers = {worker: _open_ledger(worker, memory) for worker in ids}
        batches = [
            [(worker, ledgers[worker], payloads[worker]) for worker in group]
            for group in self._local_batches(ids)
        ]
        shipped: dict[int, tuple] = {}
        for outcomes in self._run_batches(runner, batches):
            for worker, value, ledger, error in outcomes:
                shipped[worker] = (value, ledger, error)
        # a batch stops at its first failure, so workers may be missing
        # from ``shipped`` — only ever behind a failure with a lower id
        values = []
        for worker in ids:
            value, ledger, error = shipped[worker]
            stats.merge_worker(ledger.stats)
            memory.commit(ledger.memory)
            if error is not None:
                raise error
            values.append(value)
        return values

    def _local_batches(self, ids: list[int]) -> list[list[int]]:
        """How :meth:`map_local` groups worker ids: one batch per executor,
        each in ascending id order (serial: a single batch)."""
        return [ids]

    def _run_batches(self, runner: LocalRunner, batches: list) -> list:
        """Run every batch; per batch, its ``(worker, value, ledger,
        error)`` outcomes (see :func:`_run_batch`)."""
        return [_run_batch(runner, batch) for batch in batches]

    def open_session(self) -> None:
        """Start a per-plan worker session (no-op for in-process runtimes):
        the scheduler brackets each plan execution with ``open_session()`` /
        ``close_session()``, and :class:`ProcessRuntime` forks its pool here."""

    def close_session(self) -> None:
        """End the per-plan worker session (no-op for in-process runtimes)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialRuntime(WorkerRuntime):
    """Run every worker as one batch on the calling thread."""

    name = "serial"


class ParallelRuntime(WorkerRuntime):
    """Run worker batches concurrently on a thread pool.

    ``max_workers=None`` sizes the pool to the machine's core count.  The
    ledger isolation + ordered merge makes results and counted metrics
    identical to :class:`SerialRuntime`; only real ``elapsed_seconds``
    changes with available cores.
    """

    name = "parallel"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("ParallelRuntime needs at least one pool worker")
        self.max_workers = max_workers

    def _local_batches(self, ids: list[int]) -> list[list[int]]:
        """Deal worker ids round-robin: one batch per pool thread."""
        size = self.max_workers or min(32, os.cpu_count() or 1)
        return [ids[k::size] for k in range(min(size, len(ids)))]

    def _run_batches(self, runner: LocalRunner, batches: list) -> list:
        """Run each batch on its own pool thread."""
        with ThreadPoolExecutor(max_workers=len(batches)) as pool:
            return list(pool.map(partial(_run_batch, runner), batches))

    def __repr__(self) -> str:
        return f"ParallelRuntime(max_workers={self.max_workers})"


# ----------------------------------------------------------------------
# Process-backed runtime
# ----------------------------------------------------------------------


@dataclass
class _SharedFrame:
    """A :class:`Frame` whose rows crossed the process boundary via shm."""

    variables: tuple
    shared: SharedRows


def _encode_payload(item: Any) -> Any:
    """Swap a frame's large row list for a shared-memory handle before
    pickling.

    A frame whose rows are a column block passes through: :func:`_send`
    moves its arrays with one copy each way, all a segment would save."""
    if isinstance(item, Frame) and isinstance(item.rows, list):
        shared = share_rows(item.rows)
        if shared is not None:
            return _SharedFrame(item.variables, shared)
    return item


def _decode_payload(item: Any) -> Any:
    """Reattach a shared-memory handle back into its frame."""
    if isinstance(item, _SharedFrame):
        return Frame(item.variables, item.shared.load())
    return item


def _encode_value(value: Any) -> Any:
    if isinstance(value, dict):
        return {key: _encode_payload(item) for key, item in value.items()}
    return _encode_payload(value)


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        return {key: _decode_payload(item) for key, item in value.items()}
    return _decode_payload(value)


def _shared_handles(value: Any) -> list[SharedRows]:
    """The shared-memory handles inside an encoded value."""
    items = value.values() if isinstance(value, dict) else [value]
    return [item.shared for item in items if isinstance(item, _SharedFrame)]


#: an array buffer this large or larger crosses the session pipe out of band
OUT_OF_BAND_MIN = 1 << 16


def _send(connection, message: Any) -> None:
    """Send ``message`` as a protocol-5 pickle, the sizes of its array
    buffers of :data:`OUT_OF_BAND_MIN` bytes or more past its end, then
    those buffers' bytes straight from the arrays.  Nothing is sent unless
    the whole message pickles."""
    buffers = []

    def in_band(buffer: pickle.PickleBuffer) -> bool:
        raw = buffer.raw()
        if raw.nbytes < OUT_OF_BAND_MIN:
            return True
        buffers.append(raw)
        return False

    stream = io.BytesIO()
    # ForkingPickler itself takes no buffer_callback: borrow its reducers
    pickler = pickle.Pickler(stream, protocol=5, buffer_callback=in_band)
    pickler.dispatch_table = copyreg.dispatch_table | ForkingPickler._extra_reducers
    pickler.dump(message)
    sizes = [raw.nbytes for raw in buffers]
    stream.write(struct.pack(f"<{len(sizes)}QI", *sizes, len(sizes)))
    connection.send_bytes(stream.getbuffer())
    for raw in buffers:
        while raw:
            raw = raw[os.write(connection.fileno(), raw):]


def _recv(connection) -> Any:
    """Receive one :func:`_send` message, reading each out-of-band buffer
    into a fresh ``bytearray`` that the unpickled array owns."""
    header = connection.recv_bytes()
    (count,) = struct.unpack_from("<I", header, len(header) - 4)
    sizes = struct.unpack_from(f"<{count}Q", header, len(header) - 4 - 8 * count)
    buffers = [bytearray(size) for size in sizes]
    for buffer in buffers:
        view = memoryview(buffer)
        while view:
            read = os.readv(connection.fileno(), [view])
            if not read:
                raise EOFError("session pipe closed mid-message")
            view = view[read:]
    return pickle.loads(header, buffers=buffers)  # ignores the sizes past it


def _session_child_main(connection) -> None:
    """Serve structured local batches inside one persistent forked child.

    Each message is ``(runner, [(worker, ledger, encoded inputs), ...])``;
    the batch runs as one ``runner`` call and every outcome ships back as
    ``(worker, encoded value, mutated ledger, error)`` — the ledger rides
    along even when the task raised, so the parent honors the
    commit-before-lowest-failure contract exactly like the in-process
    runtimes.  ``None`` (or a closed pipe) ends the loop.
    """
    while True:
        try:
            message = _recv(connection)
        except (EOFError, OSError):
            break
        if message is None:
            break
        runner, batch = message
        batch = [
            (worker, ledger, _decode_value(payload))
            for worker, ledger, payload in batch
        ]
        results = [
            (worker, _encode_value(value), ledger, error)
            for worker, value, ledger, error in _run_batch(runner, batch)
        ]
        try:
            _send(connection, results)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            break
    connection.close()


def _trim_heap() -> None:
    """Give the allocator's freed pages back to the OS (glibc; else a no-op).
    A forked child starts with every page its parent has resident, and glibc
    keeps up to 64 MB of freed buffers — how much depends on pipe timing — so
    without this a pool's footprint moves by tens of MB from plan to plan."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):  # pragma: no cover - not glibc
        pass


class _SessionWorker:
    """One persistent forked child of a :class:`ProcessRuntime` session."""

    def __init__(self, context) -> None:
        parent, child = context.Pipe()
        self.connection = parent
        self.process = context.Process(
            target=_session_child_main, args=(child,), daemon=True
        )
        self.process.start()
        child.close()

    def stop(self) -> None:
        """Ask the child to exit, then reap it."""
        try:
            _send(self.connection, None)
        except (BrokenPipeError, OSError):
            pass
        self.connection.close()
        self.process.join(timeout=10)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=10)


class ProcessRuntime(WorkerRuntime):
    """Run worker batches on forked, pipe-connected session children.

    The only runtime that escapes the GIL: worker-local joins run on real
    cores, so wall-clock time drops with core count while every counted
    metric stays bit-identical to :class:`SerialRuntime` (the ledgers are
    plain picklable dataclasses; floats survive the pickle round trip
    exactly).  ``processes=None`` sizes the pool to the machine.

    Within one plan execution the scheduler opens a *session*
    (:meth:`open_session`): children forked once and reused by every local
    round, with the runner, slot inputs and ledgers shipped per phase — so
    a child needs no live driver state, and fault-injected rounds run here
    like any other (the fault session rides inside the runner).  A child
    that dies mid-round fails its batch's first worker and the session is
    dropped; the next one reforks.

    Requires the ``fork`` start method; on platforms without it, falls back
    to the thread pool with identical semantics.
    """

    name = "process"

    def __init__(self, processes: Optional[int] = None) -> None:
        if processes is not None and processes < 1:
            raise ValueError("ProcessRuntime needs at least one pool process")
        self.processes = processes
        self._session: Optional[list[_SessionWorker]] = None

    def open_session(self) -> None:
        """Fork the persistent per-plan worker pool (fork platforms only)."""
        if self._session is not None:
            return
        if "fork" not in multiprocessing.get_all_start_methods():
            return
        context = multiprocessing.get_context("fork")
        _trim_heap()  # the children inherit the live heap only
        size = self.processes or (os.cpu_count() or 1)
        self._session = [_SessionWorker(context) for _ in range(size)]

    def close_session(self) -> None:
        """Shut down the persistent pool, if one is open."""
        if self._session is None:
            return
        children, self._session = self._session, None
        for child in children:
            child.stop()

    def map_local(
        self,
        worker_ids: Iterable[int],
        runner: LocalRunner,
        payloads: dict,
        stats: ExecutionStats,
        memory: MemoryBudget,
    ) -> list:
        """:meth:`WorkerRuntime.map_local` over the session children.

        Without an open session the children are forked for this call
        alone; off-fork platforms run the batches on the thread pool.
        """
        if self._session is not None:
            return super().map_local(worker_ids, runner, payloads, stats, memory)
        self.open_session()
        if self._session is None:
            return ParallelRuntime(max_workers=self.processes).map_local(
                worker_ids, runner, payloads, stats, memory
            )
        try:
            return super().map_local(worker_ids, runner, payloads, stats, memory)
        finally:
            self.close_session()

    def _local_batches(self, ids: list[int]) -> list[list[int]]:
        """Deal worker ids round-robin: one batch per session child."""
        size = len(self._session)
        return [ids[k::size] for k in range(min(size, len(ids)))]

    def _run_batches(self, runner: LocalRunner, batches: list) -> list:
        """Ship each batch to its session child; collect what they send.

        Anything raised before every child is heard out drops the session,
        or the next Round would read a reply left in a pipe as its own."""
        shipped = []  # per child, the shm segments its message points at
        try:
            for child, batch in zip(self._session, batches):
                encoded = [
                    (worker, ledger, _encode_value(payload))
                    for worker, ledger, payload in batch
                ]
                shipped.append(
                    [h for _, _, value in encoded for h in _shared_handles(value)]
                )
                try:
                    _send(child.connection, (runner, encoded))
                except OSError:
                    pass  # the child is gone: its missing reply reports it below
            # every child is heard out and every shipped value decoded,
            # delivered or not: a shared-memory segment is only reclaimed by
            # loading it — or, when its child never answers, here
            outcomes, broken = [], False
            for child, batch, handles in zip(self._session, batches, shipped):
                try:
                    reply = _recv(child.connection)
                except (EOFError, OSError):
                    broken = True
                    for handle in handles:
                        handle.discard()
                    child.process.join(timeout=10)
                    worker, ledger, _ = batch[0]
                    died = RuntimeError(
                        f"session child {child.process.pid} died "
                        f"(exit code {child.process.exitcode})"
                    )
                    reply = [(worker, None, ledger, died)]
                outcomes.append([
                    (worker, _decode_value(value), ledger, error)
                    for worker, value, ledger, error in reply
                ])
        except BaseException:
            self._drop_session([h for handles in shipped for h in handles])
            raise
        if broken:
            self.close_session()  # the next open_session() reforks
        return outcomes

    def _drop_session(self, handles: list[SharedRows]) -> None:
        """Kill every child (one may be blocked sending a reply no one will
        read) and unlink ``handles``; the next Round reforks."""
        children, self._session = self._session, None
        for child in children:
            child.process.terminate()
            child.process.join(timeout=10)
            child.connection.close()
        for handle in handles:
            handle.discard()

    def __repr__(self) -> str:
        return f"ProcessRuntime(processes={self.processes})"


RuntimeLike = Union[str, WorkerRuntime, None]


def resolve_runtime(spec: RuntimeLike) -> WorkerRuntime:
    """Turn a runtime spec into a runtime instance.

    Accepts an existing :class:`WorkerRuntime`, ``None`` (→ serial), or the
    CLI spellings ``"serial"``, ``"parallel"`` / ``"parallel:N"`` for a
    thread pool, and ``"parallel:N:proc"`` (or ``"parallel:proc"`` for a
    machine-sized pool) for forked worker processes.
    """
    if spec is None:
        return SerialRuntime()
    if isinstance(spec, WorkerRuntime):
        return spec
    text = str(spec).strip().lower()
    if text == "serial":
        return SerialRuntime()
    if text == "parallel":
        return ParallelRuntime()
    if text == "parallel:proc":
        return ProcessRuntime()
    if text.startswith("parallel:") and text.endswith(":proc"):
        try:
            count = int(text[len("parallel:"): -len(":proc")])
        except ValueError:
            raise ValueError(
                f"bad runtime spec {spec!r}; "
                "use 'serial', 'parallel[:N]', or 'parallel:N:proc'"
            ) from None
        return ProcessRuntime(processes=count)
    if text.startswith("parallel:"):
        try:
            count = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(
                f"bad runtime spec {spec!r}; "
                "use 'serial', 'parallel[:N]', or 'parallel:N:proc'"
            ) from None
        return ParallelRuntime(max_workers=count)
    raise ValueError(
        f"unknown runtime {spec!r}; "
        "use 'serial', 'parallel[:N]', or 'parallel:N:proc'"
    )
