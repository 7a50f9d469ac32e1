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
- :class:`ProcessRuntime` — ``N`` executors for ``--runtime
  parallel:N:proc``: ``N - 1`` children of a forked, pipe-connected pool
  that lives as long as the runtime, plus the driver itself, which runs
  the last batch in place while the children run theirs — the only mode
  that escapes the GIL for true multicore wall-clock speedup.  Each
  executor runs on its own CPU of the process's affinity mask (round-robin
  when there are more executors than CPUs): a child pins itself when it
  starts, the driver pins its calling thread only while it runs its batch.
  Everything a child needs — the kernel backend, the runner, the slot
  inputs, the ledgers — is shipped to it with every batch as a protocol-5
  pickle whose array buffers of 64 KiB or more follow it out of band
  (:func:`_send`), one copy each way; the pipe is the only transport.
  Each child's ledgers are pickled back and merged exactly like the thread
  runtime's; the driver's batch charges its ledgers in place, as the
  serial runtime does.

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
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Iterable, Optional, Union

from . import kernels
from .memory import MemoryBudget, WorkerMemoryAccount
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
        """Start the runtime's executors now rather than at the first
        :meth:`map_local` (no-op for in-process runtimes)."""

    def close_session(self) -> None:
        """Stop the runtime's executors; the next :meth:`map_local` starts
        them again (no-op for in-process runtimes)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _affinity() -> list[int]:
    """The CPUs this process may run on, ascending; empty where the OS
    keeps no affinity mask."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity on this OS
        return []


def available_cpus() -> int:
    """How many CPUs this process may run on: its affinity mask where the
    OS keeps one, else the machine's count."""
    return len(_affinity()) or os.cpu_count() or 1


class SerialRuntime(WorkerRuntime):
    """Run every worker as one batch on the calling thread."""

    name = "serial"


class ParallelRuntime(WorkerRuntime):
    """Run worker batches concurrently on a thread pool.

    ``max_workers=None`` sizes the pool to :func:`available_cpus`.  The
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
        size = self.max_workers or min(32, available_cpus())
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


def _encode_payload(item: Any) -> Any:
    """One slot input of a shipped batch, as it crosses the pipe: unchanged,
    since :func:`_send` already pickles row lists and moves column blocks'
    arrays with one copy each way.  Kept as the per-frame call of
    :meth:`ProcessRuntime._run_batches` because tests spy on it through this
    module's attribute to see which frames cross."""
    return item


def _encode_value(value: Any) -> Any:
    if isinstance(value, dict):
        return {key: _encode_payload(item) for key, item in value.items()}
    return _encode_payload(value)


def _pin(cpu: Optional[int]) -> bool:
    """Bind the calling thread to ``cpu``; False — and nothing changed —
    where there is no CPU to pin to, no ``sched_setaffinity``, or the
    kernel refuses the mask."""
    if cpu is None:
        return False
    try:
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return False
    return True


@contextmanager
def _pinned(cpu: Optional[int]):
    """Run the block with the calling thread bound to ``cpu``, then give it
    back the mask it had; unpinned where ``cpu`` is None, outside the
    thread's current mask, or cannot be pinned."""
    saved = set(_affinity())
    pinned = cpu in saved and _pin(cpu)
    try:
        yield
    finally:
        if pinned:
            try:
                os.sched_setaffinity(0, saved)
            except OSError:  # pragma: no cover - a CPU went offline meanwhile
                pass


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


def _session_child_main(connection, cpu: Optional[int]) -> None:
    """Serve structured local batches inside one persistent forked child,
    bound to ``cpu`` (see :func:`_pin`).

    Each message is ``(kernel backend, runner, [(worker, ledger, inputs),
    ...])``; the batch runs as one ``runner`` call under the driver's
    backend — the child outlives whatever backend it was forked under — and
    every outcome ships back as ``(worker, value, mutated ledger, error)``:
    the ledger rides along even when the task raised, so the parent honors
    the commit-before-lowest-failure contract exactly like the in-process
    runtimes.  ``None`` (or a closed pipe) ends the loop.
    """
    _pin(cpu)
    while True:
        try:
            message = _recv(connection)
        except (EOFError, OSError):
            break
        if message is None:
            break
        backend, runner, batch = message
        with kernels.use_backend(backend):
            results = _run_batch(runner, batch)
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
    """One persistent forked child of a :class:`ProcessRuntime` pool, bound
    to ``cpu`` (``None``: unpinned) for as long as the slot is refilled."""

    def __init__(self, context, cpu: Optional[int]) -> None:
        parent, child = context.Pipe()
        self.connection = parent
        self.cpu = cpu
        self.process = context.Process(
            target=_session_child_main, args=(child, cpu), daemon=True
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


def _stop_pool(owner: int, children: list[_SessionWorker]) -> None:
    """Stop ``children`` — in the process that forked them only: a pool
    child that frees its inherited copy of the runtime must not stop its
    siblings through the pipe ends it inherited too."""
    if os.getpid() == owner:
        for child in children:
            child.stop()


class ProcessRuntime(WorkerRuntime):
    """Run worker batches on the driver and the children of one forked,
    pipe-connected pool.

    The only runtime that escapes the GIL: worker-local joins run on real
    cores, so wall-clock time drops with core count while every counted
    metric stays bit-identical to :class:`SerialRuntime` (the ledgers are
    plain picklable dataclasses; floats survive the pickle round trip
    exactly).  ``processes`` counts the executors, the driver among them:
    the pool has ``processes - 1`` children (none for one), and
    ``processes=None`` sizes it to :func:`available_cpus`.  Each Round ships
    every batch but the last to a child, runs the last one in the driver
    — no pickling, ledgers charged in place — and only then reads the
    children's replies.

    Executor ``i`` runs on ``cpus[i % len(cpus)]`` of the affinity mask
    read when the pool forks: children are executors ``0 … N - 2`` and pin
    themselves for life, and the driver, executor ``N - 1``, pins only its
    calling thread and only while it runs its own batch of a Round that
    shipped one, restoring that thread's mask afterwards, whether or not
    the batch failed.  Left to the scheduler, a child woken by a pipe write
    tends to run on the writer's CPU, so the two halves of a Round share
    one core while the other idles.  An executor whose CPU cannot be
    pinned (no ``sched_setaffinity``, a mask the kernel refuses, a driver
    CPU outside the thread's current mask) runs unpinned; placement never
    changes which worker runs where, so rows and counted metrics cannot
    move with it.

    The pool lives as long as the runtime: :meth:`open_session` — which
    every plan calls before its first Round builds a frame — or else the
    first :meth:`map_local` forks it, and every later Round — of any plan, any
    :class:`~repro.engine.service.QueryService` drain — reuses it, with the
    kernel backend, runner, slot inputs and ledgers shipped per batch, so a
    child needs no live driver state and fault-injected rounds run here
    like any other (the fault session rides inside the runner).  One lock
    serializes :meth:`map_local`: the pool is shared by every thread that
    holds the runtime.  A child found dead between Rounds is reforked
    before the next one ships — nothing was in flight, so nothing is lost;
    a child that dies *mid*-Round fails its batch's first worker and the
    whole pool is dropped, to be reforked by the next Round.  Children
    still alive when the runtime is collected, or the interpreter exits,
    are stopped and reaped.

    Requires the ``fork`` start method; on platforms without it, falls back
    to the thread pool with identical semantics.
    """

    name = "process"

    def __init__(self, processes: Optional[int] = None) -> None:
        if processes is not None and processes < 1:
            raise ValueError("ProcessRuntime needs at least one pool process")
        self.processes = processes
        self._session: Optional[list[_SessionWorker]] = None
        self._cpus: list[int] = []
        self._reaper: Optional[weakref.finalize] = None
        self._lock = threading.Lock()

    def open_session(self) -> None:
        """Fork the pool now rather than at the first :meth:`map_local`."""
        with self._lock:
            self._start()

    def close_session(self) -> None:
        """Stop and reap the pool, if one is running; the next
        :meth:`map_local` forks a new one."""
        with self._lock:
            self._stop()

    def _start(self) -> bool:
        """Make every child of the pool a live one: fork the pool if there
        is none, else refork each child that died since the last Round.
        False where ``fork`` is unavailable."""
        if "fork" not in multiprocessing.get_all_start_methods():
            return False
        context = multiprocessing.get_context("fork")
        if self._session is None:
            _trim_heap()  # the children inherit the live heap only
            children = (self.processes or available_cpus()) - 1  # + the driver
            self._cpus = _affinity()
            self._session = [
                _SessionWorker(context, self._cpu_of(index))
                for index in range(children)
            ]
            self._reaper = weakref.finalize(
                self, _stop_pool, os.getpid(), self._session
            )
            return True
        for index, child in enumerate(self._session):
            if not child.process.is_alive():
                child.process.join(timeout=10)
                child.connection.close()
                _trim_heap()
                self._session[index] = _SessionWorker(context, child.cpu)
        return True

    def _cpu_of(self, executor: int) -> Optional[int]:
        """The CPU executor ``executor`` runs on (``None``: unpinned)."""
        if not self._cpus:
            return None
        return self._cpus[executor % len(self._cpus)]

    def _stop(self) -> None:
        """Stop and reap every child (the reaper is the one place that does)."""
        if self._session is not None:
            self._session = None
            self._reaper()

    def map_local(
        self,
        worker_ids: Iterable[int],
        runner: LocalRunner,
        payloads: dict,
        stats: ExecutionStats,
        memory: MemoryBudget,
    ) -> list:
        """:meth:`WorkerRuntime.map_local` over the pool's children, forked
        on first use; off-fork platforms run the batches on the thread pool.
        """
        with self._lock:
            if self._start():
                return super().map_local(worker_ids, runner, payloads, stats, memory)
        return ParallelRuntime(max_workers=self.processes).map_local(
            worker_ids, runner, payloads, stats, memory
        )

    def _local_batches(self, ids: list[int]) -> list[list[int]]:
        """Deal worker ids round-robin: one batch per executor, the pool's
        children and the driver."""
        size = len(self._session) + 1
        return [ids[k::size] for k in range(min(size, len(ids)))]

    def _run_batches(self, runner: LocalRunner, batches: list) -> list:
        """Ship every batch but the last to its pool child, run the last in
        the driver meanwhile, then collect what the children send.

        A child that died, or anything raised before every child is heard
        out, drops the pool: the next Round reforks it rather than read a
        reply left in a pipe as its own."""
        backend = kernels.get_backend()
        *shipped, own = batches
        try:
            for child, batch in zip(self._session, shipped):
                encoded = [
                    (worker, ledger, _encode_value(payload))
                    for worker, ledger, payload in batch
                ]
                try:
                    _send(child.connection, (backend, runner, encoded))
                except OSError:
                    pass  # the child is gone: its missing reply reports it below
            # the driver's own batch runs while the children run theirs,
            # on its own CPU when it has company
            driver_cpu = self._cpu_of(len(self._session)) if shipped else None
            with _pinned(driver_cpu):
                outcomes = [_run_batch(runner, own)]
            broken = False
            for child, batch in zip(self._session, shipped):
                try:
                    reply = _recv(child.connection)
                except (EOFError, OSError):
                    broken = True
                    child.process.join(timeout=10)
                    worker, ledger, _ = batch[0]
                    died = RuntimeError(
                        f"session child {child.process.pid} died "
                        f"(exit code {child.process.exitcode})"
                    )
                    reply = [(worker, None, ledger, died)]
                outcomes.append(reply)
        except BaseException:
            self._drop_session()
            raise
        if broken:
            self._drop_session()
        return outcomes

    def _drop_session(self) -> None:
        """Kill every child (one may be blocked sending a reply no one will
        read); the next Round reforks."""
        for child in self._session:
            child.process.terminate()
        self._stop()

    def __repr__(self) -> str:
        return f"ProcessRuntime(processes={self.processes})"


RuntimeLike = Union[str, WorkerRuntime, None]

#: the interpreter's process runtime per pool size
_SHARED_POOLS: dict[int, ProcessRuntime] = {}
_SHARED_POOLS_LOCK = threading.Lock()


def _shared_process_runtime(processes: Optional[int]) -> ProcessRuntime:
    """The one :class:`ProcessRuntime` a spec of this size resolves to, so
    successive queries reuse its pool; an unsized spec is sized here, so it
    shares the pool of the size it resolves to."""
    size = available_cpus() if processes is None else processes
    with _SHARED_POOLS_LOCK:
        if size not in _SHARED_POOLS:
            _SHARED_POOLS[size] = ProcessRuntime(size)
        return _SHARED_POOLS[size]


def resolve_runtime(spec: RuntimeLike) -> WorkerRuntime:
    """Turn a runtime spec into a runtime instance.

    Accepts an existing :class:`WorkerRuntime`, ``None`` (→ serial), or the
    CLI spellings ``"serial"``, ``"parallel"`` / ``"parallel:N"`` for a
    thread pool, and ``"parallel:N:proc"`` (or ``"parallel:proc"`` for
    :func:`available_cpus` executors) for the driver plus ``N - 1`` forked
    worker processes.  A process spec resolves to one shared runtime per
    pool size, whichever spelling names it, whose children live as long as
    the interpreter; an instance passed in is used as it is.
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
        return _shared_process_runtime(None)
    if text.startswith("parallel:") and text.endswith(":proc"):
        try:
            count = int(text[len("parallel:"): -len(":proc")])
        except ValueError:
            raise ValueError(
                f"bad runtime spec {spec!r}; "
                "use 'serial', 'parallel[:N]', or 'parallel:N:proc'"
            ) from None
        return _shared_process_runtime(count)
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
