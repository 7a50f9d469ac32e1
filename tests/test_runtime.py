"""Unit tests for the pluggable worker runtimes and their ledger merge."""

import ctypes
import os
import signal
from functools import partial

import pytest

from repro.engine import runtime as runtime_module
from repro.engine.faults import (
    FaultPlan,
    FaultSession,
    FaultSpec,
    InjectedFault,
    RecoveryPolicy,
)
from repro.engine.frame import Frame
from repro.engine.local import scanned_query
from repro.engine.memory import MemoryBudget, OutOfMemoryError
from repro.engine.runtime import (
    ParallelRuntime,
    ProcessRuntime,
    SerialRuntime,
    _open_ledger,
    available_cpus,
    resolve_runtime,
)
from repro.engine.scheduler import _run_join_op, _run_local_batch
from repro.engine.shm import SHARED_MIN_ROWS
from repro.engine.stats import ExecutionStats
from repro.planner.physical import LocalTributaryJoin
from repro.query.atoms import Variable
from repro.query.parser import parse_query

RUNTIMES = [
    SerialRuntime(),
    ParallelRuntime(max_workers=3),
    ProcessRuntime(processes=2),
]
RUNTIME_IDS = ["serial", "parallel", "process"]


class TestResolveRuntime:
    def test_none_is_serial(self):
        assert isinstance(resolve_runtime(None), SerialRuntime)

    def test_serial_spelling(self):
        assert isinstance(resolve_runtime("serial"), SerialRuntime)

    def test_parallel_spelling(self):
        runtime = resolve_runtime("parallel")
        assert isinstance(runtime, ParallelRuntime)
        assert runtime.max_workers is None

    def test_parallel_with_pool_size(self):
        runtime = resolve_runtime("parallel:3")
        assert isinstance(runtime, ParallelRuntime)
        assert runtime.max_workers == 3

    def test_instance_passes_through(self):
        runtime = ParallelRuntime(max_workers=2)
        assert resolve_runtime(runtime) is runtime

    def test_process_spelling(self):
        runtime = resolve_runtime("parallel:proc")
        assert isinstance(runtime, ProcessRuntime)
        assert runtime.processes == available_cpus()

    def test_process_with_pool_size(self):
        runtime = resolve_runtime("parallel:4:proc")
        assert isinstance(runtime, ProcessRuntime)
        assert runtime.processes == 4

    @pytest.mark.parametrize(
        "bad",
        ["threads", "parallel:x", "parallel:", "parallel:proc:4",
         "parallel:x:proc", "parallel::proc", "proc"],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_runtime(bad)

    def test_zero_pool_rejected(self):
        with pytest.raises(ValueError):
            ParallelRuntime(max_workers=0)

    def test_zero_process_pool_rejected(self):
        with pytest.raises(ValueError):
            ProcessRuntime(processes=0)
        with pytest.raises(ValueError):
            resolve_runtime("parallel:0:proc")


class TestDefaultSizes:
    """An unsized pool counts the CPUs this process may run on."""

    def test_thread_pool_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7},
                            raising=False)
        assert len(ParallelRuntime()._local_batches(list(range(10)))) == 3
        assert runtime_module.available_cpus() == 3

    def test_without_an_affinity_mask_the_machine_counts(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert runtime_module.available_cpus() == 5

    def test_process_pool_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3},
                            raising=False)
        runtime = ProcessRuntime()
        try:
            assert len(set(_round(runtime, _pid_runner))) == 1
        finally:
            runtime.close_session()


def _per_worker(task, batch):
    """Lift a per-worker ``task(worker, ledger, inputs)`` into a batch runner
    that stops, as the contract asks, at its first failing worker."""
    outcomes = []
    for worker, ledger, inputs in batch:
        try:
            outcomes.append((task(worker, ledger, inputs), None))
        except Exception as error:
            outcomes.append((None, error))
            break
    return outcomes


def _map(runtime, worker_ids, task, stats, memory, payloads=None):
    """One ``map_local`` round of a module-level (so picklable) task."""
    ids = list(worker_ids)
    return runtime.map_local(
        ids, partial(_per_worker, task), payloads or dict.fromkeys(ids),
        stats, memory,
    )


def _times_ten(worker, ledger, inputs):
    return worker * 10


def _charge_two_phases(worker, ledger, inputs):
    ledger.stats.charge(worker, 5.0 * (worker + 1), "join")
    ledger.stats.charge(worker, 1.0, "filter")


def _allocate_then_release(worker, ledger, inputs):
    ledger.memory.allocate(worker, 50, "join")
    ledger.stats.record_memory(worker, ledger.memory.resident(worker))
    ledger.memory.release(worker, 120)  # consumed inputs + scratch


def _allocate_and_peek(worker, ledger, shared_budget):
    ledger.memory.allocate(worker, 10, "join")
    # the shared budget must not see the allocation mid-task
    return shared_budget.resident(worker)


def _overflow_on_1_and_3(worker, ledger, inputs):
    ledger.stats.charge(worker, 7.0, "join")
    ledger.memory.allocate(worker, 200 if worker in (1, 3) else 10, "join")


def _mixed_task(worker, ledger, inputs):
    ledger.stats.charge(worker, 2.5 * worker, "a")
    ledger.stats.charge(worker, 1.0, "b")
    ledger.memory.allocate(worker, worker + 1, "a")
    ledger.stats.record_memory(worker, ledger.memory.resident(worker))
    return worker * worker


def _merged_state(runtime, workers=8):
    stats = ExecutionStats(workers=workers)
    memory = MemoryBudget()
    values = _map(runtime, range(workers), _mixed_task, stats, memory)
    return _state(values, stats, memory, workers)


@pytest.mark.parametrize("runtime", RUNTIMES, ids=RUNTIME_IDS)
class TestMapWorkers:
    """What ``map_local`` promises about each worker, on every runtime."""

    def test_values_in_worker_order(self, runtime):
        stats = ExecutionStats(workers=4)
        values = _map(runtime, range(4), _times_ten, stats, MemoryBudget())
        assert values == [0, 10, 20, 30]

    def test_charges_merge_into_shared_stats(self, runtime):
        stats = ExecutionStats(workers=3)
        _map(runtime, range(3), _charge_two_phases, stats, MemoryBudget())
        assert stats.worker_loads("join") == {0: 5.0, 1: 10.0, 2: 15.0}
        assert stats.worker_loads("filter") == {0: 1.0, 1: 1.0, 2: 1.0}
        assert stats.total_cpu == 33.0
        assert stats.wall_clock == 16.0  # max(join)=15 + max(filter)=1

    def test_memory_commits_back_to_budget(self, runtime):
        stats = ExecutionStats(workers=2)
        memory = MemoryBudget()
        memory.allocate(0, 100, "scan")
        memory.allocate(1, 100, "scan")
        _map(runtime, range(2), _allocate_then_release, stats, memory)
        for worker in range(2):
            assert memory.resident(worker) == 30
            assert memory.peak(worker) == 150
            assert stats.peak_memory[worker] == 150

    def test_empty_worker_set(self, runtime):
        stats = ExecutionStats()
        assert _map(runtime, [], _times_ten, stats, MemoryBudget()) == []

    def test_ledger_isolated_until_commit(self, runtime):
        """Operators inside a task never touch the shared budget directly.

        The shared budget reaches the task as its payload: the very object
        in-process, a copy in a forked child — unchanged mid-task either
        way, and the observation is returned (a child's side effects never
        reach the parent)."""
        stats = ExecutionStats(workers=2)
        memory = MemoryBudget()
        observed = _map(
            runtime, range(2), _allocate_and_peek, stats, memory,
            payloads=dict.fromkeys(range(2), memory),
        )
        assert observed == [0, 0]
        assert memory.resident(0) == 10 and memory.resident(1) == 10

    def test_oom_raised_for_lowest_failing_worker(self, runtime):
        """Workers 1 and 3 both exceed the budget; the error and the merged
        state must match a serial execution stopping at worker 1."""
        stats = ExecutionStats(workers=4)
        memory = MemoryBudget(per_worker_tuples=100)
        with pytest.raises(OutOfMemoryError) as excinfo:
            _map(runtime, range(4), _overflow_on_1_and_3, stats, memory)
        assert excinfo.value.worker == 1
        # workers 0 and 1 committed (1 partially); 2 and 3 discarded
        assert stats.worker_loads("join") == {0: 7.0, 1: 7.0}
        assert memory.resident(0) == 10
        assert memory.resident(2) == 0 and memory.resident(3) == 0


class TestSerialParallelEquivalence:
    def test_identical_merged_state(self):
        assert _merged_state(SerialRuntime()) == _merged_state(
            ParallelRuntime(max_workers=4)
        )


class TestProcessRuntime:
    """Process-specific behavior beyond the shared per-worker battery.

    The shared battery above already pins that forked execution merges
    ledgers, values, and OOM failures identically to serial — including
    :class:`OutOfMemoryError` crossing a real worker pipe.  These tests
    cover the process-only surface."""

    def test_merged_state_matches_serial(self):
        assert _merged_state(SerialRuntime()) == _merged_state(
            ProcessRuntime(processes=3)
        )

    def test_oom_error_survives_pickling(self):
        import pickle

        error = OutOfMemoryError(3, "join", 150, 100)
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.worker, clone.phase, clone.resident, clone.budget) == (
            3, "join", 150, 100,
        )
        assert str(clone) == str(error)

    def test_injected_fault_survives_pickling(self):
        import pickle

        spec = FaultSpec(kind="crash", round="step 1", worker=2, phase="step1:join")
        error = InjectedFault(spec, 1, "step 1", 2, "step1:join")
        clone = pickle.loads(pickle.dumps(error))
        assert (
            clone.spec, clone.round_index, clone.round_label, clone.worker,
            clone.phase,
        ) == (spec, 1, "step 1", 2, "step1:join")
        assert str(clone) == str(error)

    def test_repr_names_pool_size(self):
        assert "4" in repr(ProcessRuntime(processes=4))


# ----------------------------------------------------------------------
# map_local: every executor gets its workers as one batch, whose Tributary
# joins share a trie walk — failure still looks like one worker at a time
# ----------------------------------------------------------------------

X, Y, Z = Variable("x"), Variable("y"), Variable("z")
LOCAL_QUERY = scanned_query(parse_query("Q(x,y,z) :- R(x,y), S(y,z)."))
LOCAL_JOIN = LocalTributaryJoin(
    query=LOCAL_QUERY, inputs=(("R", "r"), ("S", "s")), out="out",
    order=(Y, X, Z),
)


def _star(n, center=0):
    """Frames whose join is the ``n * n`` cross product through ``center``."""
    return {
        "r": Frame((X, Y), [(i, center) for i in range(n)]),
        "s": Frame((Y, Z), [(center, i) for i in range(n)]),
    }


def _map_local(runtime, payloads, budget, crash_on=None):
    """State left by one batched local round (the join, then nothing), with
    a round-boundary crash injected on worker ``crash_on``."""
    stats = ExecutionStats(workers=len(payloads))
    memory = MemoryBudget(per_worker_tuples=budget)
    hooks = None
    if crash_on is not None:
        plan = FaultPlan(faults=(FaultSpec(kind="crash", worker=crash_on),))
        hooks = (FaultSession(plan, RecoveryPolicy(), len(payloads)), 0, "r", 0)
    runtime.open_session()
    try:
        outcome = runtime.map_local(
            range(len(payloads)),
            partial(_run_local_batch, ops=(LOCAL_JOIN,), hooks=hooks),
            dict(enumerate(payloads)),
            stats,
            memory,
        )
    except OutOfMemoryError as error:
        outcome = (error.worker, error.phase, error.resident)
    except InjectedFault as fault:
        outcome = (fault.worker, fault.spec.kind)
    finally:
        runtime.close_session()
    return _state(outcome, stats, memory, len(payloads))


class _OneWorkerBatches(SerialRuntime):
    """Every worker a batch of its own: no trie walk is shared."""

    def _local_batches(self, ids):
        return [[worker] for worker in ids]


def _one_worker_at_a_time(payloads, budget, crash_on=None):
    """The reference: ``_run_local_batch`` called with one task at a time."""
    return _map_local(_OneWorkerBatches(), payloads, budget, crash_on)


def _state(outcome, stats, memory, workers):
    return (
        outcome,
        stats.phases(),
        stats.worker_loads(),
        stats.peak_memory,
        [(memory.resident(w), memory.peak(w)) for w in range(workers)],
    )


LOCAL_RUNTIMES = [
    SerialRuntime,
    lambda: ParallelRuntime(max_workers=2),
    lambda: resolve_runtime("parallel:2:proc"),
]


@pytest.mark.parametrize("make_runtime", LOCAL_RUNTIMES, ids=RUNTIME_IDS)
class TestMapLocalBatches:
    def test_batch_matches_one_worker_at_a_time(self, make_runtime):
        payloads = [_star(n) for n in (3, 1, 4, 1, 5)]
        expected = _one_worker_at_a_time(payloads, budget=None)
        assert _map_local(make_runtime(), payloads, None) == expected
        assert [len(produced["out"]) for produced in expected[0]] == [
            9, 1, 16, 1, 25,
        ]

    def test_oom_at_the_sort_allocation_of_a_mid_batch_worker(self, make_runtime):
        """Worker 2's inputs alone break the budget: workers 0-1 commit in
        full, worker 2 keeps the allocation it failed on, 3-4 are dropped."""
        payloads = [_star(n) for n in (3, 2, 30, 2, 3)]
        expected = _one_worker_at_a_time(payloads, budget=40)
        assert expected[0] == (2, "sort", 60)
        assert _map_local(make_runtime(), payloads, 40) == expected
        assert sorted(expected[2]) == [0, 1]  # nobody past the failure charged
        assert expected[4][2] == (60, 60) and expected[4][3] == (0, 0)

    def test_oom_at_the_result_allocation_of_a_mid_batch_worker(self, make_runtime):
        """Worker 2 sorts within budget and overflows materializing its 36
        results: its sort and join charges are kept, later workers dropped."""
        payloads = [_star(n) for n in (3, 2, 6, 2, 3)]
        expected = _one_worker_at_a_time(payloads, budget=40)
        assert expected[0] == (2, "tributary join", 48)
        assert _map_local(make_runtime(), payloads, 40) == expected
        assert sorted(expected[2]) == [0, 1, 2]
        assert expected[4][2] == (48, 48) and expected[4][3] == (0, 0)

    def test_two_failures_raise_the_lower_worker(self, make_runtime):
        payloads = [_star(n) for n in (3, 30, 2, 6, 3)]
        expected = _one_worker_at_a_time(payloads, budget=40)
        assert expected[0] == (1, "sort", 60)
        assert _map_local(make_runtime(), payloads, 40) == expected

    @pytest.mark.parametrize(
        "crash_on, outcome", [(0, (0, "crash")), (4, (2, "sort", 60))]
    )
    def test_crash_and_oom_in_one_batch_raise_the_lower_worker(
        self, make_runtime, crash_on, outcome
    ):
        """Worker 2 really runs out of memory and a round-boundary crash is
        injected on another worker of its batch (0, 2 and 4 share one under
        every runtime): whichever has the lower id is the round's failure."""
        payloads = [_star(n) for n in (3, 2, 30, 2, 3)]
        expected = _one_worker_at_a_time(payloads, 40, crash_on)
        assert expected[0] == outcome
        assert _map_local(make_runtime(), payloads, 40, crash_on) == expected
        assert sorted(expected[2]) == list(range(outcome[0]))


def _broken_runner(batch):
    """A runner that breaks its contract: charges, then raises."""
    worker, ledger, _ = batch[0]
    ledger.stats.charge(worker, 7, "broken")
    raise ValueError(f"runner broke on a batch led by worker {worker}")


def _pid_runner(batch):
    return [(os.getpid(), None) for _ in batch]


@pytest.mark.parametrize("make_runtime", LOCAL_RUNTIMES, ids=RUNTIME_IDS)
def test_raising_runner_fails_its_first_worker_and_spares_the_executor(
    make_runtime,
):
    """Whatever escapes a runner is the failure of its batch's first worker
    (ledger committed, error re-raised) on every runtime, and a session
    child lives to serve the next round."""
    runtime = make_runtime()
    payloads = dict(enumerate([_star(2)] * 4))
    stats = ExecutionStats(workers=4)
    memory = MemoryBudget(per_worker_tuples=None)
    runtime.open_session()
    try:
        with pytest.raises(ValueError, match="led by worker 0"):
            runtime.map_local(range(4), _broken_runner, payloads, stats, memory)
        assert stats.worker_loads() == {0: 7}
        produced = runtime.map_local(
            range(4), partial(_run_local_batch, ops=(LOCAL_JOIN,)),
            payloads, stats, memory,
        )
        assert [len(p["out"]) for p in produced] == [4, 4, 4, 4]
    finally:
        runtime.close_session()


def _exit_with_worker_1(batch):
    """Kills the executor handed worker 1; any other ships a charge and a
    row list of ``SHARED_MIN_ROWS`` rows per worker."""
    if any(worker == 1 for worker, _, _ in batch):
        os._exit(1)
    for worker, ledger, _ in batch:
        ledger.stats.charge(worker, 3, "alive")
    return [
        ([(worker, i) for i in range(SHARED_MIN_ROWS)], None)
        for worker, _, _ in batch
    ]


def _shm_segments():
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm to inspect")
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _round(runtime, runner, stats=None):
    return runtime.map_local(
        range(4), runner, dict.fromkeys(range(4)),
        stats or ExecutionStats(workers=4), MemoryBudget(per_worker_tuples=None),
    )


def test_session_child_dying_mid_round_fails_its_first_worker():
    """Worker 1's child exits under it: that is worker 1 failing — worker 0
    committed, the surviving child's reply drained, the driver's own worker 2
    discarded, no segment created — and the runtime reforks for the next
    round."""
    before = _shm_segments()
    runtime = ProcessRuntime(processes=3)  # batches [0, 3], [1] and [2]
    stats = ExecutionStats(workers=4)
    runtime.open_session()
    try:
        doomed = runtime._session[1].process.pid
        with pytest.raises(
            RuntimeError, match=rf"session child {doomed} died \(exit code 1\)"
        ):
            _round(runtime, _exit_with_worker_1, stats)
        assert stats.worker_loads() == {0: 3}
        assert not _shm_segments() - before
        assert runtime._session is None
        assert len(set(_round(runtime, _pid_runner))) == 3  # forked for the call
        runtime.open_session()
        assert all(child.process.is_alive() for child in runtime._session)
        assert len(set(_round(runtime, _pid_runner))) == 3
    finally:
        runtime.close_session()


def test_session_child_killed_between_rounds_is_reforked_before_the_next():
    """Nothing was in flight when the child died, so the next Round — which
    may belong to an unrelated query — loses nothing: the dead child is
    replaced before the Round ships, and the live one is kept."""
    runtime = ProcessRuntime(processes=3)
    runtime.open_session()
    try:
        victim, survivor = (child.process for child in runtime._session)
        victim.kill()
        victim.join(timeout=10)
        assert victim.exitcode == -signal.SIGKILL
        pids = _round(runtime, _pid_runner)
        assert len(set(pids)) == 3 and os.getpid() in pids
        assert victim.pid not in pids and survivor.pid in pids
    finally:
        runtime.close_session()


def test_a_child_killed_as_the_round_ships_to_it_fails_the_round(monkeypatch):
    """The child is killed as its large row-list input is sent: the write
    into its pipe fails, its missing reply fails the Round although the
    driver ran its own batch, and nothing is left in ``/dev/shm``."""
    before = _shm_segments()
    runtime = ProcessRuntime(processes=2)
    runtime.open_session()
    doomed = runtime._session[0]
    victim = doomed.process
    send = runtime_module._send

    def killing_send(connection, message):
        if connection is doomed.connection and message is not None:
            victim.kill()
            victim.join(timeout=10)
        send(connection, message)

    monkeypatch.setattr(runtime_module, "_send", killing_send)
    try:
        payloads = {
            worker: {"in": Frame(("x", "y"), [(worker, i) for i in range(20_000)])}
            for worker in range(2)
        }
        with pytest.raises(RuntimeError, match=rf"session child {victim.pid} died"):
            runtime.map_local(
                range(2), _pid_runner, payloads, ExecutionStats(workers=2),
                MemoryBudget(per_worker_tuples=None),
            )
        assert runtime._session is None
    finally:
        runtime.close_session()
    assert not _shm_segments() - before


def test_failure_after_the_shared_walk_is_its_own_workers():
    """An error binding worker 2's output stops the batch at worker 2: the
    workers before it have written theirs."""
    memory = MemoryBudget(per_worker_tuples=None)
    written = {}

    def write_for(worker):
        def write(slot, rows):
            if worker == 2:
                raise RuntimeError("slot refused")
            written[worker] = rows

        return write

    views = [
        (worker, _open_ledger(worker, memory), _star(2).__getitem__, write_for(worker))
        for worker in range(4)
    ]
    done, error = _run_join_op(LOCAL_JOIN, views)
    assert done == 2 and str(error) == "slot refused"
    assert sorted(written) == [0, 1]


def _resident_mb():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _resident_runner(batch):
    return [(_resident_mb(), None) for _ in batch]


@pytest.mark.skipif(
    not hasattr(ctypes.CDLL(None), "malloc_trim"), reason="glibc only"
)
def test_session_children_do_not_inherit_freed_heap():
    """60 MB of buffers are freed with every 50th kept, so the allocator
    cannot shrink the heap by itself; a pool forked now must not start with
    those pages resident (how much dead heap a parent holds varies from run
    to run, and every child would carry it into its peak)."""
    blocks = [b"x" * 60_000 for _ in range(1000)]
    pins = blocks[::50]
    del blocks
    before = _resident_mb()
    resident = _round(ProcessRuntime(processes=2), _resident_runner)
    children = resident[::2]  # the child runs workers 0 and 2, the driver 1, 3
    assert len(pins) == 20 and max(children) < before - 30


def test_failed_round_leaks_no_shared_memory():
    """Worker 1 fails in the driver's batch; worker 2 — the child's — ships
    its 16 384-row result over the pipe, and nothing is left in
    ``/dev/shm`` although the value is never delivered."""
    before = _shm_segments()
    side = 128
    assert side * side >= SHARED_MIN_ROWS
    payloads = [_star(2), _star(10_000), _star(side), _star(2)]
    state = _map_local(resolve_runtime("parallel:2:proc"), payloads, 17_000)
    assert state[0] == (1, "sort", 20_000)
    assert not _shm_segments() - before
