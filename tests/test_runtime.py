"""Unit tests for the pluggable worker runtimes and their ledger merge."""

from functools import partial

import pytest

from repro.engine.frame import Frame
from repro.engine.local import scanned_query
from repro.engine.memory import MemoryBudget, OutOfMemoryError
from repro.engine.runtime import (
    ParallelRuntime,
    ProcessRuntime,
    SerialRuntime,
    WorkerRuntime,
    _open_ledger,
    resolve_runtime,
)
from repro.engine.scheduler import _run_join_op, _run_local_batch, _run_local_op
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
        assert runtime.processes is None

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


@pytest.mark.parametrize("runtime", RUNTIMES, ids=RUNTIME_IDS)
class TestMapWorkers:
    def test_values_in_worker_order(self, runtime):
        stats = ExecutionStats(workers=4)
        memory = MemoryBudget()
        values = runtime.map_workers(
            range(4), lambda w, ledger: w * 10, stats, memory
        )
        assert values == [0, 10, 20, 30]

    def test_charges_merge_into_shared_stats(self, runtime):
        stats = ExecutionStats(workers=3)
        memory = MemoryBudget()

        def task(worker, ledger):
            ledger.stats.charge(worker, 5.0 * (worker + 1), "join")
            ledger.stats.charge(worker, 1.0, "filter")

        runtime.map_workers(range(3), task, stats, memory)
        assert stats.worker_loads("join") == {0: 5.0, 1: 10.0, 2: 15.0}
        assert stats.worker_loads("filter") == {0: 1.0, 1: 1.0, 2: 1.0}
        assert stats.total_cpu == 33.0
        assert stats.wall_clock == 16.0  # max(join)=15 + max(filter)=1

    def test_memory_commits_back_to_budget(self, runtime):
        stats = ExecutionStats(workers=2)
        memory = MemoryBudget()
        memory.allocate(0, 100, "scan")
        memory.allocate(1, 100, "scan")

        def task(worker, ledger):
            ledger.memory.allocate(worker, 50, "join")
            ledger.stats.record_memory(worker, ledger.memory.resident(worker))
            ledger.memory.release(worker, 120)  # consumed inputs + scratch

        runtime.map_workers(range(2), task, stats, memory)
        for worker in range(2):
            assert memory.resident(worker) == 30
            assert memory.peak(worker) == 150
            assert stats.peak_memory[worker] == 150

    def test_empty_worker_set(self, runtime):
        stats = ExecutionStats()
        assert runtime.map_workers(
            [], lambda worker, ledger: worker, stats, MemoryBudget()
        ) == []

    def test_ledger_isolated_until_commit(self, runtime):
        """Operators inside a task never touch the shared budget directly.

        The observation is returned from the task (not written to a shared
        dict) so the same assertion holds under forked workers, whose
        side effects never reach the parent."""
        stats = ExecutionStats(workers=2)
        memory = MemoryBudget()

        def task(worker, ledger):
            ledger.memory.allocate(worker, 10, "join")
            # the shared budget must not see the allocation mid-task
            return memory.resident(worker)

        observed = runtime.map_workers(range(2), task, stats, memory)
        assert observed == [0, 0]
        assert memory.resident(0) == 10 and memory.resident(1) == 10

    def test_oom_raised_for_lowest_failing_worker(self, runtime):
        """Workers 1 and 3 both exceed the budget; the error and the merged
        state must match a serial execution stopping at worker 1."""
        stats = ExecutionStats(workers=4)
        memory = MemoryBudget(per_worker_tuples=100)

        def task(worker, ledger):
            ledger.stats.charge(worker, 7.0, "join")
            tuples = 200 if worker in (1, 3) else 10
            ledger.memory.allocate(worker, tuples, "join")

        with pytest.raises(OutOfMemoryError) as excinfo:
            runtime.map_workers(range(4), task, stats, memory)
        assert excinfo.value.worker == 1
        # workers 0 and 1 committed (1 partially); 2 and 3 discarded
        assert stats.worker_loads("join") == {0: 7.0, 1: 7.0}
        assert memory.resident(0) == 10
        assert memory.resident(2) == 0 and memory.resident(3) == 0


class TestSerialParallelEquivalence:
    def test_identical_merged_state(self):
        def task(worker, ledger):
            ledger.stats.charge(worker, 2.5 * worker, "a")
            ledger.stats.charge(worker, 1.0, "b")
            ledger.memory.allocate(worker, worker + 1, "a")
            ledger.stats.record_memory(worker, ledger.memory.resident(worker))
            return worker * worker

        results = {}
        for runtime in (SerialRuntime(), ParallelRuntime(max_workers=4)):
            stats = ExecutionStats(workers=8)
            memory = MemoryBudget()
            values = runtime.map_workers(range(8), task, stats, memory)
            results[runtime.name] = (
                values,
                stats.phases(),
                stats.worker_loads(),
                stats.peak_memory,
                [memory.resident(w) for w in range(8)],
            )
        assert results["serial"] == results["parallel"]

    def test_contract_is_abstract(self):
        with pytest.raises(NotImplementedError):
            WorkerRuntime().map_workers(
                range(1), lambda worker, ledger: worker,
                ExecutionStats(), MemoryBudget(),
            )


class TestProcessRuntime:
    """Process-specific behavior beyond the shared map_workers battery.

    The shared battery above already pins that forked execution merges
    ledgers, values, and OOM failures identically to serial — including
    :class:`OutOfMemoryError` crossing a real worker pipe.  These tests
    cover the process-only surface."""

    def test_merged_state_matches_serial(self):
        def task(worker, ledger):
            ledger.stats.charge(worker, 2.5 * worker, "a")
            ledger.stats.charge(worker, 1.0, "b")
            ledger.memory.allocate(worker, worker + 1, "a")
            ledger.stats.record_memory(worker, ledger.memory.resident(worker))
            return worker * worker

        results = {}
        for runtime in (SerialRuntime(), ProcessRuntime(processes=3)):
            stats = ExecutionStats(workers=8)
            memory = MemoryBudget()
            values = runtime.map_workers(range(8), task, stats, memory)
            results[runtime.name] = (
                values,
                stats.phases(),
                stats.worker_loads(),
                stats.peak_memory,
                [memory.resident(w) for w in range(8)],
            )
        assert results["serial"] == results["process"]

    def test_fault_safe_degrades_to_threads(self):
        """Fault sessions hold driver-side mutable state a forked worker
        cannot observe; the scheduler swaps in the thread runtime."""
        runtime = ProcessRuntime(processes=4)
        safe = runtime.fault_safe()
        assert isinstance(safe, ParallelRuntime)
        assert safe.max_workers == 4

    def test_fault_safe_is_identity_elsewhere(self):
        for runtime in (SerialRuntime(), ParallelRuntime(max_workers=2)):
            assert runtime.fault_safe() is runtime

    def test_oom_error_survives_pickling(self):
        import pickle

        error = OutOfMemoryError(3, "join", 150, 100)
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.worker, clone.phase, clone.resident, clone.budget) == (
            3, "join", 150, 100,
        )
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


def _map_local(runtime, payloads, budget):
    """State left by one batched local round (the join, then nothing)."""
    stats = ExecutionStats(workers=len(payloads))
    memory = MemoryBudget(per_worker_tuples=budget)
    runtime.open_session()
    try:
        outcome = runtime.map_local(
            range(len(payloads)),
            partial(_run_local_batch, ops=(LOCAL_JOIN,)),
            dict(enumerate(payloads)),
            stats,
            memory,
        )
    except OutOfMemoryError as error:
        outcome = (error.worker, error.phase, error.resident)
    finally:
        runtime.close_session()
    return _state(outcome, stats, memory, len(payloads))


def _one_worker_at_a_time(payloads, budget):
    """The reference: per-worker closures, the fault-injected rounds' path."""
    stats = ExecutionStats(workers=len(payloads))
    memory = MemoryBudget(per_worker_tuples=budget)

    def task(worker, ledger):
        produced = {}
        _run_local_op(
            LOCAL_JOIN, worker, ledger,
            payloads[worker].__getitem__, produced.__setitem__,
        )
        return produced

    try:
        outcome = SerialRuntime().map_workers(
            range(len(payloads)), task, stats, memory
        )
    except OutOfMemoryError as error:
        outcome = (error.worker, error.phase, error.resident)
    return _state(outcome, stats, memory, len(payloads))


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


def _broken_runner(batch):
    """A runner that breaks its contract: charges, then raises."""
    worker, ledger, _ = batch[0]
    ledger.stats.charge(worker, 7, "broken")
    raise ValueError(f"runner broke on a batch led by worker {worker}")


def _pid_runner(batch):
    import os

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


def test_process_map_local_without_a_session_forks_for_the_call():
    import os

    runtime = resolve_runtime("parallel:2:proc")
    pids = runtime.map_local(
        range(4), _pid_runner, dict.fromkeys(range(4)),
        ExecutionStats(workers=4), MemoryBudget(per_worker_tuples=None),
    )
    assert len(set(pids)) == 2 and os.getpid() not in pids
    assert runtime._session is None


def test_failed_round_leaks_no_shared_memory():
    """Worker 1 fails; worker 2 — the other child's — ships its 16 384-row
    result through shared memory, which must be reclaimed although the
    value is never delivered."""
    import os

    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm to inspect")
    side = 128
    assert side * side >= SHARED_MIN_ROWS
    payloads = [_star(2), _star(10_000), _star(side), _star(2)]
    before = set(os.listdir("/dev/shm"))
    state = _map_local(resolve_runtime("parallel:2:proc"), payloads, 17_000)
    assert state[0] == (1, "sort", 20_000)
    leaked = {
        name for name in set(os.listdir("/dev/shm")) - before
        if name.startswith("psm_")
    }
    assert leaked == set()
