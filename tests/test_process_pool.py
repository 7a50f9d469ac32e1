"""The process runtime's pool: forked once per runtime, reused by every plan.

``parallel:N:proc`` resolves to one shared :class:`ProcessRuntime` per pool
size, whose ``N - 1`` children serve every later Round of every query in the
interpreter, beside the driver, which runs the last batch itself.  These
tests pin what that lifetime has to keep true: the same children answer
like serial, whatever kernel backend each plan runs under and however many
threads share them, and so do faults in the driver's own batch; a child
that died while idle is replaced without failing anyone; nothing — a
process, or a shared-memory segment, which the pool's one transport, its
pipe, never makes — outlives its use; every spelling of a pool size
names the same pool; and each executor runs on its own CPU, the driver's
thread only while it runs its batch, whatever the batch does.
"""

import gc
import os
import signal
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import pytest

import repro
from repro.engine import runtime as runtime_module
from repro.engine.frame import Frame
from repro.engine.memory import MemoryBudget
from repro.engine.runtime import ProcessRuntime, resolve_runtime
from repro.engine.scheduler import PlanExecution
from repro.engine.shm import SHARED_MIN_ROWS
from repro.engine.stats import ExecutionStats
from repro.planner.api import make_cluster, run_query
from repro.planner.physical import lower
from repro.query.catalog import Catalog
from repro.storage.generators import twitter_database
from repro.storage.relation import Database
from repro.workloads import Q1

POOL = "parallel:2:proc"
#: the smallest pool with two children
TWO_CHILDREN = "parallel:3:proc"


@pytest.fixture(scope="module")
def db():
    return twitter_database(nodes=150, edges=600, seed=2)


def _answer(result):
    """Rows in order and every counted metric: equal across runtimes."""
    stats = result.stats
    return (
        result.rows,
        stats.failure,
        stats.shuffles,
        stats.tuples_shuffled,
        stats.total_cpu,
        stats.wall_clock,
        stats.phases(),
        stats.worker_loads(),
        stats.peak_memory,
    )


def _pool_pids(runtime):
    return [child.process.pid for child in runtime._session]


def test_a_spec_resolves_to_one_runtime_per_pool_size():
    assert resolve_runtime(POOL) is resolve_runtime(" Parallel:2:PROC ")
    assert resolve_runtime("parallel:proc") is resolve_runtime("parallel:proc")
    assert resolve_runtime("parallel:3:proc") is not resolve_runtime(POOL)
    own = ProcessRuntime(processes=2)
    assert resolve_runtime(own) is own


def test_twelve_plans_are_served_by_the_same_two_children(db):
    runtime = resolve_runtime(TWO_CHILDREN)
    seen = set()
    for call in range(12):
        strategy = ("RS_HJ", "HC_TJ")[call % 2]
        pooled = run_query(Q1, db, strategy=strategy, workers=4,
                           runtime=TWO_CHILDREN)
        serial = run_query(Q1, db, strategy=strategy, workers=4)
        assert _answer(pooled) == _answer(serial)
        seen.update(_pool_pids(runtime))
    assert len(seen) == 2 and os.getpid() not in seen


def test_the_first_plan_forks_the_pool_before_it_builds_a_frame(db):
    """A pool forked in mid-plan would keep a private copy of the frames
    the driver held at that moment for as long as it lives."""
    runtime = ProcessRuntime(processes=3)
    try:
        execution = PlanExecution(
            lower(Q1, "RS_HJ", Catalog(db)), make_cluster(db, workers=4),
            ExecutionStats(workers=4), runtime,
        )
        assert execution.rounds_done == 0 and len(_pool_pids(runtime)) == 2
    finally:
        runtime.close_session()


@pytest.mark.parametrize("strategy", ["RS_HJ", "HC_TJ"])
def test_a_pool_forked_under_numpy_runs_a_python_plan_on_python_kernels(
    db, strategy
):
    """Values past int64 only fit the python backend: a child still running
    the backend it was forked under would reject them."""
    edges = [(1, 2), (2, 2**63), (2**63, 1), (2, 3)]
    wide = Database()
    for name in "RST":
        wide.add_rows(name, ("a", "b"), edges)
    query = "T(x,y,z) :- R(x,y), S(y,z), T(z,x)."
    runtime = ProcessRuntime(processes=2)
    try:
        run_query(Q1, db, strategy=strategy, workers=4, runtime=runtime,
                  kernels="numpy")
        forked = _pool_pids(runtime)
        pooled = run_query(query, wide, strategy=strategy, workers=4,
                           runtime=runtime, kernels="python")
        assert _pool_pids(runtime) == forked
    finally:
        runtime.close_session()
    serial = run_query(query, wide, strategy=strategy, workers=4,
                       kernels="python")
    assert _answer(pooled) == _answer(serial) and len(pooled.rows) == 3


def test_two_threads_share_the_pool(db):
    """Two callers' Rounds interleave on one pool and neither reads the
    other's replies."""
    strategies = ("RS_HJ", "HC_TJ")
    serial = [
        _answer(run_query(Q1, db, strategy=strategy, workers=4))
        for strategy in strategies
    ]
    answers, errors = [[], []], []
    start = threading.Barrier(2)
    resolve_runtime(POOL).open_session()  # fork before any thread starts

    def serve(slot):
        try:
            start.wait(timeout=30)
            for _ in range(3):
                answers[slot].append(_answer(run_query(
                    Q1, db, strategy=strategies[slot], workers=4, runtime=POOL
                )))
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    threads = [threading.Thread(target=serve, args=(slot,)) for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors
    assert answers == [[serial[0]] * 3, [serial[1]] * 3]


def test_a_child_killed_between_queries_is_replaced(db):
    """Nothing was in flight when the child died: the next query neither
    fails nor differs from serial."""
    runtime = resolve_runtime(POOL)
    run_query(Q1, db, strategy="RS_HJ", workers=4, runtime=POOL)
    victim = runtime._session[0].process
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
    pooled = run_query(Q1, db, strategy="RS_HJ", workers=4, runtime=POOL)
    serial = run_query(Q1, db, strategy="RS_HJ", workers=4)
    assert not pooled.failed
    assert _answer(pooled) == _answer(serial)
    assert victim.pid not in _pool_pids(runtime)


def _collecting_runner(batch, driver):
    if os.getpid() != driver:
        gc.collect()
    return [(os.getpid(), None) for _ in batch]


def test_a_child_that_collects_an_inherited_runtime_spares_its_pool():
    """A dropped runtime still in a reference cycle when another pool
    forks is garbage in that pool's child too: collecting it there must
    not stop the dropped runtime's children through the pipe ends the
    child inherited; collecting it in the driver stops them."""
    gc.disable()
    try:
        dropped = ProcessRuntime(processes=2)
        dropped.open_session()
        spared = dropped._session[0].process
        dropped.cycle = dropped
        del dropped
        runtime = ProcessRuntime(processes=2)
        try:
            runtime.map_local(
                range(2), partial(_collecting_runner, driver=os.getpid()),
                dict.fromkeys(range(2)),
                ExecutionStats(workers=2), MemoryBudget(per_worker_tuples=None),
            )
            spared.join(timeout=1)
            assert spared.is_alive()
        finally:
            runtime.close_session()
    finally:
        gc.enable()
    gc.collect()
    assert not spared.is_alive()


EXITING = """
from repro.engine.runtime import resolve_runtime
from repro.planner.api import run_query
from repro.storage.generators import twitter_database
from repro.workloads import Q1

run_query(Q1, twitter_database(nodes=150, edges=600, seed=2),
          strategy="HC_TJ", workers=4, runtime="parallel:3:proc")
print(*[child.process.pid for child in resolve_runtime("parallel:3:proc")._session])
"""


def _running(pid):
    """Whether ``pid`` is a process that has not exited (zombies have)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_an_interpreter_that_exits_leaves_no_child_running():
    if not os.path.isdir("/proc/self"):
        pytest.skip("no /proc to inspect")
    source = str(Path(repro.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    path = os.pathsep.join([source, inherited] if inherited else [source])
    done = subprocess.run(
        [sys.executable, "-c", EXITING],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 10
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, pids))


def _segments():
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def test_no_shared_memory_segment_outlives_twenty_plans(monkeypatch):
    """Each plan ships a python-backend anchor fragment, a plain row list,
    over the pipe to the same child (the driver keeps the other); no
    segment is ever created."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm to inspect")
    large = []
    encode = runtime_module._encode_payload

    def counting_encode(item):
        if isinstance(item, Frame) and isinstance(item.rows, list):
            large.append(len(item) >= SHARED_MIN_ROWS)
        return encode(item)

    monkeypatch.setattr(runtime_module, "_encode_payload", counting_encode)
    database = twitter_database(nodes=2_000, edges=2 * SHARED_MIN_ROWS + 2)
    query = "Q(x,y) :- R:Twitter(x,y), S:Twitter(y,x)."
    serial = run_query(query, database, strategy="BR_HJ", workers=2,
                       kernels="python")
    before = _segments()
    for _ in range(20):
        pooled = run_query(query, database, strategy="BR_HJ", workers=2,
                           runtime=POOL, kernels="python")
        assert _answer(pooled) == _answer(serial)
    assert sum(large) >= 20
    assert not _segments() - before


def _ships_a_large_row_list(message):
    """Whether a child's reply carries a row list of ``SHARED_MIN_ROWS``
    rows or more."""
    values = [value for _, value, _, _ in message]
    items = [
        item for value in values
        for item in (value.values() if isinstance(value, dict) else [value])
    ]
    return any(
        isinstance(item, Frame) and isinstance(item.rows, list)
        and len(item) >= SHARED_MIN_ROWS
        for item in items
    )


def test_a_child_that_dies_after_encoding_its_reply_leaves_nothing_behind(
    monkeypatch,
):
    """Each child exits just before it sends a python-backend reply of at
    least ``SHARED_MIN_ROWS`` rows, as one the OOM killer takes would: the
    query fails with that child's death, ``/dev/shm`` holds nothing new,
    and the reforked pool answers the next query like serial."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm to inspect")
    driver = os.getpid()
    send = runtime_module._send

    def dying_send(connection, message):
        if os.getpid() != driver and _ships_a_large_row_list(message):
            os._exit(1)
        send(connection, message)

    database = twitter_database(nodes=30_000, edges=34_000, seed=3)
    query = "P(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z)."
    serial = run_query(query, database, strategy="RS_HJ", workers=2,
                       kernels="python")
    runtime = ProcessRuntime(processes=2)
    before = _segments()
    try:
        monkeypatch.setattr(runtime_module, "_send", dying_send)
        runtime.open_session()  # the children run the dying send
        with pytest.raises(RuntimeError, match=r"session child \d+ died"):
            run_query(query, database, strategy="RS_HJ", workers=2,
                      runtime=runtime, kernels="python")
        assert runtime._session is None
        assert not _segments() - before
        monkeypatch.undo()  # the pool the next query reforks sends as usual
        pooled = run_query(query, database, strategy="RS_HJ", workers=2,
                           runtime=runtime, kernels="python")
    finally:
        runtime.close_session()
    assert _answer(pooled) == _answer(serial)
    assert len(serial.rows) > SHARED_MIN_ROWS


def test_an_unsized_spec_shares_the_pool_of_its_size(db, monkeypatch):
    """``parallel:proc`` is sized when it resolves, so on a three-CPU box
    it is ``parallel:3:proc``: one runtime, one set of children."""
    monkeypatch.setattr(runtime_module, "available_cpus", lambda: 3)
    runtime = resolve_runtime("parallel:proc")
    assert runtime is resolve_runtime(TWO_CHILDREN)
    assert runtime.processes == 3
    run_query(Q1, db, strategy="RS_HJ", workers=4, runtime="parallel:proc")
    children = _pool_pids(runtime)
    run_query(Q1, db, strategy="RS_HJ", workers=4, runtime=TWO_CHILDREN)
    assert _pool_pids(resolve_runtime(TWO_CHILDREN)) == children
    assert len(children) == 2


# ----------------------------------------------------------------------
# The driver is an executor: it runs the last batch itself
# ----------------------------------------------------------------------


def _pid_runner(batch):
    return [(os.getpid(), None) for _ in batch]


@pytest.mark.parametrize("strategy", ["HC_TJ", "RS_HJ"])
def test_one_executor_forks_no_child_and_answers_like_serial(db, strategy):
    runtime = resolve_runtime("parallel:1:proc")
    pooled = run_query(Q1, db, strategy=strategy, workers=4, runtime=runtime)
    assert runtime._session == []
    assert _answer(pooled) == _answer(run_query(Q1, db, strategy=strategy,
                                                workers=4))


def test_two_executors_fork_one_child_and_ship_only_the_first_batch(
    db, monkeypatch
):
    """Batches ``[0, 2]`` and ``[1, 3]``: the first crosses the pipe, the
    last stays in the driver and is never encoded."""
    runtime = resolve_runtime(POOL)
    run_query(Q1, db, strategy="RS_HJ", workers=4, runtime=POOL)
    assert len(runtime._session) == 1
    assert runtime._session[0].process.is_alive()
    encoded = []
    encode = runtime_module._encode_payload

    def spying_encode(item):
        encoded.append(item)
        return encode(item)

    monkeypatch.setattr(runtime_module, "_encode_payload", spying_encode)
    payloads = {
        worker: {"in": Frame(("x", "y"), [(worker, 0)])} for worker in range(4)
    }
    runtime.map_local(
        range(4), _pid_runner, payloads, ExecutionStats(workers=4),
        MemoryBudget(per_worker_tuples=None),
    )
    assert [id(item) for item in encoded] == [
        id(payloads[worker]["in"]) for worker in (0, 2)
    ]


TWO_PATH = "P(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z)."


@pytest.mark.parametrize(
    "spec, worker",
    # the driver runs workers [1, 3] of two executors and [2] of three
    [(POOL, 3), (TWO_CHILDREN, 2)],
)
def test_a_crash_in_the_drivers_batch_retries_like_serial(db, spec, worker):
    faults = {"faults": [{"kind": "crash", "round": "step 1", "worker": worker}]}
    answers = [
        run_query(Q1, db, strategy="RS_HJ", workers=4, runtime=runtime,
                  faults=faults, recovery="retry")
        for runtime in ("serial", spec)
    ]
    serial, pooled = answers
    assert serial.stats.retries == 1 and not serial.failed
    assert _answer(pooled) == _answer(serial)
    assert pooled.stats.retries == serial.stats.retries


@pytest.mark.parametrize(
    "spec, query, budget, worker",
    [(POOL, Q1, 1750, 1), (TWO_CHILDREN, TWO_PATH, 1280, 2)],
)
def test_an_oom_in_the_drivers_batch_fails_like_serial(
    db, spec, query, budget, worker
):
    serial, pooled = (
        run_query(query, db, strategy="HC_TJ", workers=4, runtime=runtime,
                  memory_tuples=budget)
        for runtime in ("serial", spec)
    )
    assert serial.stats.failure.startswith(
        f"worker {worker} out of memory in phase 'tributary join'"
    )
    assert _answer(pooled) == _answer(serial)


def _kill_from_the_driver(batch, driver, victim):
    """The driver's batch kills ``victim`` mid-Round; the victim's batch
    waits to be killed; every other batch charges 3 per worker."""
    if os.getpid() == driver:
        os.kill(victim, signal.SIGKILL)
    elif any(worker == 1 for worker, _, _ in batch):
        time.sleep(60)
    for worker, ledger, _ in batch:
        ledger.stats.charge(worker, 3, "alive")
    return [(worker, None) for worker, _, _ in batch]


def test_a_child_killed_while_the_driver_runs_its_batch_fails_its_first_worker(
    db,
):
    """Batches ``[0, 3]``, ``[1]`` and ``[2]``: the driver kills worker 1's
    child while it runs worker 2.  Worker 1 fails, only worker 0 commits —
    not the driver's worker 2, though it finished — and the next query on
    the reforked pool answers like serial."""
    runtime = ProcessRuntime(processes=3)
    runtime.open_session()
    stats = ExecutionStats(workers=4)
    try:
        victim = runtime._session[1].process.pid
        runner = partial(_kill_from_the_driver, driver=os.getpid(), victim=victim)
        with pytest.raises(RuntimeError, match=rf"session child {victim} died"):
            runtime.map_local(
                range(4), runner, dict.fromkeys(range(4)), stats,
                MemoryBudget(per_worker_tuples=None),
            )
        assert stats.worker_loads() == {0: 3}
        assert runtime._session is None
        pooled = run_query(Q1, db, strategy="RS_HJ", workers=4, runtime=runtime)
        assert victim not in _pool_pids(runtime) and len(_pool_pids(runtime)) == 2
    finally:
        runtime.close_session()
    assert _answer(pooled) == _answer(run_query(Q1, db, strategy="RS_HJ",
                                                workers=4))


# ----------------------------------------------------------------------
# Each executor runs on its own CPU
# ----------------------------------------------------------------------

#: the CPUs this interpreter may run on, as a pool forked now reads them
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this OS"
)


def _mask_runner(batch):
    """Each worker's view of the CPUs its executor's thread may run on."""
    return [(sorted(os.sched_getaffinity(0)), None) for _ in batch]


def _thread_mask():
    """The calling thread's mask: what the interpreter started with, unless
    some Round left the thread pinned."""
    return os.sched_getaffinity(0)


def _round(runtime, runner):
    """One ``map_local`` round over workers 0-3, nothing shipped to them."""
    return runtime.map_local(
        range(4), runner, dict.fromkeys(range(4)), ExecutionStats(workers=4),
        MemoryBudget(per_worker_tuples=None),
    )


@needs_affinity
@pytest.mark.parametrize("processes", [2, 3])
def test_each_executor_runs_on_its_own_cpu(db, processes):
    """Executor ``i`` — children first, the driver last — runs on
    ``CPUS[i % len(CPUS)]``: each child for life, the driver while it runs
    its batch, and only then."""
    runtime = ProcessRuntime(processes=processes)
    try:
        run_query(Q1, db, strategy="HC_TJ", workers=4, runtime=runtime)
        children = [child.process.pid for child in runtime._session]
        assert [os.sched_getaffinity(pid) for pid in children] == [
            {CPUS[index % len(CPUS)]} for index in range(processes - 1)
        ]
        masks = _round(runtime, _mask_runner)
    finally:
        runtime.close_session()
    assigned = [CPUS[(worker % processes) % len(CPUS)] for worker in range(4)]
    assert masks == [[cpu] for cpu in assigned]
    assert _thread_mask() == set(CPUS)
    if len(CPUS) > 1:
        used = {CPUS[index % len(CPUS)] for index in range(processes)}
        assert len(used) == min(processes, len(CPUS))


@needs_affinity
def test_a_driver_without_company_stays_unpinned():
    """``parallel:1:proc`` ships nothing, so the driver's thread keeps its
    whole mask while it runs every worker."""
    runtime = ProcessRuntime(processes=1)
    try:
        masks = _round(runtime, _mask_runner)
    finally:
        runtime.close_session()
    assert masks == [sorted(_thread_mask())] * 4


class _Abort(BaseException):
    """Escapes the batch runner's ``except Exception``."""


def _failing_in_the_driver(batch, driver, error):
    if os.getpid() == driver:
        raise error
    return [(None, None) for _ in batch]


@needs_affinity
@pytest.mark.parametrize(
    "error, caught",
    [(ValueError("driver batch"), ValueError), (_Abort(), _Abort)],
    ids=["reported", "escaping"],
)
def test_the_driver_thread_gets_its_mask_back_when_its_batch_raises(
    error, caught
):
    runtime = ProcessRuntime(processes=2)
    try:
        runner = partial(_failing_in_the_driver, driver=os.getpid(), error=error)
        with pytest.raises(caught):
            _round(runtime, runner)
        assert _thread_mask() == set(CPUS)
    finally:
        runtime.close_session()


@needs_affinity
def test_the_driver_thread_gets_its_mask_back_after_a_crash_in_its_batch(db):
    """Worker 3 runs in the driver's batch ``[1, 3]``; the crash fails the
    query, and leaves the thread as it found it."""
    faults = {"faults": [{"kind": "crash", "round": "step 1", "worker": 3}]}
    runtime = ProcessRuntime(processes=2)
    try:
        pooled = run_query(Q1, db, strategy="RS_HJ", workers=4, runtime=runtime,
                           faults=faults, recovery="fail")
    finally:
        runtime.close_session()
    assert pooled.failed and _thread_mask() == set(CPUS)


@needs_affinity
def test_the_driver_thread_gets_its_mask_back_when_a_child_dies_mid_round():
    runtime = ProcessRuntime(processes=3)
    runtime.open_session()
    try:
        victim = runtime._session[1].process.pid
        runner = partial(_kill_from_the_driver, driver=os.getpid(), victim=victim)
        with pytest.raises(RuntimeError, match=rf"session child {victim} died"):
            _round(runtime, runner)
        assert _thread_mask() == set(CPUS)
    finally:
        runtime.close_session()


@needs_affinity
def test_a_driver_cpu_outside_the_threads_mask_is_not_pinned():
    """The caller narrowed its thread to CPUs the driver's CPU is not among:
    the driver runs its batch under the caller's mask, which stays."""
    if len(CPUS) < 2:
        pytest.skip("needs two CPUs")
    runtime = ProcessRuntime(processes=2)  # child on CPUS[0], driver CPUS[1]
    original = _thread_mask()
    try:
        os.sched_setaffinity(0, {CPUS[0]})
        masks = _round(runtime, _mask_runner)
        assert _thread_mask() == {CPUS[0]}
    finally:
        os.sched_setaffinity(0, original)
        runtime.close_session()
    assert masks == [[CPUS[0]]] * 4


@needs_affinity
def test_a_child_killed_between_rounds_returns_to_its_cpu():
    runtime = ProcessRuntime(processes=3)
    runtime.open_session()
    try:
        victim = runtime._session[1]
        victim.process.kill()
        victim.process.join(timeout=10)
        _round(runtime, _pid_runner)
        heir = runtime._session[1]
        assert heir.process.pid != victim.process.pid
        assert heir.cpu == victim.cpu == CPUS[1 % len(CPUS)]
        assert os.sched_getaffinity(heir.process.pid) == {heir.cpu}
    finally:
        runtime.close_session()


def _no_setaffinity(monkeypatch):
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)


def _a_cpu_the_box_lacks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1000},
                        raising=False)


@needs_affinity
@pytest.mark.parametrize(
    "unpinnable", [_no_setaffinity, _a_cpu_the_box_lacks],
    ids=["no-setaffinity", "absent-cpu"],
)
@pytest.mark.parametrize("strategy", ["HC_TJ", "RS_HJ"])
def test_an_unpinnable_pool_runs_unpinned_and_answers_like_serial(
    db, monkeypatch, unpinnable, strategy
):
    serial = run_query(Q1, db, strategy=strategy, workers=4)
    mask_of = os.sched_getaffinity  # the real one, whatever is patched
    unpinnable(monkeypatch)
    runtime = ProcessRuntime(processes=3)
    try:
        pooled = run_query(Q1, db, strategy=strategy, workers=4, runtime=runtime)
        children = [mask_of(pid) for pid in _pool_pids(runtime)]
    finally:
        runtime.close_session()
        monkeypatch.undo()
    assert _answer(pooled) == _answer(serial)
    assert children == [set(CPUS)] * 2 and mask_of(0) == set(CPUS)
