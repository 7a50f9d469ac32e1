"""Tests for the concurrent multi-query serving layer.

The load-bearing properties: per-query isolation (counted metrics
bit-identical to a solo run no matter what else is in flight),
deterministic scheduling under a fixed submission order, memory-governor
admission control that queues instead of OOMing, timeout/cancel eviction
that releases every resident tuple, and plan-cache sharing across
identical concurrent queries.
"""

import os

import pytest

from repro.engine import runtime as runtime_module
from repro.engine.cluster import Cluster
from repro.engine.memory import MemoryBudget
from repro.engine.service import (
    DEMAND_HEADROOM,
    STATUS_CANCELLED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    MemoryGovernor,
    QueryRequest,
    QueryService,
)
from repro.engine.scheduler import PlanExecution
from repro.planner.api import run_query
from repro.planner.optimizer import PlanCache
from repro.query.atoms import Variable
from repro.query.parser import parse_query
from repro.storage.generators import twitter_database
from repro.workloads.registry import PAPER_ORDER, WORKLOADS
from repro.workloads.traffic import percentile, zipf_mix

WORKERS = 8

#: the unit-scale mixed workload the isolation tests serve concurrently
MIX = ("Q1", "Q7", "Q5", "Q6")

#: the mix the benchmark serves (``perf/``'s ``serve_mixed``): every class
#: but Q4, Zipf-popular in the paper's order
SERVED = tuple(name for name in PAPER_ORDER if name != "Q4")
SERVED_TRACE = zipf_mix(SERVED, 20, exponent=1.0, seed=0)
assert set(SERVED_TRACE) == set(SERVED)  # this seed draws every class


@pytest.fixture(scope="module")
def databases():
    """Unit-scale datasets, one per distinct builder (shared read-only)."""
    built = {}
    for name in SERVED:
        workload = WORKLOADS[name]
        if workload.unit_dataset not in built:
            built[workload.unit_dataset] = workload.dataset("unit")
    return built


def _request(name, databases, **overrides):
    workload = WORKLOADS[name]
    defaults = dict(
        query=workload.query,
        database=databases[workload.unit_dataset],
        workers=WORKERS,
        label=name,
    )
    defaults.update(overrides)
    return QueryRequest(**defaults)


def _solo(name, databases):
    workload = WORKLOADS[name]
    return run_query(
        workload.query,
        databases[workload.unit_dataset],
        strategy="auto",
        workers=WORKERS,
    )


def _counted(stats):
    """The counted-metric tuple that must be bit-identical across runs."""
    return (
        stats.result_count,
        stats.tuples_shuffled,
        stats.total_cpu,
        stats.wall_clock,
        tuple(stats.phases()),
        tuple(sorted(stats.peak_memory.items())),
    )


#: the small Twitter graph the containment and end-path tests serve
TRIANGLE = "T(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z), T:Twitter(z,x)."
_TRIANGLE_DB = twitter_database(nodes=200, edges=800)


def _tri(**overrides):
    request = dict(query=TRIANGLE, database=_TRIANGLE_DB, workers=4, label="target")
    request.update(overrides)
    return QueryRequest(**request)


class TestIsolation:
    @staticmethod
    def _assert_served_like_solo(trace, databases):
        service = QueryService(max_inflight=4, plan_cache=PlanCache())
        for name in trace:
            service.submit(_request(name, databases))
        outcomes = service.run_until_complete()
        assert [o.status for o in outcomes] == [STATUS_OK] * len(trace)
        assert service.stats.peak_inflight == 4
        solos = {name: _solo(name, databases) for name in set(trace)}
        for outcome in outcomes:
            solo = solos[outcome.label]
            assert sorted(outcome.rows) == sorted(solo.rows)
            assert _counted(outcome.stats) == _counted(solo.stats)

    def test_concurrent_queries_match_solo_runs(self, databases):
        self._assert_served_like_solo(MIX, databases)
        self._assert_served_like_solo(SERVED_TRACE, databases)

    def test_interleaving_deterministic(self, databases):
        def serve():
            service = QueryService(max_inflight=3, plan_cache=PlanCache())
            for name in MIX:
                service.submit(_request(name, databases))
            return service.run_until_complete()

        first, second = serve(), serve()
        assert [o.admitted_tick for o in first] == [o.admitted_tick for o in second]
        assert [o.finished_tick for o in first] == [o.finished_tick for o in second]
        for a, b in zip(first, second):
            assert _counted(a.stats) == _counted(b.stats)

    def test_solo_service_run_matches_run_query(self, databases):
        service = QueryService(max_inflight=1, plan_cache=PlanCache())
        service.submit(_request("Q1", databases))
        (outcome,) = service.run_until_complete()
        solo = _solo("Q1", databases)
        assert sorted(outcome.rows) == sorted(solo.rows)
        assert _counted(outcome.stats) == _counted(solo.stats)


class TestGovernor:
    def test_unit_reserve_release(self):
        governor = MemoryGovernor(total=100)
        assert governor.try_reserve(1, 60)
        assert not governor.try_reserve(2, 60)
        assert governor.try_reserve(2, 40)
        assert governor.granted == 100
        governor.release(1)
        assert governor.granted == 40
        assert governor.peak_granted == 100
        assert not governor.admissible(101)
        assert governor.admissible(100)

    def test_explicit_overdemand_rejected_at_submit(self, databases):
        service = QueryService(memory_tuples=1_000, plan_cache=PlanCache())
        query_id = service.submit(
            _request("Q1", databases, memory_demand=2_000)
        )
        outcome = service.outcomes[query_id]
        assert outcome.status == STATUS_REJECTED
        assert service.stats.rejected == 1
        assert "exceeds the service budget" in outcome.detail

    def test_admission_blocks_until_grant_frees(self, databases):
        service = QueryService(
            max_inflight=4, memory_tuples=10_000, plan_cache=PlanCache()
        )
        for _ in range(2):
            service.submit(_request("Q1", databases, memory_demand=10_000))
        outcomes = service.run_until_complete()
        assert [o.status for o in outcomes] == [STATUS_OK, STATUS_OK]
        # the whole-budget demands can never overlap
        assert service.stats.peak_inflight == 1
        assert service.governor.peak_granted == 10_000
        assert outcomes[1].admitted_tick > outcomes[0].finished_tick - 1

    def test_underpredicted_grant_escalates_and_completes(self, databases):
        # Q5's HYBRID plan peaks above prediction * headroom, so its first
        # grant trips the private budget; the service must re-queue it
        # with a doubled grant instead of failing it.
        service = QueryService(
            max_inflight=4, memory_tuples=200_000, plan_cache=PlanCache()
        )
        service.submit(_request("Q5", databases))
        (outcome,) = service.run_until_complete()
        assert outcome.status == STATUS_OK
        assert outcome.retries >= 1
        assert service.stats.oom_retries >= 1
        solo = _solo("Q5", databases)
        assert _counted(outcome.stats) == _counted(solo.stats)

    def test_explicit_demand_is_a_hard_cap(self, databases):
        # an explicitly declared demand is honoured: no escalation, the
        # query fails with an OOM outcome when it exceeds its own cap
        service = QueryService(
            max_inflight=2, memory_tuples=50_000, plan_cache=PlanCache()
        )
        service.submit(_request("Q1", databases, memory_demand=10))
        (outcome,) = service.run_until_complete()
        assert outcome.status == STATUS_FAILED
        assert outcome.retries == 0
        assert "out of memory" in outcome.detail
        assert service.governor.granted == 0


class TestEviction:
    def test_timeout_rolls_back_and_releases_residency(self, databases):
        service = QueryService(max_inflight=2, plan_cache=PlanCache())
        service.submit(_request("Q1", databases, timeout_seconds=0.0))
        (outcome,) = service.run_until_complete()
        assert outcome.status == STATUS_TIMEOUT
        assert "rolled back" in outcome.detail
        assert service.stats.rounds_rolled_back >= 1
        assert outcome.rounds_completed == 0
        # eviction released every resident tuple of the private budget
        assert all(
            outcome.memory.resident(worker) == 0 for worker in range(WORKERS)
        )
        assert service.governor.granted == 0

    def test_logical_deadline_evicts_without_running(self, databases):
        service = QueryService(max_inflight=2, plan_cache=PlanCache())
        service.submit(_request("Q1", databases, deadline_ticks=0))
        (outcome,) = service.run_until_complete()
        assert outcome.status == STATUS_TIMEOUT
        assert outcome.rounds_completed == 0
        assert service.stats.rounds_executed == 0

    def test_deadline_does_not_starve_others(self, databases):
        service = QueryService(max_inflight=4, plan_cache=PlanCache())
        service.submit(_request("Q1", databases, deadline_ticks=1))
        service.submit(_request("Q7", databases))
        outcomes = service.run_until_complete()
        assert outcomes[0].status == STATUS_TIMEOUT
        assert outcomes[1].status == STATUS_OK
        solo = _solo("Q7", databases)
        assert _counted(outcomes[1].stats) == _counted(solo.stats)

    def test_cancel_queued_and_inflight(self, databases):
        service = QueryService(max_inflight=1, plan_cache=PlanCache())
        running = service.submit(_request("Q1", databases))
        queued = service.submit(_request("Q7", databases))
        service.open()
        try:
            service.step()  # admits + runs one round of the first query
            assert service.cancel(queued)  # still waiting for admission
            assert service.cancel(running)  # evicted at its next turn
            assert not service.cancel(999)
            while service.step():
                pass
        finally:
            service.close()
        assert service.outcomes[queued].status == STATUS_CANCELLED
        assert service.outcomes[running].status == STATUS_CANCELLED
        assert service.outcomes[running].rounds_completed >= 1
        assert all(
            service.outcomes[running].memory.resident(worker) == 0
            for worker in range(WORKERS)
        )
        assert service.stats.cancelled == 2
        assert not service.cancel(running)  # already finished


class TestContainment:
    """A failed query never stops the drain (chaos: one tenant in three)."""

    def _serve_three(self, middle_overrides):
        database = _TRIANGLE_DB
        query = parse_query(TRIANGLE)
        common = dict(
            query=query, database=database, workers=4, memory_demand=20_000
        )
        service = QueryService(
            max_inflight=3, memory_tuples=100_000, plan_cache=PlanCache()
        )
        service.submit(QueryRequest(strategy="RS_HJ", label="first", **common))
        service.submit(
            QueryRequest(label="chaos", **{**common, **middle_overrides})
        )
        service.submit(QueryRequest(strategy="HC_TJ", label="last", **common))
        outcomes = service.run_until_complete()
        assert [o.status for o in outcomes] == [
            STATUS_OK, STATUS_FAILED, STATUS_OK
        ]
        assert service.governor.granted == 0
        assert service.inflight == 0 and service.queued == 0
        assert service.stats.failed == 1 and service.stats.completed == 2
        for outcome, strategy in ((outcomes[0], "RS_HJ"), (outcomes[2], "HC_TJ")):
            solo = run_query(query, database, strategy=strategy, workers=4)
            assert sorted(outcome.rows) == sorted(solo.rows)
            assert _counted(outcome.stats) == _counted(solo.stats)
        return outcomes[1]

    def test_bad_variable_order_fails_at_planning(self):
        x, y = Variable("x"), Variable("y")  # misses z
        failed = self._serve_three(
            dict(strategy="HC_TJ", variable_order=(x, y))
        )
        assert "planning failed" in failed.detail
        assert "variable order" in failed.detail

    @pytest.mark.parametrize("method", ["step", "finalize"])
    def test_exception_in_flight_is_that_querys_failure(
        self, method, monkeypatch, caplog
    ):
        real = getattr(PlanExecution, method)

        def chaotic(execution):
            if execution.plan.strategy == "BR_HJ" and (
                method == "finalize" or execution.rounds_done == 1
            ):
                raise RuntimeError("tenant blew up")
            return real(execution)

        monkeypatch.setattr(PlanExecution, method, chaotic)
        failed = self._serve_three(dict(strategy="BR_HJ"))
        assert failed.detail == "RuntimeError: tenant blew up"
        assert failed.stats.failed and failed.stats.failure_kind == "error"
        assert all(failed.memory.resident(worker) == 0 for worker in range(4))
        assert "tenant blew up" in caplog.text  # the traceback is logged

    def test_exception_at_start_is_that_querys_failure(self, monkeypatch, caplog):
        real = Cluster.load

        def chaotic(cluster, database):
            if cluster.workers == 3:  # only the chaos tenant's cluster
                raise RuntimeError("no cluster today")
            return real(cluster, database)

        monkeypatch.setattr(Cluster, "load", chaotic)
        failed = self._serve_three(dict(strategy="BR_HJ", workers=3))
        assert failed.detail == "RuntimeError: no cluster today"
        assert failed.admitted_tick == -1 and failed.stats is None
        assert "no cluster today" in caplog.text

    def test_round_failing_mid_exchange_leaves_no_stale_reply(self, monkeypatch):
        """The driver fails between shipping child 1's batch and child 2's:
        child 1's reply must not be read by the next query's Round."""
        real, driver, calls = runtime_module._encode_value, os.getpid(), []

        def fails_for_child_2(value):
            # three executors, four workers: child 1 ships workers 0 and 3
            # first, child 2 worker 1, and the driver keeps worker 2
            if os.getpid() == driver:
                calls.append(None)
                if len(calls) == 3:
                    raise RuntimeError("cannot encode")
            return real(value)

        monkeypatch.setattr(runtime_module, "_encode_value", fails_for_child_2)
        two_way = "P(x,y) :- R:Twitter(x,y), S:Twitter(y,x)."
        service = QueryService(
            runtime="parallel:3:proc", max_inflight=1, plan_cache=PlanCache()
        )
        for query in (TRIANGLE, two_way):
            service.submit(_tri(query=query, strategy="RS_HJ"))
        failed, served = service.run_until_complete()
        assert (failed.status, failed.detail) == (
            STATUS_FAILED, "RuntimeError: cannot encode"
        )
        solo = run_query(two_way, _TRIANGLE_DB, strategy="RS_HJ", workers=4)
        assert served.status == STATUS_OK
        assert len(served.rows) == len(solo.rows) == 118
        assert sorted(served.rows) == sorted(solo.rows)
        assert _counted(served.stats) == _counted(solo.stats)


def _drain(service, between=None):
    """Tick the service dry; call ``between()`` after the first tick."""
    service.open()
    try:
        service.step()
        if between is not None:
            between()
        while service.step():
            pass
    finally:
        service.close()


def _one(service=None, **request):
    """An end path: one triangle request drained on a fresh service."""

    def path(databases, monkeypatch):
        served = QueryService(plan_cache=PlanCache(), **(service or {}))
        target = served.submit(_tri(**request))
        served.run_until_complete()
        return served, target

    return path


def _rejected_at_admission(databases, monkeypatch):
    # a zero budget leaves an explicit strategy (no predicted peak) the
    # equal share of 1 tuple, which can never fit; the target waits one
    # tick behind a zero-demand query that times out at its first turn
    service = QueryService(max_inflight=1, memory_tuples=0, plan_cache=PlanCache())
    service.submit(_tri(strategy="RS_HJ", memory_demand=0, deadline_ticks=0))
    target = service.submit(_tri(strategy="RS_HJ"))
    service.run_until_complete()
    return service, target


def _cancelled_queued(databases, monkeypatch):
    # the target is planned (a plan-cache hit) but blocked on the grant
    # the first query holds when it is cancelled
    service = QueryService(max_inflight=2, memory_tuples=100_000, plan_cache=PlanCache())
    service.submit(_tri(memory_demand=100_000))
    target = service.submit(_tri())
    _drain(service, lambda: service.cancel(target))
    return service, target


def _cancelled_inflight(databases, monkeypatch):
    service = QueryService(max_inflight=1, plan_cache=PlanCache())
    target = service.submit(_tri(strategy="RS_HJ"))
    _drain(service, lambda: service.cancel(target))
    return service, target


def _start_failed(databases, monkeypatch):
    def refuse(cluster, database):
        raise RuntimeError("no cluster today")

    monkeypatch.setattr(Cluster, "load", refuse)
    serve = _one(dict(memory_tuples=100_000), strategy="RS_HJ", memory_demand=20_000)
    return serve(databases, monkeypatch)


def _escalated_then_ok(databases, monkeypatch):
    service = QueryService(max_inflight=4, memory_tuples=200_000, plan_cache=PlanCache())
    target = service.submit(_request("Q5", databases, label="target"))
    service.run_until_complete()
    return service, target


#: (path, status, counter, label, submitted/admitted/finished ticks,
#: retries, rounds_completed, cache_hit, admitted at all)
EVERY_END = [
    pytest.param(
        _one(dict(memory_tuples=1_000), memory_demand=2_000),
        STATUS_REJECTED, "rejected", "target", (0, -1, 0), 0, 0, False, False,
        id="rejected_at_submit",
    ),
    pytest.param(
        _rejected_at_admission,
        STATUS_REJECTED, "rejected", "target", (0, -1, 1), 0, 0, False, False,
        id="rejected_at_admission",
    ),
    pytest.param(
        _cancelled_queued,
        STATUS_CANCELLED, "cancelled", "target", (0, -1, 1), 0, 0, True, False,
        id="cancelled_queued",
    ),
    pytest.param(
        _cancelled_inflight,
        STATUS_CANCELLED, "cancelled", "target", (0, 0, 2), 0, 1, False, True,
        id="cancelled_inflight",
    ),
    pytest.param(
        _one(query="not datalog", label=""),
        STATUS_FAILED, "failed", "query", (0, -1, 0), 0, 0, False, False,
        id="planning_failed",
    ),
    pytest.param(
        _start_failed,
        STATUS_FAILED, "failed", "target", (0, -1, 0), 0, 0, False, False,
        id="start_failed",
    ),
    pytest.param(
        _one(strategy="RS_HJ", deadline_ticks=0),
        STATUS_TIMEOUT, "timeouts", "target", (0, 0, 1), 0, 0, False, True,
        id="logical_deadline",
    ),
    pytest.param(
        _one(strategy="RS_HJ", timeout_seconds=0.0),
        STATUS_TIMEOUT, "timeouts", "target", (0, 0, 1), 0, 0, False, True,
        id="wall_clock_timeout",
    ),
    pytest.param(
        _one(dict(memory_tuples=100_000), strategy="RS_HJ", memory_demand=10),
        STATUS_FAILED, "failed", "target", (0, 0, 1), 0, 0, False, True,
        id="declared_oom",
    ),
    pytest.param(
        _escalated_then_ok,
        STATUS_OK, "completed", "target", (0, 2, 6), 1, 4, False, True,
        id="escalated_then_ok",
    ),
    pytest.param(
        _one(strategy="RS_HJ", label=""),
        STATUS_OK, "completed", "T", (0, 0, 3), 0, 3, False, True,
        id="ok",
    ),
]


class TestEveryEnd:
    """Every way a query ends: one record, one end, nothing left held."""

    @pytest.mark.parametrize(
        "path, status, counter, label, ticks, retries, rounds, cache_hit, admitted",
        EVERY_END,
    )
    def test_end(
        self, path, status, counter, label, ticks, retries, rounds, cache_hit,
        admitted, databases, monkeypatch,
    ):
        service, target = path(databases, monkeypatch)
        outcome = service.outcomes[target]
        assert outcome.status == status
        assert getattr(service.stats, counter) == sum(
            o.status == status for o in service.outcomes.values()
        ) >= 1
        assert len(service.outcomes) == service.stats.submitted
        assert outcome.label == label
        assert (
            outcome.submitted_tick, outcome.admitted_tick, outcome.finished_tick
        ) == ticks
        assert outcome.retries == retries
        assert outcome.rounds_completed == rounds
        assert outcome.cache_hit == cache_hit
        assert service.governor.granted == 0
        assert service.inflight == service.queued == 0
        assert (outcome.memory is not None) == admitted
        if admitted:
            workers = outcome.stats.workers
            assert all(outcome.memory.resident(w) == 0 for w in range(workers))
            assert outcome.wall_seconds > 0
        else:
            assert outcome.stats is None and outcome.wall_seconds == 0.0


class TestPlanCache:
    def test_identical_queries_hit_shared_cache(self, databases):
        service = QueryService(max_inflight=4, plan_cache=PlanCache())
        for _ in range(3):
            service.submit(_request("Q1", databases))
        outcomes = service.run_until_complete()
        assert [o.status for o in outcomes] == [STATUS_OK] * 3
        assert [o.cache_hit for o in outcomes] == [False, True, True]
        assert service.stats.cache_hits == 2
        assert service.stats.cache_misses == 1
        # cached plans produce the same rows and counted metrics
        assert sorted(outcomes[0].rows) == sorted(outcomes[2].rows)
        assert _counted(outcomes[0].stats) == _counted(outcomes[2].stats)

    def test_explicit_strategy_bypasses_cache(self, databases):
        service = QueryService(max_inflight=2, plan_cache=PlanCache())
        service.submit(_request("Q1", databases, strategy="HC_TJ"))
        (outcome,) = service.run_until_complete()
        assert outcome.status == STATUS_OK
        assert outcome.strategy == "HC_TJ"
        assert service.stats.cache_hits == service.stats.cache_misses == 0


class TestTraffic:
    def test_zipf_mix_reproducible_and_skewed(self):
        names = ("Q1", "Q2", "Q3", "Q4")
        trace = zipf_mix(names, 400, exponent=1.0, seed=7)
        assert trace == zipf_mix(names, 400, exponent=1.0, seed=7)
        assert trace != zipf_mix(names, 400, exponent=1.0, seed=8)
        counts = {name: trace.count(name) for name in names}
        assert counts["Q1"] > counts["Q4"]

    def test_zipf_zero_exponent_is_roughly_uniform(self):
        trace = zipf_mix(("A", "B"), 1000, exponent=0.0, seed=1)
        assert 400 < trace.count("A") < 600

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.0) == 100
        assert percentile([], 0.5) == 0.0
        # the ceil(f*n)-th smallest: halves round up, float noise does not
        assert percentile([1, 2, 3, 4, 5], 0.5) == 3
        assert percentile(values, 0.07) == 7


class TestServiceShape:
    def test_requires_positive_inflight(self):
        with pytest.raises(ValueError):
            QueryService(max_inflight=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("workers", 0),
            ("workers", -4),
            ("memory_demand", -5_000),
            ("deadline_ticks", -1),
            ("timeout_seconds", -0.5),
        ],
    )
    def test_rejects_out_of_range_request_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            _tri(**{field: value})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MemoryBudget(per_worker_tuples=-1),
            lambda: MemoryGovernor(total=-1),
            lambda: QueryService(memory_tuples=-1),
            lambda: zipf_mix(("Q1", "Q2"), -3),
        ],
        ids=["budget", "governor", "service", "zipf"],
    )
    def test_rejects_negative_budgets_and_counts(self, build):
        with pytest.raises(ValueError):
            build()

    def test_unparseable_query_fails_cleanly(self, databases):
        workload = WORKLOADS["Q1"]
        service = QueryService(plan_cache=PlanCache())
        query_id = service.submit(
            QueryRequest(
                query="this is not datalog",
                database=databases[workload.unit_dataset],
                workers=WORKERS,
            )
        )
        outcomes = service.run_until_complete()
        assert service.outcomes[query_id].status == STATUS_FAILED
        assert "planning failed" in service.outcomes[query_id].detail
        assert len(outcomes) == 1

    def test_outcome_counts_cover_every_status(self, databases):
        service = QueryService(
            max_inflight=2, memory_tuples=100_000, plan_cache=PlanCache()
        )
        service.submit(_request("Q1", databases))
        service.submit(_request("Q7", databases, deadline_ticks=0))
        service.submit(_request("Q6", databases, memory_demand=200_000))
        service.submit(_request("Q1", databases, memory_demand=10))  # OOM
        service.submit(_request("Q1", databases, query="not datalog"))
        cancelled = service.submit(_request("Q5", databases))
        service.cancel(cancelled)
        outcomes = service.run_until_complete()
        counts = service.stats.outcome_counts()
        assert counts[STATUS_OK] == 1
        assert counts[STATUS_FAILED] == 2
        assert counts[STATUS_TIMEOUT] == 1
        assert counts[STATUS_REJECTED] == 1
        assert counts[STATUS_CANCELLED] == 1
        assert sum(counts.values()) == service.stats.submitted == 6
        # every outcome is counted once, under its own status
        by_status = dict.fromkeys(counts, 0)
        for outcome in outcomes:
            by_status[outcome.status] += 1
        assert by_status == counts

    def test_headroom_constant_sane(self):
        assert DEMAND_HEADROOM >= 1.0


class TestCheckpoints:
    def test_no_timeout_never_checkpoints(self, databases, monkeypatch):
        # only a wall-clock timeout can roll a Round back
        def refuse(execution):
            raise AssertionError("checkpointed a query without a timeout")

        monkeypatch.setattr(PlanExecution, "checkpoint", refuse)
        service = QueryService(max_inflight=2, plan_cache=PlanCache())
        service.submit(_request("Q1", databases))
        service.submit(_request("Q7", databases, deadline_ticks=100))
        outcomes = service.run_until_complete()
        assert [o.status for o in outcomes] == [STATUS_OK, STATUS_OK]
