"""Fault injection and recovery: determinism, exact recovery, dispositions.

The contract under test (ISSUE 5):

- an *empty* fault plan leaves every execution bit-identical to the golden
  seed-executor captures;
- the same FaultPlan seed produces identical rows and counted metrics under
  every worker runtime and kernel backend;
- a crash recovered with ``retry`` reproduces the exact fault-free result
  rows and fault-free operator charges, with the wasted work visible as the
  ``recovery`` phase and the EXPLAIN ANALYZE conservation invariant
  (operator charges + recovery == total_cpu) holding;
- ``fail`` aborts with a structured report, ``degrade`` re-plans BR -> RS.
"""

import pytest

from repro.engine.faults import (
    FaultPlan,
    FaultSession,
    FaultSpec,
    RecoveryPolicy,
    resolve_faults,
    resolve_policy,
)
from repro.engine.stats import RECOVERY_PHASE
from repro.planner.api import run_query
from repro.planner.explain import explain_analyze
from repro.storage.generators import twitter_database

from tests.test_ir_differential import (
    GOLDEN,
    STRATEGIES,
    WORKERS,
    assert_matches,
    unit_dataset,
)
from repro.engine.cluster import Cluster
from repro.planner.executor import execute
from repro.workloads.registry import get_workload

TRIANGLE = "T(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z), T:Twitter(z,x)."
CRASH_STEP1 = {
    "seed": 7,
    "faults": [{"kind": "crash", "round": "step 1", "worker": 1}],
}


@pytest.fixture(scope="module")
def db():
    return twitter_database(nodes=200, edges=800)


@pytest.fixture(scope="module")
def baseline(db):
    return run_query(TRIANGLE, db, strategy="RS_HJ", workers=4)


def metrics_signature(result):
    """Every counted metric a determinism test should pin."""
    stats = result.stats
    return {
        "rows": sorted(result.rows),
        "result_count": stats.result_count,
        "failed": stats.failed,
        "failure_kind": stats.failure_kind,
        "retries": stats.retries,
        "faults_injected": stats.faults_injected,
        "total_cpu": stats.total_cpu,
        "wall_clock": stats.wall_clock,
        "tuples_shuffled": stats.tuples_shuffled,
        "phases": [
            [phase, stats.phase_cpu(phase), stats.phase_wall(phase)]
            for phase in stats.phases()
        ],
        "shuffles": [
            [r.name, r.tuples_sent, r.producer_skew, r.consumer_skew]
            for r in stats.shuffles
        ],
        "peak_memory": dict(stats.peak_memory),
    }


class TestEmptyPlanIsFaultFree:
    """No FaultPlan (or an empty one) reproduces the golden captures."""

    @pytest.mark.parametrize("case", ["Q1/RS_HJ", "Q1/HC_TJ", "Q2/BR_HJ"])
    def test_empty_plan_matches_golden(self, case):
        name, strategy_name = case.split("/")
        workload = get_workload(name)
        cluster = Cluster(WORKERS)
        cluster.load(unit_dataset(name))
        result = execute(
            workload.query,
            cluster,
            STRATEGIES[strategy_name],
            faults=FaultPlan(),  # empty: normalizes to no fault session
            recovery="retry",
        )
        assert_matches(result, GOLDEN[case])

    def test_resolve_faults_normalizes(self):
        assert resolve_faults(None) is None
        assert resolve_faults(FaultPlan()) is None
        assert resolve_faults({"faults": []}) is None
        plan = resolve_faults({"faults": [{"kind": "oom"}]})
        assert isinstance(plan, FaultPlan)
        assert plan.faults[0].kind == "oom"


class TestDeterminism:
    """Same FaultPlan seed => identical metrics/rows everywhere."""

    PLANS = {
        "seeded-crash": [
            # round 2 has local worker tasks under every strategy
            # ("step 2" for RS, the local join round for BR/HC)
            {"kind": "crash", "round": 2},  # worker drawn from seed
            {"kind": "straggler", "worker": 0, "factor": 2.5},
        ],
        # fires inside a worker task, after the operator charging the phase
        "phase-crash": [{"kind": "crash", "worker": 1, "phase": "step1:join"}],
        "oom": [{"kind": "oom", "round": 2}],
    }
    #: HC plans have no ``step1:join`` phase — not firing is the same everywhere
    NEVER_FIRES = ("phase-crash", "HC_TJ")

    @pytest.mark.parametrize("strategy", ["RS_HJ", "HC_TJ"])
    def test_identical_across_runtimes_and_kernels(self, db, strategy):
        for name, specs in self.PLANS.items():
            signatures = []
            for runtime in ("serial", "parallel:4", "parallel:2:proc"):
                for kernels in ("python", "numpy"):
                    result = run_query(
                        TRIANGLE,
                        db,
                        strategy=strategy,
                        workers=4,
                        runtime=runtime,
                        kernels=kernels,
                        faults={"seed": 11, "faults": specs},
                        recovery="retry",
                    )
                    signatures.append(metrics_signature(result))
            assert all(sig == signatures[0] for sig in signatures[1:]), name
            fired = 0 if (name, strategy) == self.NEVER_FIRES else 1
            assert signatures[0]["faults_injected"] == fired, name
            assert signatures[0]["retries"] == fired, name

    def test_seeded_worker_draw_is_stable(self):
        plan = FaultPlan(faults=(FaultSpec(kind="crash"),), seed=11)
        targets = {
            FaultSession(plan, RecoveryPolicy(), 4).target(0) for _ in range(5)
        }
        assert len(targets) == 1
        assert targets.pop() in range(4)


class TestRetryRecovery:
    """Crash mid-Round under retry recovers the exact fault-free outcome."""

    def test_exact_rows_and_conserved_charges(self, db, baseline):
        recovered = run_query(
            TRIANGLE, db, strategy="RS_HJ", workers=4,
            faults=CRASH_STEP1, recovery="retry",
        )
        assert not recovered.failed
        assert sorted(recovered.rows) == sorted(baseline.rows)
        assert recovered.stats.retries == 1
        assert recovered.stats.faults_injected == 1
        recovery_cpu = recovered.stats.phase_cpu(RECOVERY_PHASE)
        assert recovery_cpu > 0
        # the final attempt reproduces the fault-free charges exactly:
        # total = fault-free total + the wasted work charged to recovery
        assert recovered.stats.total_cpu - recovery_cpu == pytest.approx(
            baseline.stats.total_cpu
        )
        assert recovered.stats.tuples_shuffled == baseline.stats.tuples_shuffled
        assert RECOVERY_PHASE in recovered.stats.phases()

    def test_explain_analyze_conservation_with_recovery(self, db):
        analyzed = explain_analyze(
            TRIANGLE, db, strategy="RS_HJ", workers=4,
            faults=CRASH_STEP1, recovery="retry",
        )
        assert not analyzed.result.failed
        assert analyzed.recovery_cpu > 0
        assert sum(analyzed.operator_charges()) + analyzed.recovery_cpu == (
            pytest.approx(analyzed.stats.total_cpu)
        )
        rendered = analyzed.render()
        assert "recovery: cpu=" in rendered
        assert "retries=1" in rendered

    @pytest.mark.parametrize(
        "fault",
        [
            {"kind": "oom", "round": "step 2", "worker": 2},
            {
                "kind": "partition_loss",
                "round": "step 1",
                "exchange": "RS S",
            },
            {
                "kind": "crash",
                "round": "step 1",
                "worker": 0,
                "phase": "step1:join",
            },
        ],
        ids=["injected-oom", "partition-loss", "phase-crash"],
    )
    def test_every_fault_kind_recovers(self, db, baseline, fault):
        result = run_query(
            TRIANGLE, db, strategy="RS_HJ", workers=4,
            faults={"seed": 3, "faults": [fault]}, recovery="retry",
        )
        assert not result.failed
        assert sorted(result.rows) == sorted(baseline.rows)
        assert result.stats.retries == 1
        assert result.stats.phase_cpu(RECOVERY_PHASE) >= 0

    def test_bounded_retries_exhaust_to_abort(self, db):
        persistent = {
            "seed": 1,
            "faults": [
                {
                    "kind": "crash",
                    "round": "step 1",
                    "worker": 1,
                    "attempts": [0, 1, 2, 3],
                }
            ],
        }
        result = run_query(
            TRIANGLE, db, strategy="RS_HJ", workers=4,
            faults=persistent, recovery="retry:2",
        )
        assert result.failed
        assert result.stats.failure_kind == "fault"
        assert result.stats.retries == 2
        assert result.stats.faults_injected == 3
        report = result.failure_report
        assert report is not None
        assert report.attempts_used == 3
        assert report.disposition == "aborted"
        assert report.lineage  # the Round's surviving inputs are named

    def test_backoff_is_charged_to_recovery(self, db):
        plain = run_query(
            TRIANGLE, db, strategy="RS_HJ", workers=4,
            faults=CRASH_STEP1, recovery=RecoveryPolicy(mode="retry"),
        )
        backoff = run_query(
            TRIANGLE, db, strategy="RS_HJ", workers=4,
            faults=CRASH_STEP1,
            recovery=RecoveryPolicy(mode="retry", backoff_units=500.0),
        )
        delta = backoff.stats.phase_cpu(RECOVERY_PHASE) - plain.stats.phase_cpu(
            RECOVERY_PHASE
        )
        assert delta == pytest.approx(500.0)


def _crash_in(index, round_):
    """A crash that fires in Round ``index``: at its worker-task boundary,
    or — in a Round that only runs driver operators — after the first
    phase one charges.  ``None`` for a Round that charges nothing (the
    scan), where no fault can strike."""
    if round_.local_ops():
        return {"kind": "crash", "round": index, "worker": 1}
    phases = [phase for op in round_.ops for phase in op.phases]
    if not phases:
        return None
    return {"kind": "crash", "round": index, "worker": 1, "phase": phases[0]}


class TestCrashInEveryRound:
    """Every Round of a fault session runs in the one retry loop: a crash
    in any of them is rolled back and re-run to the fault-free result."""

    @pytest.mark.parametrize("case", ["Q1/RS_HJ", "Q1/HC_TJ", "Q8/HYBRID"])
    def test_each_round_retries_to_the_fault_free_run(self, case):
        name, strategy = case.split("/")
        workload = get_workload(name)
        database = unit_dataset(name)
        clean = run_query(
            workload.query, database, strategy=strategy, workers=WORKERS
        )
        fired = 0
        for index, round_ in enumerate(clean.physical.rounds):
            spec = _crash_in(index, round_)
            result = run_query(
                workload.query, database, strategy=strategy, workers=WORKERS,
                faults=None if spec is None else {"faults": [spec]},
                recovery="retry",
            )
            assert result.rows == clean.rows, index
            assert result.stats.retries == (spec is not None), index
            assert (
                result.stats.total_cpu - result.stats.recovery_cpu
                == clean.stats.total_cpu
            ), index
            fired += result.stats.retries
        assert fired == len(clean.physical.rounds) - 1  # all but the scan


class TestStraggler:
    """Stragglers inflate charges without changing rows or shuffles."""

    def test_straggler_inflates_cpu_only(self, db, baseline):
        result = run_query(
            TRIANGLE, db, strategy="RS_HJ", workers=4,
            faults={"faults": [
                {"kind": "straggler", "worker": 0, "factor": 3.0}
            ]},
        )
        assert not result.failed
        assert sorted(result.rows) == sorted(baseline.rows)
        assert result.stats.total_cpu > baseline.stats.total_cpu
        assert result.stats.tuples_shuffled == baseline.stats.tuples_shuffled
        assert result.stats.retries == 0
        # only local phases inflate; worker 0's join loads triple
        base_loads = baseline.stats.worker_loads("step1:join")
        slow_loads = result.stats.worker_loads("step1:join")
        assert slow_loads[0] == pytest.approx(3.0 * base_loads[0])
        assert slow_loads[1] == pytest.approx(base_loads[1])


class TestDispositions:
    """The fail and degrade recovery policies."""

    def test_fail_policy_aborts_with_report(self, db):
        result = run_query(
            TRIANGLE, db, strategy="RS_HJ", workers=4,
            faults=CRASH_STEP1, recovery="fail",
        )
        assert result.failed
        assert result.stats.failure_kind == "fault"
        report = result.failure_report
        assert report.kind == "crash"
        assert report.worker == 1
        assert report.round_label == "step 1"
        assert report.policy == "fail"
        assert report.to_dict()["disposition"] == "aborted"
        assert "injected crash" in report.describe()

    def test_degrade_falls_back_broadcast_to_regular(self, db, baseline):
        faults = {
            "faults": [
                {
                    "kind": "crash",
                    "round": "broadcast",
                    "worker": 2,
                    "phase": "broadcast",
                    "attempts": [0, 1, 2],
                }
            ]
        }
        result = run_query(
            TRIANGLE, db, strategy="BR_HJ", workers=4,
            faults=faults, recovery="degrade",
        )
        assert not result.failed
        assert result.stats.strategy == "RS_HJ"
        assert result.physical.strategy == "RS_HJ"
        assert sorted(result.rows) == sorted(baseline.rows)
        report = result.failure_report
        assert report.disposition == "degraded"
        assert report.fallback == "RS_HJ"
        # the aborted broadcast attempt's work is carried as recovery CPU
        assert result.stats.phase_cpu(RECOVERY_PHASE) > 0

    def test_degrade_without_fallback_aborts(self, db):
        result = run_query(
            TRIANGLE, db, strategy="HC_TJ", workers=4,
            faults={"faults": [{"kind": "crash", "worker": 0,
                                "round": "local tributary join"}]},
            recovery="degrade",
        )
        assert result.failed
        assert result.failure_report.disposition == "aborted"


class TestDslValidation:
    """FaultPlan / RecoveryPolicy parsing and validation."""

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            '{"seed": 5, "faults": ['
            '{"kind": "crash", "round": 1, "worker": 2, "attempts": [0, 1]}]}'
        )
        plan = FaultPlan.load(str(path))
        assert plan.seed == 5
        assert plan.faults[0].attempts == (0, 1)
        assert plan.faults[0].matches_round(1, "anything")
        assert not plan.faults[0].matches_round(0, "anything")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="meteor")
        with pytest.raises(ValueError):
            FaultSpec(kind="straggler", factor=1.0)
        with pytest.raises(ValueError):
            FaultSpec(kind="partition_loss")

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"kind": "crash", "round": 2, "worker": True}, "worker"),
            ({"kind": "crash", "worker": "1"}, "worker"),
            ({"kind": "crash", "worker": -1}, "worker"),
            ({"kind": "crash", "round": -1}, "round"),
            ({"kind": "crash", "attempts": [-1]}, "attempts"),
            ({"kind": "oom", "factor": 5.0}, "factor"),
            ({"kind": "oom", "phase": "nope"}, "phase"),
            ({"kind": "crash", "exchange": "S"}, "exchange"),
            ({"kind": "partition_loss", "exchange": "S", "worker": 0}, "worker"),
            ({"kind": "straggler", "factor": 2.0, "attempts": [0, 1]}, "attempts"),
        ],
    )
    def test_dataclass_and_json_reject_alike(self, fields, name):
        with pytest.raises(ValueError, match=f"field '{name}'"):
            FaultSpec(**fields)
        with pytest.raises(ValueError, match=rf"faults\[0\]: field '{name}'"):
            FaultPlan.from_dict({"faults": [fields]})

    def test_worker_out_of_range_is_rejected_at_session(self, db):
        plan = {"faults": [{"kind": "crash", "round": 2, "worker": 4}]}
        with pytest.raises(ValueError, match="field 'worker' is 4"):
            FaultSession(FaultPlan.from_dict(plan), RecoveryPolicy(), 4)
        with pytest.raises(ValueError, match="field 'worker' is 4"):
            run_query(TRIANGLE, db, strategy="RS_HJ", workers=4, faults=plan)

    def test_policy_parsing(self):
        assert resolve_policy(None).mode == "retry"
        assert resolve_policy("retry:5").max_retries == 5
        assert resolve_policy("degrade").mode == "degrade"
        with pytest.raises(ValueError):
            resolve_policy("panic")
        with pytest.raises(ValueError):
            resolve_policy("retry:lots")
        with pytest.raises(ValueError):
            RecoveryPolicy(mode="retry", max_retries=-1)


class TestFaultSweep:
    """The experiments harness emits recovery-overhead rows."""

    def test_sweep_rows(self, db):
        from repro.experiments import fault_sweep, format_fault_sweep

        rows = fault_sweep(
            TRIANGLE,
            db,
            {
                "crash": {"seed": 1, "faults": [
                    {"kind": "crash", "round": "step 1"}
                ]},
                "abort": {"seed": 1, "faults": [
                    {"kind": "crash", "round": "step 1",
                     "attempts": [0, 1, 2]}
                ]},
            },
            strategy="RS_HJ",
            workers=4,
            recovery="retry:1",
        )
        assert [row["scenario"] for row in rows] == [
            "baseline", "crash", "abort",
        ]
        assert rows[0]["cpu_overhead"] == 1.0
        assert rows[1]["rows_match"] and not rows[1]["failed"]
        assert rows[1]["cpu_overhead"] > 1.0
        assert rows[2]["failed"] and rows[2]["disposition"] == "aborted"
        table = format_fault_sweep(rows, "sweep")
        assert "baseline" in table and "ABORT" in table
