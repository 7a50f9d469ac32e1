"""Per-layer measurement from outside: the traced replay and direct probes.

Nothing here instruments the program.  A traced cell re-enacts what
``run_query`` does by calling the same public functions one by one with a
span around each; a probe calls one layer's public function directly on the
workload's own data.  A layer a workload never enters reports 0 there, which
is the prediction "changing this layer cannot move this workload".
"""

from __future__ import annotations

import pickle
import time
from typing import Callable, Optional

from estimators import lower_quartile
from repro.engine import kernels
from repro.engine.frame import atom_frame
from repro.engine.runtime import resolve_runtime
from repro.engine.scheduler import PlanExecution
from repro.engine.shm import share_rows
from repro.engine.stats import ExecutionStats
from repro.hypercube.config import optimize_config
from repro.hypercube.mapping import HyperCubeMapping
from repro.leapfrog.tributary import TributaryJoin
from repro.planner.api import make_cluster
from repro.planner.optimizer import PlanCache, optimize
from repro.planner.physical import lower
from repro.query.catalog import Catalog
from repro.query.parser import parse_query
from repro.workloads.registry import WORKLOADS
from spans import Recorder
from workloads import KERNELS, Cell, Observation, Workload, observe

#: direct probes are short; each is repeated and reduced like a position
PROBE_REPEATS = 5
#: input cap per relation for the full-join probe (as bench_kernels.py)
WCOJ_CAP = 25_000

ROUND_SPANS = ("scan", "exchange", "local_join", "rs_step")

#: the metrics only a workload that enters the layer reports (``Workload.layers``
#: says which it enters).  Every other metric is owed by every workload.
LAYER_METRICS = {
    "hash": (
        "engine.kernels.shuffle_partition_rows_per_s",
        "engine.kernels.hash_join_rows_out_per_s",
    ),
    "hypercube": (
        "hypercube.optimize_config_s",
        "engine.kernels.hypercube_partition_rows_per_s",
    ),
    "leapfrog": (
        "engine.kernels.sort_projected_rows_per_s",
        "leapfrog.tributary_rows_out_per_s",
        "leapfrog.seeks",
        "leapfrog.seeks_per_s",
    ),
    "proc": (
        "engine.runtime.proc_over_serial",
        "engine.runtime.pickle_bytes_per_row",
        "engine.shm.share_rows_s",
        "engine.shm.load_s",
    ),
    "service": (
        "planner.optimize_cold_s",
        "planner.optimize_cold_max_s",
        "planner.optimize_warm_s",
        "planner.plan_cache_hit_rate",
        "engine.service.ticks",
        "engine.service.rounds_executed",
        "engine.service.peak_inflight",
        "engine.service.oom_retries",
        "engine.service.tick_s.p50",
        "engine.service.tick_s.p90",
        "engine.service.queue_wait_s.p50",
        "engine.service.overhead_ratio",
    ),
}


def never_entered(workload: Workload) -> dict:
    """0 for every metric of a layer the workload declares it never enters.

    That 0 is the prediction "a change to this layer cannot move this
    workload".  A metric of a layer it does enter is never filled in: if its
    probe stops reporting, the run fails on the missing name.
    """
    return {
        name: 0
        for layer, names in LAYER_METRICS.items()
        if layer not in workload.layers
        for name in names
    }


def round_span(label: str) -> str:
    """The span a Round is booked under, from its label."""
    if label == "scan":
        kind = "scan"
    elif label.startswith("step "):
        kind = "rs_step"
    elif label.startswith("local "):
        kind = "local_join"
    else:  # hypercube shuffle, broadcast, stage boundary
        kind = "exchange"
    return f"engine.scheduler.{kind}"


def traced_cell(
    cell: Cell,
    workload: Workload,
    runtime: str,
    recorder: Recorder,
    counts: dict,
    plan_cache: Optional[PlanCache] = None,
) -> Observation:
    """What ``run_query`` does for this cell, one spanned call per layer."""
    data = workload.datasets[cell.dataset]
    query = WORKLOADS[cell.query].query
    with recorder.span("run_query", cell.op_id):
        with recorder.span("engine.cluster.load"):
            cluster = make_cluster(data.database, workers=cell.workers)
        if cell.strategy == "auto":
            with recorder.span("planner.optimize"):
                physical = optimize(
                    query, Catalog(data.database), workers=cell.workers,
                    cache=plan_cache,
                ).physical
        else:
            with recorder.span("planner.lower"):
                physical = lower(query, cell.strategy, Catalog(data.database))
        stats = ExecutionStats(
            query=query.name, strategy=physical.strategy, workers=cluster.workers
        )
        worker_runtime = resolve_runtime(runtime)
        cluster.memory.reset()
        operators: list = []
        with kernels.use_backend(KERNELS):
            with recorder.span("engine.runtime.session_open"):
                execution = PlanExecution(
                    physical, cluster, stats, worker_runtime, trace=operators
                )
            try:
                while not execution.finished:
                    label = physical.rounds[execution.rounds_done].label
                    with recorder.span(round_span(label)):
                        execution.step()
            finally:
                with recorder.span("engine.runtime.session_close"):
                    execution.close()
            with recorder.span("engine.scheduler.finalize"):
                run = execution.finalize()
    counts["tuples_shuffled"] += stats.tuples_shuffled
    counts["rows_out"] += stats.result_count
    counts["counted_wall_units"] += stats.wall_clock
    counts["local_tuples_in"] += sum(
        entry.tuples_in for entry in operators if not entry.op.GLOBAL
    )
    return observe(cell, run.rows, stats, physical.strategy, True, None)


def span_metrics(recorder: Recorder, counts: dict) -> dict:
    """Fold the traced cells' spans and counts into per-layer metrics."""
    seconds = {
        kind: recorder.seconds(f"engine.scheduler.{kind}")
        for kind in ROUND_SPANS + ("finalize",)
    }
    local = seconds["local_join"] + seconds["rs_step"]
    metrics = {
        f"engine.scheduler.{kind}_s": value for kind, value in seconds.items()
    }
    metrics.update({
        "engine.scheduler.driver_other_s": recorder.self_seconds("run_query"),
        "engine.scheduler.tuples_shuffled": counts["tuples_shuffled"],
        "engine.scheduler.rows_out": counts["rows_out"],
        "engine.scheduler.counted_wall_units": counts["counted_wall_units"],
        "engine.scheduler.local_tuples_per_s": (
            counts["local_tuples_in"] / local if local else 0.0
        ),
        "engine.cluster.load_s": recorder.seconds("engine.cluster.load"),
        "planner.lower_s": recorder.seconds("planner.lower"),
        "engine.runtime.session_open_s": recorder.seconds(
            "engine.runtime.session_open"
        ),
    })
    return metrics


def new_counts() -> dict:
    """Zeroed exact counts accumulated next to the spans."""
    return dict.fromkeys(
        ("tuples_shuffled", "rows_out", "counted_wall_units", "local_tuples_in"), 0
    )


def timed(call: Callable[[], object]) -> tuple[float, object]:
    """Lower quartile of the probe's repeats, and its last result."""
    samples = []
    result = None
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        result = call()
        samples.append(time.perf_counter() - started)
    return lower_quartile(samples), result


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def kernel_probes(cell: Cell, workload: Workload) -> dict:
    """Direct kernel calls on the cell's largest scanned frame."""
    data = workload.datasets[cell.dataset]
    database = data.database
    query = WORKLOADS[cell.query].query
    atoms = list(query.atoms)
    metrics: dict = {}
    with kernels.use_backend(KERNELS):
        seconds, frames = timed(lambda: {
            atom.alias: atom_frame(atom, database[atom.relation], database.encode)
            for atom in atoms
        })
        metrics["engine.frame.atom_frame_rows_per_s"] = _rate(
            sum(len(database[atom.relation]) for atom in atoms), seconds
        )
        sizes = {alias: max(1, len(frame)) for alias, frame in frames.items()}
        largest = max(atoms, key=lambda atom: sizes[atom.alias])
        frame = frames[largest.alias]
        # the paper's queries are connected, so some other atom shares a key
        partner = next(
            a for a in atoms
            if a.alias != largest.alias
            and set(a.variables()) & set(frame.variables)
        )
        shared = tuple(
            v for v in partner.variables() if v in set(frame.variables)
        )

        if "hash" in workload.layers:
            key = frame.indices_of(shared)
            seconds, _ = timed(
                lambda: kernels.shuffle_partition(frame.rows, key, cell.workers)
            )
            metrics["engine.kernels.shuffle_partition_rows_per_s"] = _rate(
                len(frame), seconds
            )
            right = frames[partner.alias]
            extra = [
                i for i, v in enumerate(right.variables)
                if v not in set(frame.variables)
            ]
            seconds, joined = timed(lambda: kernels.hash_join_rows(
                frame.rows, right.rows, frame.indices_of(shared),
                right.indices_of(shared), extra,
            ))
            metrics["engine.kernels.hash_join_rows_out_per_s"] = _rate(
                len(joined), seconds
            )

        if "hypercube" in workload.layers:
            seconds, config = timed(
                lambda: optimize_config(query, sizes, cell.workers)
            )
            metrics["hypercube.optimize_config_s"] = seconds
            bound, offsets = HyperCubeMapping(config).frame_routing(
                largest, frame.variables
            )
            seconds, _ = timed(lambda: kernels.hypercube_partition(
                frame.rows, bound, offsets, cell.workers
            ))
            metrics["engine.kernels.hypercube_partition_rows_per_s"] = _rate(
                len(frame), seconds
            )

        if "leapfrog" in workload.layers:
            positions = tuple(range(len(frame.variables)))
            seconds, _ = timed(
                lambda: kernels.sort_projected(frame.rows, positions)
            )
            metrics["engine.kernels.sort_projected_rows_per_s"] = _rate(
                len(frame), seconds
            )
            relations = {}
            for atom in atoms:
                relation = database[atom.relation]
                if len(relation) > WCOJ_CAP:
                    relation = relation.with_rows(relation.rows[:WCOJ_CAP])
                relations[atom.alias] = relation

            def walk():
                join = TributaryJoin(query, relations, encoder=database.encode)
                return join, sum(1 for _ in join.iterate())

            seconds, (join, rows_out) = timed(walk)
            metrics["leapfrog.tributary_rows_out_per_s"] = _rate(rows_out, seconds)
            metrics["leapfrog.seeks"] = join.total_seeks()
            metrics["leapfrog.seeks_per_s"] = _rate(join.total_seeks(), seconds)

        if "proc" in workload.layers:
            metrics["engine.runtime.pickle_bytes_per_row"] = (
                len(pickle.dumps(frame)) / len(frame)
            )
            block = [(i, i * 7 % 1_000_003, i * 13 % 999_983) for i in range(100_000)]
            share, load = [], []
            for _ in range(PROBE_REPEATS):
                started = time.perf_counter()
                handle = share_rows(block)
                parked = time.perf_counter()
                handle.load()  # also unlinks the segment
                load.append(time.perf_counter() - parked)
                share.append(parked - started)
            metrics["engine.shm.share_rows_s"] = lower_quartile(share)
            metrics["engine.shm.load_s"] = lower_quartile(load)
    return metrics


def planner_probes(workload: Workload, cache: PlanCache) -> dict:
    """Parse every distinct query; for a service, also plan it cold and warm.

    ``cache`` is left holding every class's plan.
    """
    cells = {cell.query: cell for cell in workload.cells}
    parse_seconds = 0.0
    for name in cells:
        text = str(WORKLOADS[name].query)
        seconds, _ = timed(lambda: parse_query(text))
        parse_seconds += seconds
    metrics = {"query.parse_s": parse_seconds}
    if "service" not in workload.layers:
        return metrics
    cold, warm = [], 0.0
    for name, cell in cells.items():
        database = workload.datasets[cell.dataset].database
        query = WORKLOADS[name].query
        started = time.perf_counter()
        optimize(query, Catalog(database), workers=cell.workers, cache=cache)
        cold.append(time.perf_counter() - started)
        catalog = Catalog(database)
        seconds, _ = timed(
            lambda: optimize(query, catalog, workers=cell.workers, cache=cache)
        )
        warm += seconds
    metrics["planner.optimize_cold_s"] = sum(cold)
    metrics["planner.optimize_cold_max_s"] = max(cold)
    metrics["planner.optimize_warm_s"] = warm
    return metrics
