"""The measuring process: one workload in one fresh interpreter.

Started by ``run.py`` with ``PYTHONHASHSEED=0`` and ``src/`` on the path.
Prints ``READY {...}`` the moment set-up has produced its first answers (the
parent stops the set-up clock on that line) and ``RESULT {...}`` when done.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from estimators import disturbance, median, nearest_rank, per_position  # noqa: E402
from repro.planner.optimizer import PlanCache  # noqa: E402
from spans import Recorder  # noqa: E402

_IMPORTED = time.perf_counter()

#: replays a timed run never goes below, whatever ``--seconds`` says
MIN_REPLAYS = 6
#: serial passes behind ``engine.runtime.proc_over_serial``
SERIAL_PASSES = 2
GOLDENS = Path(__file__).resolve().parent / "goldens.json"


class Verifier:
    """Checks every operation's output and keeps the tally."""

    def __init__(self, goldens: dict, seed: int, record: bool) -> None:
        self.goldens = goldens
        self.seed = seed
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._answers: dict[str, str] = {}

    def _golden_problems(self, seen: workloads.Observation) -> list[str]:
        answer = self.goldens.get("answers", {}).get(seen.answer_key)
        cell = self.goldens.get("cells", {}).get(seen.op_id)
        if answer is None or cell is None:
            return ["no golden recorded (run.py --record-goldens)"]
        problems = []
        for name, got, want in (
            ("sha256", seen.sha256, answer["sha256"]),
            ("result_count", seen.result_count, answer["result_count"]),
            ("strategy", seen.strategy, cell["strategy"]),
        ):
            if got != want:
                problems.append(f"{name} {got} != golden {want}")
        # placement depends on the seed, and with it the counted clocks and
        # what a hybrid plan's per-worker de-duplication leaves to shuffle
        if self.seed == 0:
            for name, want in cell["seed0"].items():
                if getattr(seen, name) != want:
                    problems.append(f"{name} {getattr(seen, name)} != golden {want}")
        return problems

    def first(self, seen: workloads.Observation) -> None:
        """An operation seen with its sha256: goldens and cross-cell agreement."""
        problems = [] if seen.ok else ["operation failed"]
        if not self.record:
            problems += self._golden_problems(seen)
        agreed = self._answers.setdefault(seen.answer_key, seen.sha256)
        if agreed != seen.sha256:
            problems.append("rows differ from another strategy/runtime's")
        self._tally(seen, problems)

    def repeat(
        self, seen: workloads.Observation, reference: workloads.Observation
    ) -> None:
        """A later sighting of the same position: must repeat exactly."""
        problems = []
        if seen.counted() != reference.counted():
            problems.append(
                f"differs from first replay: {seen.counted()} != "
                f"{reference.counted()}"
            )
        self._tally(seen, problems)

    def _tally(self, seen: workloads.Observation, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{seen.op_id}: " + "; ".join(problems))


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus the largest child's, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def timed_replays(workload, seconds: float, fixed: int, verifier: Verifier):
    """Replay until ``seconds`` are used up (or exactly ``fixed`` times).

    Peak memory is read after replay ``MIN_REPLAYS``, which every run
    reaches: the heap's high-water mark creeps up with the number of replays
    (190 MB after 4 of ``binary_hash``, 210 MB after 9), and that number
    depends on how fast the box happens to be.
    """
    replays: list[workloads.Replay] = []
    cpu = wall = rss = 0.0
    started = time.perf_counter()
    while True:
        cpu_before, wall_before = cpu_seconds(), time.perf_counter()
        replay = workload.replay(first=not replays)
        wall += time.perf_counter() - wall_before
        cpu += cpu_seconds() - cpu_before
        for position, seen in enumerate(replay.observations):
            if replays:
                verifier.repeat(seen, replays[0].observations[position])
            else:
                verifier.first(seen)
        replays.append(replay)
        if len(replays) <= MIN_REPLAYS:
            rss = peak_rss_mb()
        spent = time.perf_counter() - started
        if fixed:
            if len(replays) >= fixed:
                break
        elif (
            len(replays) >= MIN_REPLAYS
            and spent + spent / len(replays) > seconds
        ):
            break
    return replays, cpu / wall, rss


def typical_pass(replays) -> list[float]:
    """Per position, the median over the replays of the calibrated samples."""
    return per_position([replay.calibrated() for replay in replays])


def end_to_end(workload, replays, rss_mb: float) -> dict:
    """The user-visible metrics (all but ``setup_s``, which the parent owns).

    Times are reference-speed seconds: every sample is divided by the
    slowdown the calibration blocks around it measured.
    """
    typical = typical_pass(replays)
    return {
        "queries_per_s": workload.queries_per_s(
            typical, [replay.calibrated_elapsed() for replay in replays]
        ),
        "latency_s.p50": nearest_rank(typical, 0.50),
        "latency_s.p90": nearest_rank(typical, 0.90),
        "peak_rss_mb": rss_mb,
        "counted_cpu_units": sum(
            seen.total_cpu for seen in replays[0].observations
        ),
    }


def traced_batch(workload, recorder, counts, verifier, reference) -> float:
    """Trace every cell once; return the pass's reference-speed seconds."""
    seconds = 0.0
    blocks = calibrate.Blocks()
    blocks.take()
    for position, cell in enumerate(workload.sequence):
        began = time.perf_counter()
        seen = layers.traced_cell(cell, workload, workload.runtime, recorder, counts)
        seconds += time.perf_counter() - began
        blocks.take()
        verifier.repeat(seen, reference[position])
    return seconds / blocks.mean()


def traced_service(
    workload, recorder, counts, cache, verifier, reference, served_s: float
) -> dict:
    """One more served replay booked as spans, then every query run alone.

    ``served_s`` is what a replay typically takes, in reference-speed seconds.
    """
    traced = workload.replay()
    for position, seen in enumerate(traced.observations):
        verifier.repeat(seen, reference[position])
    for _, started, ended in traced.ticks:
        recorder.add("engine.service.step", started, ended)
    starts: dict[int, float] = {}
    for ticks_before, started, _ in traced.ticks:
        starts.setdefault(ticks_before, started)
    waits = []
    for cell, (submitted, admitted_tick, finished) in zip(
        workload.sequence, traced.admissions
    ):
        recorder.add("engine.service.query", submitted, finished, cell.op_id)
        waits.append(max(0.0, starts[admitted_tick] - submitted))
    ticks = [ended - started for _, started, ended in traced.ticks]
    # the same queries, each alone: where a served query's time goes when
    # nothing interleaves, and what the service adds on top
    blocks = calibrate.Blocks()
    blocks.take()
    began = time.perf_counter()
    for cell in workload.sequence:
        layers.traced_cell(cell, workload, "serial", recorder, counts, cache)
    solo_s = time.perf_counter() - began
    blocks.take()
    solo_s /= blocks.mean()
    stats = workload.service.stats
    return {
        "bench.trace_overhead": traced.calibrated_elapsed() / served_s,
        "engine.service.overhead_ratio": served_s / solo_s,
        "engine.service.ticks": traced.service_ticks,
        "engine.service.rounds_executed": traced.service_rounds,
        "engine.service.peak_inflight": stats.peak_inflight,
        "engine.service.oom_retries": stats.oom_retries,
        "engine.service.tick_s.p50": nearest_rank(ticks, 0.50),
        "engine.service.tick_s.p90": nearest_rank(ticks, 0.90),
        "engine.service.queue_wait_s.p50": nearest_rank(waits, 0.50),
        "planner.plan_cache_hit_rate": stats.cache_hits
        / (stats.cache_hits + stats.cache_misses),
    }


def per_layer(workload, replays, cpu_over_wall, setup, verifier, out: Path) -> dict:
    """The traced replay and the direct probes, folded into layer metrics.

    Layer times are raw seconds; ``bench.machine_slowdown`` says how far the
    box was from reference speed while they were taken.  The ratios compare
    reference-speed seconds with reference-speed seconds.
    """
    typical = typical_pass(replays)
    metrics = {
        "bench.replays": len(replays),
        "bench.machine_slowdown": statistics.fmean(
            replay.slowdown for replay in replays
        ),
        "bench.disturbance": disturbance([replay.latencies for replay in replays]),
        "bench.first_pass_over_median": sum(replays[0].calibrated()) / sum(typical),
        "storage.dataset_build_s": setup["generator_s"],
        "storage.rows_loaded": setup["rows_loaded"],
        "engine.runtime.cpu_over_wall": cpu_over_wall,
    }
    recorder = Recorder()
    counts = layers.new_counts()
    reference = replays[0].observations
    cache = PlanCache()
    metrics.update(layers.planner_probes(workload, cache))

    if isinstance(workload, workloads.BatchWorkload):
        traced_s = traced_batch(workload, recorder, counts, verifier, reference)
        metrics["bench.trace_overhead"] = traced_s / sum(typical)
    else:
        served_s = median([replay.calibrated_elapsed() for replay in replays])
        metrics.update(traced_service(
            workload, recorder, counts, cache, verifier, reference, served_s
        ))
    metrics.update(layers.span_metrics(recorder, counts))
    metrics.update(layers.kernel_probes(workload.probe_cell, workload))

    if "proc" in workload.layers:
        serial = typical_pass(
            [workload.replay(runtime="serial") for _ in range(SERIAL_PASSES)]
        )
        metrics["engine.runtime.proc_over_serial"] = sum(serial) / sum(typical)
    recorder.write(out / f"trace-{workload.name}.jsonl")
    zeros = layers.never_entered(workload)
    if zeros.keys() & metrics.keys():
        raise SystemExit(
            f"perf: {workload.name} reports {sorted(zeros.keys() & metrics.keys())} "
            "from a layer it declares it never enters"
        )
    return metrics | zeros


def main() -> int:
    """Set up, say READY, measure, say RESULT."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ALL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "record"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    record = args.mode == "record"
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    verifier = Verifier(goldens, args.seed, record)
    # calibration blocks inside set-up: after the imports, after the datasets
    # and after every first answer; the parent takes their time back out
    blocks = calibrate.Blocks()
    blocks.take()
    workload = workloads.ALL[args.workload](args.seed, args.smoke)
    workload.build_datasets()
    blocks.take()
    built = time.perf_counter()
    first = workload.first_answers(between=blocks.take)
    for seen in first:
        verifier.first(seen)
    setup = {
        "import_s": _IMPORTED - _STARTED,
        "datasets_s": built - _IMPORTED,
        "first_answers_s": time.perf_counter() - built,
        "calibration_s": blocks.seconds,
        "slowdowns": blocks.slowdowns,
        "generator_s": sum(d.generator_seconds for d in workload.datasets.values()),
        "numpy": np.__version__,
        "rows_loaded": sum(d.rows for d in workload.datasets.values()),
    }
    print("READY " + json.dumps(setup), flush=True)
    if args.mode == "setup":
        for failure in verifier.failures:
            print(f"perf: {failure}", file=sys.stderr)
        return 1 if verifier.failed else 0

    # a traced run splits its time between the untraced replays, which the
    # overhead and disturbance ratios need, and the traced one and the probes
    seconds = args.seconds / 2 if args.trace else args.seconds
    fixed = 1 if record else 2 if args.smoke else 0
    replays, cpu_over_wall, rss_mb = timed_replays(
        workload, seconds, fixed, verifier
    )
    metrics = end_to_end(workload, replays, rss_mb)
    if args.trace:
        metrics = per_layer(
            workload, replays, cpu_over_wall, setup, verifier, args.out
        )
    result = {
        "workload": args.workload,
        "metrics": metrics,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "failures": verifier.failures[:20],
        "replays": len(replays),
        "positions": len(workload.sequence),
        "samples": [replay.latencies for replay in replays],
        "blocks": [replay.blocks for replay in replays],
        "elapsed": [replay.elapsed for replay in replays],
        "setup": setup,
        "observations": [asdict(seen) for seen in first + replays[0].observations],
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
