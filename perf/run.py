#!/usr/bin/env python3
"""The repo's benchmark: four replayed workloads, measured from outside.

    python3 perf/run.py                      # every workload, both passes
    python3 perf/run.py --workload wcoj_cyclic --seed 3 --seconds 20 --trace 0

Each workload runs in fresh interpreters (``PYTHONHASHSEED=0``): two that only
set up, then one that sets up and measures, so ``setup_s`` has three samples.
Every metric declared in ``BENCHMARK.json`` is printed by name with its unit,
every operation's output is verified, and the last line of standard output is
one JSON object.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones (that run also writes ``trace-<workload>.jsonl``).  See
``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from estimators import median  # noqa: E402

WORKLOADS = ("wcoj_cyclic", "binary_hash", "proc_pool", "serve_mixed")
#: fresh-interpreter set-ups per run, the measuring process included
SETUP_REPEATS = 3
#: no child may outlive this many seconds (the contract allows a run 180)
CHILD_LIMIT = 170.0


def declared() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    """The worker's environment: fixed hash seed, ``src/`` importable."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_KERNELS", None)
    return env


def run_child(workload: str, args, mode: str, trace: int, out: Path) -> tuple:
    """Run one worker; return (seconds to READY, set-up breakdown, result).

    The seconds are reference-speed seconds: the worker runs calibration
    blocks during its set-up, whose time is taken back out.
    """
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--mode", mode, "--out", str(out),
    ] + (["--smoke"] if args.smoke else [])
    spawned = time.perf_counter()
    child = subprocess.Popen(
        command, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(CHILD_LIMIT, child.kill)
    watchdog.start()
    ready_after = setup = result = None
    try:
        for line in child.stdout:
            if line.startswith("READY "):
                ready_after = time.perf_counter() - spawned
                setup = json.loads(line[len("READY "):])
                ready_after -= setup["calibration_s"]
                ready_after /= sum(setup["slowdowns"]) / len(setup["slowdowns"])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        child.kill()
        code = child.wait()
        watchdog.cancel()
    finished = ready_after is not None and (mode == "setup" or result is not None)
    if not finished or (mode == "setup" and code != 0):
        raise SystemExit(f"perf: {workload} worker ({mode}) failed, exit code {code}")
    return ready_after, setup, result


def environment() -> dict:
    """Where the numbers were taken."""
    try:
        # a checkout that is not a repository must not be looked past
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "loadavg_before": os.getloadavg(),
    }


def measure(workload: str, args, trace: int, spec: dict) -> dict:
    """One run of one workload: set-up samples, then the measuring worker."""
    samples = []
    if trace == 0:
        for _ in range(1 if args.smoke else SETUP_REPEATS - 1):
            ready_after, _, _ = run_child(workload, args, "setup", trace, args.out)
            samples.append(ready_after)
    ready_after, setup, result = run_child(workload, args, "measure", trace, args.out)
    samples.append(ready_after)
    values = dict(result["metrics"])
    if trace == 0:
        values["setup_s"] = median(samples)
    names = spec["end_to_end" if trace == 0 else "per_layer"]
    units = {metric["name"]: metric["unit"] for metric in names}
    unknown = set(values) - set(units)
    missing = set(units) - set(values)
    if unknown or missing:
        raise SystemExit(
            f"perf: {workload} metrics do not match BENCHMARK.json: "
            f"undeclared {sorted(unknown)}, missing {sorted(missing)}"
        )
    return {
        "workload": workload,
        "seed": args.seed,
        "trace": trace,
        "smoke": args.smoke,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
        "replays": result["replays"],
        "positions": result["positions"],
        "setup_samples_s": samples,
        "setup_breakdown": setup,
        "samples": result["samples"],
        "blocks": result["blocks"],
        "elapsed": result["elapsed"],
    }


def record_goldens(args) -> int:
    """Write ``goldens.json`` from seed-0 runs at both scales."""
    answers: dict = {}
    cells: dict = {}
    args.seed = 0
    for args.smoke in (False, True):
        for workload in WORKLOADS:
            _, _, result = run_child(workload, args, "record", 0, args.out)
            if result["failed"]:
                raise SystemExit(f"perf: cannot record, {result['failures']}")
            for seen in result["observations"]:
                answer = {"sha256": seen["sha256"], "result_count": seen["result_count"]}
                cell = {
                    "strategy": seen["strategy"],
                    "seed0": {
                        "tuples_shuffled": seen["tuples_shuffled"],
                        "wall_clock": seen["wall_clock"],
                        "total_cpu": seen["total_cpu"],
                    },
                }
                if answers.setdefault(seen["answer_key"], answer) != answer:
                    raise SystemExit(f"perf: {seen['answer_key']} has two answers")
                if cells.setdefault(seen["op_id"], cell) != cell:
                    raise SystemExit(f"perf: {seen['op_id']} is not repeatable")
    (HERE / "goldens.json").write_text(
        json.dumps({"answers": answers, "cells": cells}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"recorded {len(answers)} answers, {len(cells)} cells")
    return 0


def main(argv=None) -> int:
    """Run the requested workloads and print every declared metric."""
    spec = declared()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="relabels the datasets and reorders the trace")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long the replays of a run measure")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both",
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="where results.json and the traces go")
    parser.add_argument("--smoke", action="store_true",
                        help="unit-scale data, two replays: the self-test's mode")
    parser.add_argument("--record-goldens", action="store_true",
                        help="rewrite perf/goldens.json from seed-0 runs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perf: nothing to measure, {ROOT / 'src' / 'repro'} is missing")
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.record_goldens:
        return record_goldens(args)

    report = environment()
    runs = []
    for workload in [args.workload] if args.workload else WORKLOADS:
        for trace in (0, 1) if args.trace == "both" else (int(args.trace),):
            run = measure(workload, args, trace, spec)
            runs.append(run)
            for name, metric in run["metrics"].items():
                print(f"{workload:<12} {name:<48} {metric['value']:>16.6g} {metric['unit']}")
            print(
                f"{workload:<12} ops attempted {run['attempted']}, failed "
                f"{run['failed']}; R={run['replays']} N={run['positions']}"
            )
            for failure in run["failures"]:
                print(f"{workload:<12} FAILED {failure}")
    report["loadavg_after"] = os.getloadavg()
    report["seconds"] = args.seconds
    report["runs"] = runs
    (args.out / "results.json").write_text(json.dumps(report, indent=1) + "\n")

    single = len(runs) == 1
    summary = {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {
            (name if single else f"{run['workload']}/{name}"): metric
            for run in runs
            for name, metric in run["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
