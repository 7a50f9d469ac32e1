#!/usr/bin/env python3
"""Run the repo's benchmark as alternating parent/change pairs; count the wins.

    python3 tools/perf_pairs.py --claim binary_hash/queries_per_s
    python3 tools/perf_pairs.py --parent HEAD~1 --seeds 1 2 3 --workload binary_hash
    python3 tools/perf_pairs.py --dry-run

The change is this checkout.  ``--parent`` is a revision (default ``HEAD``:
the working tree against its last commit), checked out with ``git worktree
add`` under ``perf/out/pairs/`` and removed afterwards, or a directory that
already holds the parent, used as it is.  Both checkouts are
byte-compiled first (``python -m compileall -q src perf``), so neither side
pays for, or skips, compiling its sources in its first timed run — a stale
``__pycache__`` on one side alone moves ``setup_s``.  Per seed both sides run
``perf/run.py --seed S --trace 0`` — the parent first on even seeds, the
change first on odd ones, because the box drifts over minutes — then
``perf/compare.py`` prints the table.  ``--claim workload/metric`` adds what
the guide asks of a claimed gain: wins, losses and ties pair by pair (at
least nine tenths of the pairs must be wins), and both medians against the
distance between the parent's quartiles.  Everything written goes under the
git-ignored ``perf/out/``; this script only *invokes* ``perf/``.  Runs left
under ``perf/out/pairs/`` by an earlier invocation are compared and counted
too (a seed run again replaces its result): delete it to start over.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perf" / "out" / "pairs"


def compile_steps(parent: Path) -> list[tuple[str, list[str], Path]]:
    """``(side, command, cwd)`` byte-compiling each checkout before any run."""
    command = [sys.executable, "-m", "compileall", "-q", "src", "perf"]
    return [("parent", command, parent), ("change", command, ROOT)]


def schedule(seeds, parent: Path, workload=None) -> list[tuple[str, int, list[str], Path]]:
    """``(side, seed, command, cwd)`` for every run, in the order to make them."""
    runs = []
    for seed in seeds:
        sides = [("parent", parent), ("change", ROOT)]
        for side, checkout in sides[::-1] if seed % 2 else sides:
            command = [
                sys.executable, "perf/run.py", "--seed", str(seed), "--trace", "0",
                "--out", str(OUT / side / str(seed)),
            ] + (["--workload", workload] if workload else [])
            runs.append((side, seed, command, checkout))
    return runs


def metric_by_seed(side: str, workload: str, metric: str) -> dict[int, float]:
    """One end-to-end metric of one side's runs, by seed."""
    values = {}
    for path in sorted((OUT / side).glob("*/results.json")):
        for run in json.loads(path.read_text())["runs"]:
            if run["workload"] == workload and metric in run["metrics"]:
                values[run["seed"]] = run["metrics"][metric]["value"]
    return values


def report_claim(claim: str) -> None:
    """Print the pairs' verdict on ``workload/metric``."""
    workload, metric = claim.split("/", 1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sign = {m["name"]: 1 if m["better"] == "higher" else -1 for m in declared}[metric]
    parent = metric_by_seed("parent", workload, metric)
    change = metric_by_seed("change", workload, metric)
    pairs = sorted(parent.keys() & change.keys())
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in pairs)
    ties = sum(change[s] == parent[s] for s in pairs)
    before = [parent[s] for s in pairs]
    middle = statistics.median(before)
    after = statistics.median(change[s] for s in pairs)
    first, _, third = statistics.quantiles(before, n=4) if len(pairs) > 1 else (middle,) * 3
    holds = wins >= 0.9 * len(pairs) and sign * (after - middle) > third - first
    print(
        f"{claim}: change wins {wins}, loses {len(pairs) - wins - ties}, ties {ties} "
        f"of {len(pairs)} pairs (seeds {pairs}); median {middle:.6g} -> {after:.6g} "
        f"(x{after / middle:.2f}); parent quartile distance {third - first:.3g}: "
        f"the claim {'holds' if holds else 'does NOT hold'}"
    )


def main(argv=None) -> int:
    """Run (or with ``--dry-run`` print) the schedule, compare, judge the claim."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="revision, or a directory holding it")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workload", default=None, help="one workload (default: all)")
    parser.add_argument("--claim", default=None, metavar="WORKLOAD/METRIC")
    parser.add_argument("--dry-run", action="store_true", help="print the schedule only")
    args = parser.parse_args(argv)
    checked_out = Path(args.parent).is_dir()
    tree = Path(args.parent).resolve() if checked_out else OUT / "parent-tree"
    compiles = compile_steps(tree)
    runs = schedule(args.seeds, tree, args.workload)
    if args.dry_run:
        for side, command, cwd in compiles:
            print(f"compile {side}: cd {cwd} && python3 {' '.join(command[1:])}")
        for side, seed, command, cwd in runs:
            print(f"seed {seed} {side}: cd {cwd} && python3 {' '.join(command[1:])}")
        return 0
    if not checked_out:
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(tree), args.parent],
            cwd=ROOT, check=True,
        )
    try:
        for side, command, cwd in compiles:
            subprocess.run(command, cwd=cwd, check=True)
        for side, seed, command, cwd in runs:
            print(f"== seed {seed} {side}", flush=True)
            subprocess.run(command, cwd=cwd, check=True, stdout=subprocess.DEVNULL)
    finally:
        if not checked_out:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT, check=True
            )
    compare = [sys.executable, "perf/compare.py", str(OUT / "parent"), str(OUT / "change")]
    subprocess.run(compare, cwd=ROOT, check=True)
    if args.claim:
        report_claim(args.claim)
    return 0


if __name__ == "__main__":
    sys.exit(main())
