#!/usr/bin/env python3
"""Compare two sets of benchmark runs metric by metric.

    python3 perf/compare.py perf/out/parent perf/out/change
    python3 perf/compare.py --aa perf/out/setA perf/out/setB

A set is a directory searched for ``results.json`` files (one per run of
``run.py --out <dir>``).  For every workload and metric this prints each
set's median and quartiles, the change of the second set's median against
the first, the bound ``BENCHMARK.json`` declares, and a verdict:

- ``within``      the medians differ by no more than the bound;
- ``worse`` / ``better``  they differ by more, in that direction;
- ``unresolved``  a set's own spread (quartile distance over median) exceeds
  the bound, so the runs cannot tell — unless every run of the second set
  beats every run of the first, which still reads ``better``.

Per-layer metrics have no bound and get no verdict.  Counts the program
makes (``EXACT``) repeat exactly for a given ``--seed``, so they are compared
seed by seed at a bound of 0 and read ``changed`` if any seed both sets ran
differs; ``BENCHMARK.json``'s bound on ``counted_cpu_units`` only covers the
spread *between* seeds, which the medians above carry.  ``--aa`` is for two
sets of the same commit: it exits 1 if the medians of any end-to-end metric
differ by more than its bound, in either direction, or a count changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: counted by the program, identical whenever the seed and the code are
EXACT = frozenset({
    "counted_cpu_units", "storage.rows_loaded", "leapfrog.seeks",
    "engine.service.ticks", "engine.service.rounds_executed",
    "engine.scheduler.tuples_shuffled", "engine.scheduler.rows_out",
    "engine.scheduler.counted_wall_units",
})


def load(directory: Path) -> dict[tuple[str, str], dict[int, list[float]]]:
    """Per (workload, metric), the values found under ``directory`` by seed."""
    values: dict[tuple[str, str], dict[int, list[float]]] = {}
    files = sorted(directory.rglob("results.json"))
    if not files:
        raise SystemExit(f"compare: no results.json under {directory}")
    for path in files:
        for run in json.loads(path.read_text())["runs"]:
            if not run["correct"]:
                raise SystemExit(f"compare: {path} holds a run with failed operations")
            for name, metric in run["metrics"].items():
                by_seed = values.setdefault((run["workload"], name), {})
                by_seed.setdefault(run["seed"], []).append(metric["value"])
    return values


def flat(by_seed: dict[int, list[float]]) -> list[float]:
    """All of a metric's values, whatever their seed."""
    return [value for values in by_seed.values() for value in values]


def changed_seeds(first: dict[int, list[float]], second: dict[int, list[float]]) -> list[int]:
    """Seeds both sets ran on which an exact count does not repeat."""
    return sorted(
        seed for seed in first.keys() & second.keys()
        if len(set(first[seed]) | set(second[seed])) > 1
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a lone value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    first, middle, third = quartiles(values)
    return (third - first) / abs(middle) if middle else 0.0


def verdict(first: list[float], second: list[float], better: str, bound: float) -> str:
    """How the second set reads against the first under ``bound``."""
    sign = 1 if better == "lower" else -1
    base = statistics.median(first)
    worsening = sign * (statistics.median(second) - base) / abs(base) if base else 0.0
    if max(spread(first), spread(second)) > bound:
        if better == "lower":
            clean_win = max(second) < min(first)
        else:
            clean_win = min(second) > max(first)
        return "better" if clean_win else "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "within"


def main(argv=None) -> int:
    """Print the comparison table; with ``--aa`` gate on it."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=Path, help="the parent's (or set A's) runs")
    parser.add_argument("second", type=Path, help="the change's (or set B's) runs")
    parser.add_argument("--aa", action="store_true",
                        help="same-commit sets: exit 1 if medians differ beyond a bound")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    first, second = load(args.first), load(args.second)

    disagreements = 0
    header = (
        f"{'workload':<12} {'metric':<46} {'first: median [q1, q3] n':<44} "
        f"{'second: median [q1, q3] n':<44} {'change':>8} {'bound':>6}  verdict"
    )
    print(header)
    for workload, name in sorted(first.keys() & second.keys()):
        metric = declared.get(name)
        if metric is None:
            continue
        ours, theirs = flat(first[workload, name]), flat(second[workload, name])
        cells = []
        for values in (ours, theirs):
            low, middle, high = quartiles(values)
            cells.append(f"{middle:.6g} [{low:.6g}, {high:.6g}] n={len(values)}")
        base = statistics.median(ours)
        change = (statistics.median(theirs) - base) / abs(base) if base else 0.0
        bound = metric.get("bound")
        if bound is None:
            outcome, shown = "-", "-"
        else:
            outcome = verdict(ours, theirs, metric["better"], bound)
            shown = f"{bound:.0%}"
            disagreements += abs(change) > bound
        if name in EXACT:
            seeds = changed_seeds(first[workload, name], second[workload, name])
            if seeds:
                outcome = f"changed (seeds {seeds})"
                disagreements += 1
        print(
            f"{workload:<12} {name:<46} {cells[0]:<44} {cells[1]:<44} "
            f"{change:>+8.1%} {shown:>6}  {outcome}"
        )
    if args.aa and disagreements:
        print(f"compare: {disagreements} end-to-end metric(s) disagree between the sets")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
