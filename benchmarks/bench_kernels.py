#!/usr/bin/env python
"""Microbenchmark: kernel wall-clock per backend, on the paper's workloads.

Times the four vectorized hot paths of :mod:`repro.engine.kernels` —
shuffle routing, hypercube routing, sort, hash join — plus the columnar
scan filter, under both the ``python`` and ``numpy`` backends, on the
Q1-Q8 workload datasets.  Writes ``BENCH_kernels.json`` with per-workload
and aggregate wall-clock seconds and the numpy-over-python speedup.

These are *measured times*; every counted metric of the simulator (tuples
shuffled, skew, seeks, sort_cost) is identical between backends by
construction — the benchmark re-verifies output equality as it runs.

Usage::

    python benchmarks/bench_kernels.py           # bench scale, 3 repeats
    python benchmarks/bench_kernels.py --quick   # unit scale, 1 repeat
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.engine import kernels  # noqa: E402
from repro.engine.frame import atom_frame  # noqa: E402
from repro.hypercube.config import optimize_config  # noqa: E402
from repro.hypercube.mapping import HyperCubeMapping  # noqa: E402
from repro.leapfrog.tributary import TributaryJoin  # noqa: E402
from repro.workloads.registry import PAPER_ORDER, WORKLOADS  # noqa: E402

WORKERS = 64
KERNELS = (
    "shuffle_routing", "hypercube_routing", "sort", "hash_join",
    "scan_filter", "wcoj_seek", "wcoj_leapfrog",
)

#: input cap per relation for the full-join microbenchmark, so the scalar
#: reference stays tractable on the widest self-joins (Q2, Q5, Q6)
WCOJ_CAP = 25_000


def _best_of(fn, repeats: int) -> tuple[float, object]:
    """Minimum wall-clock over ``repeats`` runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _workload_inputs(workload, scale: str):
    """Scan the workload's atoms once (outputs are backend-independent)."""
    database = workload.dataset(scale)
    query = workload.query
    frames = {}
    relations = {}
    for atom in query.atoms:
        relation = database[atom.relation]
        relations[atom.alias] = relation
        frames[atom.alias] = atom_frame(atom, relation, database.encode)
    sizes = {alias: max(1, len(f.rows)) for alias, f in frames.items()}
    return database, query, relations, frames, sizes


def _shared_key(left_frame, right_atom):
    left_set = set(left_frame.variables)
    return tuple(v for v in right_atom.variables() if v in left_set)


def bench_workload(workload, scale: str, repeats: int) -> dict:
    database, query, relations, frames, sizes = _workload_inputs(workload, scale)
    atoms = list(query.atoms)
    # route/sort/join the largest scanned frame — the actual hot input
    largest = max(atoms, key=lambda a: sizes[a.alias])
    frame = frames[largest.alias]
    results: dict[str, dict[str, float]] = {}

    def record(kernel: str, fn) -> None:
        timings: dict[str, float] = {}
        outputs = {}
        for backend in kernels.KERNEL_BACKENDS:
            with kernels.use_backend(backend):
                timings[backend], outputs[backend] = _best_of(fn, repeats)
        if outputs["python"] != outputs["numpy"]:
            raise AssertionError(
                f"{workload.name}/{kernel}: backends disagree on output"
            )
        timings["speedup"] = (
            timings["python"] / timings["numpy"] if timings["numpy"] else float("inf")
        )
        results[kernel] = timings

    # 1. regular-shuffle routing: partition the frame on its join key
    partner = next((a for a in atoms if a.alias != largest.alias), largest)
    key = _shared_key(frame, partner) or frame.variables[:1]
    key_indices = frame.indices_of(key)
    record(
        "shuffle_routing",
        lambda: kernels.shuffle_partition(frame.rows, key_indices, WORKERS),
    )

    # 2. hypercube routing: partition the frame to its cube coordinates
    config = optimize_config(query, sizes, WORKERS)
    mapping = HyperCubeMapping(config)
    bound, offsets = mapping.frame_routing(largest, frame.variables)
    record(
        "hypercube_routing",
        lambda: kernels.hypercube_partition(frame.rows, bound, offsets, WORKERS),
    )

    # 3. sort: the SortedRelation construction path (lazy rows on numpy, so
    # materialize tuples for the cross-backend equality check only)
    permutation = tuple(range(len(frame.variables)))

    def run_sort():
        rows, columns = kernels.sort_projected(frame.rows, permutation)
        return rows if rows is not None else kernels.rows_from_columns(columns)

    record("sort", run_sort)

    # 4. hash join: largest frame against its first shared-variable partner
    right = frames[partner.alias]
    join_vars = _shared_key(frame, partner)
    left_key = frame.indices_of(join_vars)
    right_key = right.indices_of(join_vars)
    right_extra = [
        i for i, v in enumerate(right.variables) if v not in set(frame.variables)
    ]
    record(
        "hash_join",
        lambda: kernels.hash_join_rows(
            frame.rows, right.rows, left_key, right_key, right_extra
        ),
    )

    # 5. columnar scan filters: every atom's selection pushdown
    def run_scan():
        return [
            atom_frame(atom, relations[atom.alias], database.encode).rows
            for atom in atoms
        ]

    record("scan_filter", run_scan)

    # 6. WCOJ seek micro-kernel: one trie-level seek per distinct first key
    # of the largest frame — the python side performs the TrieIterator's
    # bounded binary search per seek, the numpy side one batched
    # searchsorted over the packed run-grouped prefix keys
    with kernels.use_backend("numpy"):
        _, sorted_columns = kernels.sort_projected(frame.rows, permutation)
    if sorted_columns.shape[0] >= 2 and sorted_columns.shape[1] > 0:
        packing = kernels.packed_key_levels(sorted_columns)
    else:
        packing = None
    if packing is not None:
        sorted_rows = kernels.rows_from_columns(sorted_columns)
        packed_levels, lows, spans = packing
        level0 = packed_levels[0]
        change = np.flatnonzero(level0[1:] != level0[:-1]) + 1
        starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), change.astype(np.int64))
        )
        ends = np.concatenate(
            (starts[1:], np.asarray([level0.size], dtype=np.int64))
        )
        # seek the median second-column value of each run: realistic
        # mid-block landings, deterministic per dataset
        targets = sorted_columns[1][(starts + ends) // 2]
        ceiling = min(lows[1] + spans[1], 2**63 - 1)
        shift = level0[starts] * spans[1] - lows[1]
        seek_args = list(zip(targets.tolist(), starts.tolist(), ends.tolist()))

        def run_seeks():
            if kernels.get_backend() == "numpy":
                return packed_levels[1].searchsorted(
                    kernels.seek_targets(targets, ceiling, shift)
                ).tolist()
            return [
                kernels.lower_bound(sorted_rows, 1, value, lo, hi)
                for value, lo, hi in seek_args
            ]

        record("wcoj_seek", run_seeks)

    # 7. the full WCOJ trie walk: scalar tuple-at-a-time vs the
    # block-at-a-time vectorized backend, same prepared join (inputs capped
    # so the scalar reference stays tractable)
    capped = {
        alias: relation
        if len(relation.rows) <= WCOJ_CAP
        else relation.with_rows(relation.rows[:WCOJ_CAP])
        for alias, relation in relations.items()
    }
    joins = {}
    for backend in kernels.KERNEL_BACKENDS:
        with kernels.use_backend(backend):
            joins[backend] = TributaryJoin(query, capped, encoder=database.encode)
    if all(p.size > 0 for p in joins["numpy"]._prepared):
        record(
            "wcoj_leapfrog",
            lambda: list(joins[kernels.get_backend()].iterate()),
        )

    results["input_rows"] = {"largest_frame": len(frame.rows), "total": sum(sizes.values())}
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="unit-scale datasets, 1 repeat (CI smoke)")
    parser.add_argument("--scale", choices=("unit", "bench"), default=None,
                        help="dataset scale (default: bench, or unit with --quick)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per kernel (default: 3, or 1 with --quick)")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="subset of Q1..Q8 (default: all)")
    parser.add_argument("--output", default=None,
                        help="output path (default: <repo>/BENCH_kernels.json)")
    args = parser.parse_args(argv)
    scale = args.scale or ("unit" if args.quick else "bench")
    repeats = args.repeats or (1 if args.quick else 3)
    names = args.workloads or list(PAPER_ORDER)
    output = Path(args.output) if args.output else (
        Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
    )

    per_workload = {}
    for name in names:
        workload = WORKLOADS[name]
        started = time.perf_counter()
        per_workload[name] = bench_workload(workload, scale, repeats)
        print(f"{name}: done in {time.perf_counter() - started:.1f}s", flush=True)

    aggregate = {}
    for kernel in KERNELS:
        # a kernel can be absent for a workload (e.g. wcoj_seek when the
        # key ranges do not pack into 64 bits)
        python_s = sum(
            per_workload[n][kernel]["python"] for n in names
            if kernel in per_workload[n]
        )
        numpy_s = sum(
            per_workload[n][kernel]["numpy"] for n in names
            if kernel in per_workload[n]
        )
        aggregate[kernel] = {
            "python_seconds": python_s,
            "numpy_seconds": numpy_s,
            "speedup": python_s / numpy_s if numpy_s else float("inf"),
        }

    report = {
        "scale": scale,
        "repeats": repeats,
        "workers": WORKERS,
        "differential_check": "pass",  # bench_workload raises on any mismatch
        "kernels": aggregate,
        "per_workload": per_workload,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {output}")
    width = max(len(k) for k in KERNELS)
    for kernel, entry in aggregate.items():
        print(f"  {kernel:<{width}}  python {entry['python_seconds']:8.3f}s"
              f"  numpy {entry['numpy_seconds']:8.3f}s"
              f"  speedup {entry['speedup']:5.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
