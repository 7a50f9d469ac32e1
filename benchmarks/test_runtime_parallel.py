"""Runtime backends — the process pool reproduces the serial grid.

Not a paper figure: this guards the tentpole property of the worker-runtime
seam (see ``repro.engine.runtime``) at workload scale.  The whole Q1 grid is
executed under both runtimes, ``serial`` and ``parallel`` (the driver plus
forked worker processes); every strategy must return byte-identical
result rows and exactly equal counted metrics, because the process pool
only changes *where* the per-worker local-join tasks run, never the
accounting.
"""

from conftest import WORKERS

from repro.experiments import run_workload


def _grids():
    serial = run_workload("Q1", scale="unit", workers=WORKERS, runtime="serial")
    parallel = run_workload("Q1", scale="unit", workers=WORKERS, runtime="parallel")
    return serial, parallel


def test_parallel_runtime_matches_serial_grid(benchmark):
    serial, parallel = benchmark.pedantic(_grids, rounds=1, iterations=1)
    assert serial.consistent() and parallel.consistent()
    assert serial.strategies() == parallel.strategies()
    for name in serial.strategies():
        a, b = serial[name], parallel[name]
        assert a.rows == b.rows, name
        assert a.stats.shuffles == b.stats.shuffles, name
        assert a.stats.tuples_shuffled == b.stats.tuples_shuffled, name
        assert a.stats.total_cpu == b.stats.total_cpu, name
        assert a.stats.wall_clock == b.stats.wall_clock, name
        assert a.stats.worker_loads() == b.stats.worker_loads(), name
        assert a.stats.peak_memory == b.stats.peak_memory, name
    assert serial.best_strategy() == parallel.best_strategy()
