"""Differential suite: vectorized WCOJ x process runtime, bit for bit.

The vectorized leapfrog backend (block-at-a-time trie walks under numpy
kernels) and the forked-process runtime are both pure wall-clock changes:
for every strategy, kernel backend, and worker runtime, result rows come
back in the same order and every counted metric — rows, trie seeks, tuples
shuffled with per-shuffle skews, CPU charges, wall clock, peak memory — is
exactly equal, no tolerance.  This file pins that invariant on the full
strategy matrix, plus the seek-accounting edge cases the block backend is
most likely to get wrong: partially-consumed generators and seek-budget
aborts; the shared walk of a batch of workers' joins against one join at a
time (rows, stats, per-iterator seeks, ledgers); and the counted fallback
when keys overflow the 63-bit pack.

Honors ``REPRO_DIFF_RUNTIME`` (default ``serial``) so CI can re-run the
backend sweep under ``parallel:4:proc`` without duplicating test code.
"""

import os
import random

import pytest

from repro.engine import local as local_module
from repro.engine.frame import Frame
from repro.engine.kernels import use_backend
from repro.engine.local import (
    LocalJoinTask,
    local_tributary_join,
    local_tributary_joins,
    scanned_query,
)
from repro.engine.memory import MemoryBudget
from repro.engine.stats import WorkerStats
from repro.leapfrog.tributary import (
    SeekBudgetExceeded,
    TributaryJoin,
    run_joins,
)
from repro.planner.api import run_query
from repro.planner.explain import explain_analyze
from repro.planner.plans import ALL_STRATEGIES
from repro.query.parser import parse_query
from repro.storage.generators import twitter_database
from repro.storage.relation import Database, Relation

RUNTIME = os.environ.get("REPRO_DIFF_RUNTIME", "serial")

#: the runtime axis of the in-repo matrix; CI re-runs the whole module with
#: ``REPRO_DIFF_RUNTIME=parallel:4:proc`` for the full-width process sweep
RUNTIME_MATRIX = ("parallel:3", "parallel:2:proc")

TRIANGLE = parse_query(
    "T(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z), T:Twitter(z,x)."
)
PROJECTION = parse_query("P(x) :- R:Twitter(x,y), S:Twitter(y,x).")
COMPARISON = parse_query(
    "C(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z), x < z."
)
TWO_PATH = parse_query("P(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z).")

QUERIES = {
    "triangle": TRIANGLE,
    "projection": PROJECTION,
    "comparison": COMPARISON,
}


def assert_identical(reference, candidate):
    """Byte-identical rows and exactly equal counted metrics."""
    assert reference.rows == candidate.rows  # same rows, same order
    a, b = reference.stats, candidate.stats
    assert a.failed == b.failed
    assert a.failure == b.failure
    assert a.shuffles == b.shuffles  # tuples sent + both skews, per shuffle
    assert a.tuples_shuffled == b.tuples_shuffled
    assert a.total_cpu == b.total_cpu  # includes seeks and sort_cost charges
    assert a.wall_clock == b.wall_clock
    assert a.phases() == b.phases()
    assert a.worker_loads() == b.worker_loads()
    assert a.peak_memory == b.peak_memory
    assert a.result_count == b.result_count
    assert a.cpu_skew == b.cpu_skew


# ----------------------------------------------------------------------
# Backend sweep (under the runtime CI selects via REPRO_DIFF_RUNTIME)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("query_name", sorted(QUERIES))
def test_all_strategies_identical_across_backends(strategy, seed, query_name):
    db = twitter_database(nodes=120, edges=500, seed=seed)
    query = QUERIES[query_name]
    python = run_query(
        query, db, strategy=strategy, workers=6, runtime=RUNTIME,
        kernels="python",
    )
    numpy = run_query(
        query, db, strategy=strategy, workers=6, runtime=RUNTIME,
        kernels="numpy",
    )
    assert not python.failed
    assert_identical(python, numpy)


def test_semijoin_identical_across_backends():
    db = twitter_database(nodes=120, edges=500, seed=0)
    python = run_query(
        TWO_PATH, db, strategy="SJ_HJ", workers=6, runtime=RUNTIME,
        kernels="python",
    )
    numpy = run_query(
        TWO_PATH, db, strategy="SJ_HJ", workers=6, runtime=RUNTIME,
        kernels="numpy",
    )
    assert not python.failed
    assert_identical(python, numpy)


# ----------------------------------------------------------------------
# Runtime sweep (threads and processes against the serial reference)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("runtime", RUNTIME_MATRIX)
@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
def test_all_strategies_identical_across_runtimes(strategy, runtime):
    db = twitter_database(nodes=120, edges=500, seed=7)
    serial = run_query(
        TRIANGLE, db, strategy=strategy, workers=6, runtime="serial",
        kernels="numpy",
    )
    candidate = run_query(
        TRIANGLE, db, strategy=strategy, workers=6, runtime=runtime,
        kernels="numpy",
    )
    assert not serial.failed
    assert_identical(serial, candidate)


@pytest.mark.parametrize("runtime", RUNTIME_MATRIX)
def test_semijoin_identical_across_runtimes(runtime):
    db = twitter_database(nodes=120, edges=500, seed=7)
    serial = run_query(
        TWO_PATH, db, strategy="SJ_HJ", workers=6, runtime="serial",
        kernels="numpy",
    )
    candidate = run_query(
        TWO_PATH, db, strategy="SJ_HJ", workers=6, runtime=runtime,
        kernels="numpy",
    )
    assert not serial.failed
    assert_identical(serial, candidate)


def test_oom_failure_identical_under_process_runtime():
    """A budget violation inside a forked worker must fail identically to
    serial: the :class:`OutOfMemoryError` crosses a real process pipe (its
    custom pickling), and the commit-up-to-lowest-failure stats — including
    the pinned peak-memory figures — must come back bit-identical."""
    db = twitter_database(nodes=120, edges=500, seed=1)
    serial = run_query(
        TRIANGLE, db, strategy="RS_TJ", workers=4, memory_tuples=400,
        runtime="serial", kernels="numpy",
    )
    process = run_query(
        TRIANGLE, db, strategy="RS_TJ", workers=4, memory_tuples=400,
        runtime="parallel:2:proc", kernels="numpy",
    )
    assert serial.failed and process.failed
    assert serial.stats.failure == process.stats.failure
    assert_identical(serial, process)


# ----------------------------------------------------------------------
# Seek accounting: the block backend must count exactly like the scalar
# walk even when the consumer stops early or the budget trips mid-walk
# ----------------------------------------------------------------------


def _triangle_join(max_seeks=None):
    query = parse_query("Q(x,y,z) :- R(x,y), S(y,z), T(z,x).")
    # +5 steps mod 15 close triangles (5+5+5 = 15); +1 edges add seek noise
    rows = [(i, (i + 1) % 15) for i in range(15)] + [
        (i, (i + 5) % 15) for i in range(15)
    ]
    relation = Relation("R", ("a", "b"), rows)
    return TributaryJoin(
        query,
        {"R": relation, "S": relation.renamed("S"), "T": relation.renamed("T")},
        max_seeks=max_seeks,
    )


def _per_backend(fn):
    outcomes = {}
    for backend in ("python", "numpy"):
        with use_backend(backend):
            outcomes[backend] = fn()
    assert outcomes["python"] == outcomes["numpy"]
    return outcomes["python"]


def test_full_iteration_rows_and_seeks_identical():
    def run():
        join = _triangle_join()
        rows = list(join.iterate())
        per_iterator = tuple(p.iterator.seeks for p in join._prepared)
        return rows, join.stats.seeks, per_iterator

    rows, seeks, _ = _per_backend(run)
    assert rows and seeks > 0


def test_partially_consumed_generator_records_seeks():
    """The PR 2 stats case: stopping mid-iteration still records the seeks
    performed so far, strictly between zero and the exhausted-run count, on
    BOTH backends.  The rows consumed and the exhausted-run seek count are
    bit-identical across backends; the mid-stream count itself is allowed
    to differ (the block backend legitimately pays for a whole chunk of
    the trie walk before its first yield — that batching IS the speedup),
    but chunked emission keeps it strictly below the full-run total."""
    full_seeks = {}
    partial = {}
    for backend in ("python", "numpy"):
        with use_backend(backend):
            join = _triangle_join()
            list(join.iterate())
            full_seeks[backend] = join.stats.seeks

            join = _triangle_join()
            iterator = join.iterate()
            rows = [next(iterator) for _ in range(4)]
            iterator.close()
            partial[backend] = (rows, join.stats.seeks)
            assert 0 < join.stats.seeks < full_seeks[backend]

    assert full_seeks["python"] == full_seeks["numpy"]
    assert partial["python"][0] == partial["numpy"][0]  # same row prefix


def test_seek_budget_trips_on_both_backends():
    """Both backends abort past ``max_seeks`` and record the count they
    aborted at.  The exact overshoot may differ by a few seeks (the block
    backend checks the budget at batch-flush granularity); what is pinned
    is that both trip, past the budget, with stats matching the error."""
    for backend in ("python", "numpy"):
        with use_backend(backend):
            join = _triangle_join(max_seeks=40)
            with pytest.raises(SeekBudgetExceeded) as excinfo:
                list(join.iterate())
            assert excinfo.value.budget == 40
            assert excinfo.value.seeks > 40
            assert join.stats.seeks == excinfo.value.seeks


# ----------------------------------------------------------------------
# One trie walk per worker batch: the shared walk must leave every join —
# rows, row order, stats, per-iterator seeks — and every worker's ledger
# exactly as a one-join-at-a-time execution does
# ----------------------------------------------------------------------

BATCH_QUERIES = {
    "triangle": "Q(x,y,z) :- R(x,y), S(y,z), T(z,x).",
    "projection": "Q(x) :- R(x,y), S(y,x).",  # non-full head: dedup per join
    "comparison": "Q(x,y,z) :- R(x,y), S(y,z), x < z.",
    "square": "Q(x,y,z,w) :- R(x,y), S(y,z), T(z,w), U(w,x), x != z, y >= 2.",
    "one-participant root": "Q(z,x) :- R(x,y), S(y,z).",
}


def _fragments(query, width, seed, rows=40, domain=9, empty=()):
    """``width`` workers' relations; workers in ``empty`` lose one atom."""
    rng = random.Random(seed)
    fragments = []
    for worker in range(width):
        relations = {}
        for position, atom in enumerate(query.atoms):
            count = 0 if worker in empty and position == 1 else rows
            relations[atom.alias] = Relation(
                atom.alias,
                ("a", "b"),
                [
                    (rng.randrange(domain), rng.randrange(domain))
                    for _ in range(count)
                ],
            )
        fragments.append(relations)
    return fragments


def _snapshot(joins, rows):
    return [
        (
            result,
            join.stats,
            tuple(p.iterator.seeks for p in join._prepared),
        )
        for join, result in zip(joins, rows)
    ]


@pytest.mark.parametrize("name", sorted(BATCH_QUERIES))
@pytest.mark.parametrize("width", [1, 2, 5, 16])
def test_batched_walk_identical_to_one_join_at_a_time(name, width):
    """The python backend is the oracle, one numpy join at a time the
    batch-of-one case of the same walk."""
    query = parse_query(BATCH_QUERIES[name])
    fragments = _fragments(query, width, seed=width)
    with use_backend("python"):
        joins = [TributaryJoin(query, relations) for relations in fragments]
        oracle = _snapshot(joins, [join.run() for join in joins])
    with use_backend("numpy"):
        joins = [TributaryJoin(query, relations) for relations in fragments]
        alone = _snapshot(joins, [join.run() for join in joins])
        joins = [TributaryJoin(query, relations) for relations in fragments]
        batched = _snapshot(joins, run_joins(joins))
    assert oracle == alone == batched
    assert any(rows for rows, _, _ in batched)


def test_join_with_an_empty_atom_in_the_middle_of_a_batch():
    """An empty atom makes the scalar walk return before its first seek;
    inside a batch that join must stay seek-free and row-free while its
    neighbours are untouched."""
    query = parse_query(BATCH_QUERIES["triangle"])
    fragments = _fragments(query, 14, seed=3, empty=(0, 6, 13))
    with use_backend("python"):
        joins = [TributaryJoin(query, relations) for relations in fragments]
        oracle = _snapshot(joins, [join.run() for join in joins])
    with use_backend("numpy"):
        joins = [TributaryJoin(query, relations) for relations in fragments]
        batched = _snapshot(joins, run_joins(joins))
    assert oracle == batched
    for worker in (0, 6, 13):
        rows, stats, seeks = batched[worker]
        assert rows == [] and stats.seeks == 0 and not any(seeks)


def _ledgered_tasks(frames_per_worker, budget=None):
    memory = MemoryBudget(per_worker_tuples=budget)
    return [
        LocalJoinTask(worker, frames, WorkerStats(worker), memory.open_account(worker))
        for worker, frames in enumerate(frames_per_worker)
    ]


def _ledgers(tasks):
    return [
        (
            task.stats,
            task.memory.resident(task.worker),
            task.memory.peak(task.worker),
        )
        for task in tasks
    ]


@pytest.mark.parametrize("cap", [None, 150, 1])
@pytest.mark.parametrize("name", ["triangle", "projection", "comparison"])
def test_batched_local_join_ledgers_identical(name, cap, monkeypatch):
    """Rows and per-worker ledgers of the batch entry equal one
    ``local_tributary_join`` call per worker — in one batch, across a
    batch-cap boundary (cap 150: several workers per batch), and with
    every worker in a batch of its own (cap 1)."""
    if cap is not None:
        monkeypatch.setattr(local_module, "BATCH_TUPLE_CAP", cap)
    parsed = parse_query(BATCH_QUERIES[name])
    query = scanned_query(parsed)
    variables = {atom.alias: atom.variables() for atom in query.atoms}
    frames_per_worker = [
        {
            alias: Frame(variables[alias], relation.rows)
            for alias, relation in relations.items()
        }
        for relations in _fragments(parsed, 9, seed=11, rows=12, empty=(4,))
    ]
    with use_backend("numpy"):
        alone = _ledgered_tasks(frames_per_worker)
        expected = [
            local_tributary_join(
                query, task.frames, task.worker, task.stats, memory=task.memory
            )
            for task in alone
        ]
        batch = _ledgered_tasks(frames_per_worker)
        results, error = local_tributary_joins(query, batch)
    assert error is None
    assert results == expected
    assert _ledgers(batch) == _ledgers(alone)


# ----------------------------------------------------------------------
# Packing overflow: the scalar fallback is bit-identical and counted
# ----------------------------------------------------------------------


def _wide_relation(span_bits, seed=0):
    """Edges over a few small ids plus two ids ``2**span_bits`` apart."""
    rng = random.Random(seed)
    ids = list(range(6)) + [2**span_bits, 2**span_bits + 1]
    rows = {(rng.choice(ids), rng.choice(ids)) for _ in range(60)}
    return Relation("R", ("a", "b"), sorted(rows))


def test_overflowing_join_walks_scalar_and_counts_it():
    """Two 2**40-wide key columns cannot share 63 bits."""
    query = parse_query(BATCH_QUERIES["triangle"])
    relation = _wide_relation(40)
    relations = {"R": relation, "S": relation.renamed("S"), "T": relation.renamed("T")}
    outcomes = {}
    for backend in ("python", "numpy"):
        with use_backend(backend):
            join = TributaryJoin(query, relations)
            outcomes[backend] = (join.run(), join.stats.seeks, join.stats.results)
            assert join.stats.scalar_walks == (backend == "numpy")
    assert outcomes["python"] == outcomes["numpy"]
    assert outcomes["numpy"][0]


def test_batch_declines_when_the_segment_digit_overflows():
    """2**31-wide columns pack alone (62 bits) but not behind a segment
    digit: the batch is declined, every join then walks alone — vectorized,
    so no scalar walk is counted — and nothing else changes."""
    query = parse_query(BATCH_QUERIES["triangle"])
    fragments = []
    for seed in range(3):
        relation = _wide_relation(31, seed)
        fragments.append(
            {"R": relation, "S": relation.renamed("S"), "T": relation.renamed("T")}
        )
    with use_backend("numpy"):
        joins = [TributaryJoin(query, relations) for relations in fragments]
        alone = _snapshot(joins, [join.run() for join in joins])
        joins = [TributaryJoin(query, relations) for relations in fragments]
        rows = run_joins(joins)
    assert [join.stats.scalar_walks for join in joins] == [0, 0, 0]
    assert _snapshot(joins, rows) == alone


def test_fallbacks_reach_execution_stats_and_explain_analyze():
    database = Database()
    database.add(_wide_relation(40).renamed("Twitter"))
    python = run_query(
        TRIANGLE, database, strategy="HC_TJ", workers=4, runtime=RUNTIME,
        kernels="python",
    )
    numpy = run_query(
        TRIANGLE, database, strategy="HC_TJ", workers=4, runtime=RUNTIME,
        kernels="numpy",
    )
    assert_identical(python, numpy)  # the counter never touches the clock
    assert python.stats.wcoj_scalar_walks == 0
    assert numpy.stats.wcoj_scalar_walks >= 2  # every worker with data
    # a property of each join's data: the same however the runtime deals
    # workers into batches
    for runtime in ("serial", "parallel:2", "parallel:4"):
        other = run_query(
            TRIANGLE, database, strategy="HC_TJ", workers=4, runtime=runtime,
            kernels="numpy",
        )
        assert_identical(numpy, other)
        assert other.stats.wcoj_scalar_walks == numpy.stats.wcoj_scalar_walks
    analyzed = explain_analyze(
        TRIANGLE, database, strategy="HC_TJ", workers=4, runtime=RUNTIME,
        kernels="numpy",
    )
    assert (
        f"wcoj fallbacks: {numpy.stats.wcoj_scalar_walks} join(s) walked scalar"
    ) in analyzed.render()
    clean = explain_analyze(
        TRIANGLE, twitter_database(nodes=60, edges=200, seed=0),
        strategy="HC_TJ", workers=4, runtime=RUNTIME, kernels="numpy",
    )
    assert "wcoj fallbacks" not in clean.render()
