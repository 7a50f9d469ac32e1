"""Extension — the three worst-case-optimal join implementations compared.

The paper implements one member of the WCOJ family (Tributary = LFTJ over
sorted arrays) and cites the other two designs: LFTJ over B-trees
(LogicBlox) and NPRR/Generic Join (hash-trie intersection).  This benchmark
runs all three on the triangle query over the power-law graph and checks
the family-level invariants:

- identical results;
- every variant's total work stays far below the binary-join blow-up
  (the 2-hop intermediate that motivates WCOJ in the first place).
"""

import time

from ablation_btree import BTreeTributaryJoin

from repro.leapfrog.generic_join import GenericJoin
from repro.leapfrog.tributary import TributaryJoin
from repro.storage.generators import twitter_graph
from repro.workloads import Q1


def _variants(graph):
    relations = {atom.alias: graph for atom in Q1.atoms}
    outcomes = {}
    for label, factory in (
        ("tributary/sorted", lambda: TributaryJoin(Q1, relations)),
        ("tributary/btree", lambda: BTreeTributaryJoin(Q1, relations)),
        ("generic join", lambda: GenericJoin(Q1, relations)),
    ):
        join = factory()
        started = time.perf_counter()
        rows = join.run()
        elapsed = time.perf_counter() - started
        outcomes[label] = (set(rows), elapsed, join)
    return outcomes


def test_wcoj_variants_agree(benchmark):
    graph = twitter_graph(nodes=3_000, edges=9_000)
    outcomes = benchmark.pedantic(_variants, args=(graph,), rounds=1, iterations=1)

    print(f"\nWCOJ variants on Q1 ({len(graph):,} edges):")
    reference = None
    for label, (rows, elapsed, join) in outcomes.items():
        if reference is None:
            reference = rows
        assert rows == reference, f"{label} disagrees"
        if isinstance(join, GenericJoin):
            work = f"probes={join.stats.probes:,}"
        else:
            work = f"seeks={join.total_seeks():,}"
        print(f"  {label:<18} {elapsed:6.2f}s  {work}  results={len(rows):,}")

    # the motivating comparison: any WCOJ's work is far below the 2-hop
    # intermediate a binary plan would materialize
    from collections import Counter

    out_deg = Counter(s for s, _ in graph.rows)
    in_deg = Counter(d for _, d in graph.rows)
    two_hops = sum(in_deg[v] * out_deg.get(v, 0) for v in in_deg)
    for label, (_, _, join) in outcomes.items():
        work = (
            join.stats.probes
            if isinstance(join, GenericJoin)
            else join.total_seeks()
        )
        assert work < two_hops, f"{label} does more work than the blow-up"
