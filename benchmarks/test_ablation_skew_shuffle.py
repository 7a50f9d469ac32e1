"""Ablation — heavy-hitter handling vs plain hashing vs HyperCube.

The paper's footnote 2: traditional engines fight join skew by detecting
heavy hitters and special-casing them; its own answer is that the HyperCube
shuffle is naturally "more resilient to data skew than a binary join"
because every value lands in only ``p^(1/k)`` buckets.

This ablation stages the Q1 first join (Twitter self-join on the follower
column — the shuffle whose consumer skew the paper reports as 1.35/1.72 in
Table 2) three ways and compares the realized max/avg consumer load:

1. plain hash partition (the paper's regular shuffle);
2. heavy-hitter split/broadcast (the footnote's mitigation);
3. the per-dimension hashing a HyperCube shuffle applies.
"""

from ablation_skew import skew_resilient_shuffle
from conftest import WORKERS

from repro.engine.frame import Frame
from repro.engine.shuffle import hypercube_shuffle, regular_shuffle
from repro.engine.stats import ExecutionStats
from repro.hypercube.config import optimize_config
from repro.hypercube.mapping import HyperCubeMapping
from repro.query.atoms import Variable
from repro.storage.generators import twitter_graph
from repro.workloads import Q1

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def _frames(graph, variables, workers):
    out = [[] for _ in range(workers)]
    for index, row in enumerate(graph.rows):
        out[index % workers].append(row)
    return [Frame(variables, rows) for rows in out]


def _skews(graph, workers):
    # 1. plain regular shuffle of R(x, y) on y
    plain_stats = ExecutionStats()
    regular_shuffle(
        _frames(graph, (X, Y), workers), [Y], workers, plain_stats, "plain", "p"
    )
    plain = plain_stats.shuffles[0].consumer_skew

    # 2. heavy-hitter split/broadcast against S(y, z)
    skew_stats = ExecutionStats()
    skew_resilient_shuffle(
        _frames(graph, (X, Y), workers),
        _frames(graph, (Y, Z), workers),
        [Y],
        workers,
        skew_stats,
        "mitigated",
        "p",
    )
    mitigated = skew_stats.shuffles[0].consumer_skew

    # 3. HyperCube shuffle of the same atom
    cards = {atom.alias: len(graph) for atom in Q1.atoms}
    config = optimize_config(Q1, cards, workers)
    mapping = HyperCubeMapping(config)
    hc_stats = ExecutionStats()
    atom = Q1.atom_by_alias("R")
    hypercube_shuffle(
        _frames(graph, atom.variables(), workers),
        atom,
        mapping,
        workers,
        hc_stats,
        "HCS",
        "p",
    )
    hypercube = hc_stats.shuffles[0].consumer_skew
    return plain, mitigated, hypercube


def test_ablation_skew_shuffle(benchmark):
    # a slightly steeper power law so the hub degrees clearly exceed the
    # 2x-average-load detection threshold at p=64
    graph = twitter_graph(nodes=6_000, edges=18_000, exponent=1.0)
    plain, mitigated, hypercube = benchmark.pedantic(
        _skews, args=(graph, WORKERS), rounds=1, iterations=1
    )
    print(
        f"\nconsumer skew on the Q1 first-join shuffle (p={WORKERS}): "
        f"plain={plain:.2f} heavy-hitter={mitigated:.2f} hypercube={hypercube:.2f}"
    )

    # the mitigation earns its keep on power-law data
    assert mitigated < plain
    # and the HyperCube shuffle is itself skew-resilient without any
    # special-casing (the paper's Sec. 2.1 claim; Table 2 vs Table 3)
    assert hypercube < plain
