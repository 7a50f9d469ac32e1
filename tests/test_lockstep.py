"""The lockstep leapfrog of the vectorized walk against the scalar walk.

``leapfrog/vectorized.py`` steps every live trie context once per
iteration with one binary search per participant: ``next()`` is
``seek(key + 1)``, a context carries only its max key and how many
iterators sit on it, and block ends are charged without being searched.
Every test here walks the same joins with the scalar iterators (python
kernels — the oracle), with one vectorized walk per join, and with one
shared walk for the batch, and requires equal rows, row order,
``TributaryStats`` and per-iterator ``seeks``.

The hand-built cases aim at what that bookkeeping can get wrong; the
seeded sweeps cover levels of 2, 3 and 4 participants.  Honors
``REPRO_DIFF_RUNTIME`` like the other differential suites.
"""

import os
import random

import pytest

from repro.engine.kernels import use_backend
from repro.leapfrog.tributary import TributaryJoin, run_joins
from repro.planner.api import run_query
from repro.query.parser import parse_query
from repro.storage.relation import Database, Relation
from tests.test_wcoj_differential import _fragments, _snapshot

RUNTIME = os.environ.get("REPRO_DIFF_RUNTIME", "serial")

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

QUERIES = {
    # two participants at every level; R is not carried below y, S is
    "triangle": "Q(x,y,z) :- R(x,y), S(y,z), T(z,x).",
    "4-cycle": "Q(x,y,z,w) :- R(x,y), S(y,z), T(z,w), U(w,x).",
    # three participants at every level
    "4-clique": (
        "Q(x,y,z,w) :- R(x,y), S(y,z), T(z,w), U(w,x), K(x,z), L(y,w)."
    ),
    # four at the root, all carried, then one-participant levels
    "star": "Q(x,a,b,c,d) :- R(x,a), S(x,b), T(x,c), U(x,d), a < c.",
    # four at the deepest level, none carried
    "sink": "Q(a,b,c,d,x) :- R(a,x), S(b,x), T(c,x), U(d,x), a <= b.",
}


def relations_of(query, rows_per_alias):
    return {
        atom.alias: Relation(
            atom.alias,
            tuple("abc"[: len(atom.terms)]),
            list(dict.fromkeys(rows_per_alias[atom.alias])),
        )
        for atom in query.atoms
    }


def assert_walks_agree(query, fragments):
    """Scalar, one vectorized walk per join, one shared walk: all equal."""
    with use_backend("python"):
        joins = [TributaryJoin(query, relations) for relations in fragments]
        oracle = _snapshot(joins, [join.run() for join in joins])
    with use_backend("numpy"):
        joins = [TributaryJoin(query, relations) for relations in fragments]
        alone = _snapshot(joins, [join.run() for join in joins])
        joins = [TributaryJoin(query, relations) for relations in fragments]
        shared = _snapshot(joins, run_joins(joins))
    assert all(stats.scalar_walks == 0 for _, stats, _ in alone + shared)
    assert oracle == alone
    assert oracle == shared
    return oracle


def unary(*columns):
    """``Q(x) :- A(x), B(x), ...`` over the given key lists: one level, so
    every seek of the join is a step of one lockstep call."""
    aliases = "ABCD"[: len(columns)]
    body = ", ".join(f"{alias}(x)" for alias in aliases)
    query = parse_query(f"Q(x) :- {body}.")
    rows = {alias: [(v,) for v in column] for alias, column in zip(aliases, columns)}
    return query, relations_of(query, rows)


# ----------------------------------------------------------------------
# Hand-built steps
# ----------------------------------------------------------------------

ONE_LEVEL = {
    "all k open on the max key": ([1, 5], [1, 7], [1, 9]),
    "k - 1 of k open on the max key": ([0, 3, 6], [3, 4, 6], [3, 6, 8]),
    "hit on the last key: next() exhausts for free": ([2], [2]),
    "hit on the last key of one, not of the other": ([1, 2], [2, 3]),
    "target above the range": ([1, 2, 3], [10, 11]),
    "ranges apart, the low one named second": ([10, 11], [1, 2, 3]),
    "four iterators, stable order among equal keys": (
        [4, 9], [4, 8, 9], [2, 4, 9], [4, 5, 9],
    ),
    "long leap then a hit": (list(range(0, 60, 2)), [58, 59], [1, 58]),
    "negative keys": ([-7, -3, 0, 4], [-3, 4, 5], [-9, -3, 4]),
    "a hit at the top of int64": (
        [INT64_MAX - 1, INT64_MAX], [INT64_MAX], [INT64_MAX - 1, INT64_MAX],
    ),
    "a hit at the bottom of int64": (
        [INT64_MIN, INT64_MIN + 2], [INT64_MIN, INT64_MIN + 1, INT64_MIN + 2],
    ),
    "keys 2**63 and more apart": ([-3 * 2**61, -3 * 2**61 + 3], [3 * 2**61, 3 * 2**61 + 2]),
}


@pytest.mark.parametrize("name", sorted(ONE_LEVEL))
def test_one_level_case(name):
    query, relations = unary(*ONE_LEVEL[name])
    assert_walks_agree(query, [relations])


def test_free_exhaustion_counts_no_seek():
    """``{2} ∩ {2}``: two opens, one hit, and the ``next()`` that runs off
    the block costs nothing."""
    query, relations = unary([2], [2])
    ((rows, stats, seeks),) = assert_walks_agree(query, [relations])
    assert rows == [(2,)] and seeks == (1, 1) and stats.seeks == 2


def test_contexts_exhaust_at_different_steps():
    """Sibling contexts of one lockstep call with lists of very different
    lengths: the short ones die while the long one keeps stepping, and the
    last block of the array runs off its end."""
    query = parse_query("Q(x,y) :- R(x,y), S(x,y).")
    rows = {
        "R": [(0, v) for v in range(0, 40, 3)] + [(1, 5)] + [(2, v) for v in (1, 2)]
        + [(3, v) for v in range(30)],
        "S": [(0, v) for v in range(0, 40, 2)] + [(1, 5)] + [(2, 7)]
        + [(3, v) for v in range(29, 60)],
    }
    assert_walks_agree(query, [relations_of(query, rows)])


def test_prefix_shift_that_wraps_int64():
    """A second-level key range starting at ``-2**63`` under a non-zero
    prefix: ``prefix * span - low`` does not fit int64 by itself, the
    target it is added into does."""
    query = parse_query("Q(x,y) :- R(x,y), S(x,y).")
    low = INT64_MIN
    rows = {
        "R": [(0, low), (1, low), (1, low + 1), (2, low + 1), (3, low)],
        "S": [(1, low + 1), (2, low), (2, low + 1), (3, low), (3, low + 1)],
    }
    ((result, _, _),) = assert_walks_agree(query, [relations_of(query, rows)])
    assert result == [(1, low + 1), (2, low + 1), (3, low)]


# ----------------------------------------------------------------------
# Seeded sweeps: 2, 3 and 4 participants, batches of 1 / 2 / 9 joins
# ----------------------------------------------------------------------


@pytest.mark.parametrize("width", [1, 2, 9])
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_seeded_joins(name, width):
    query = parse_query(QUERIES[name])
    # small domains: many ties and hits; the middle join of the widest
    # batch has an empty atom and must stay seek-free
    empty = (4,) if width == 9 else ()
    for seed, (rows, domain) in enumerate([(12, 4), (30, 6), (45, 9)]):
        walked = assert_walks_agree(
            query, _fragments(query, width, 7 * width + seed, rows, domain, empty)
        )
        for worker in empty:
            result, stats, seeks = walked[worker]
            assert result == [] and stats.seeks == 0 and not any(seeks)
    assert any(result for result, _, _ in walked)


def test_variable_order_moves_the_participants():
    """The same triangle under every rotation of its variable order: which
    atom is carried below a level, and at which of its own trie levels it
    takes part, changes with the order."""
    query = parse_query(QUERIES["triangle"])
    fragments = _fragments(query, 3, seed=5, rows=40, domain=7)
    variables = query.variables()
    for shift in range(3):
        order = variables[shift:] + variables[:shift]
        with use_backend("python"):
            joins = [TributaryJoin(query, f, order=order) for f in fragments]
            oracle = _snapshot(joins, [join.run() for join in joins])
        with use_backend("numpy"):
            joins = [TributaryJoin(query, f, order=order) for f in fragments]
            assert _snapshot(joins, run_joins(joins)) == oracle


def test_through_the_engine():
    """HC_TJ end to end, python kernels against numpy, on the runtime the
    differential job names: rows and every counted metric."""
    rng = random.Random(3)
    edges = list(dict.fromkeys(
        (rng.randrange(25), rng.randrange(25)) for _ in range(260)
    ))
    database = Database()
    database.add(Relation("E", ("a", "b"), edges))
    query = "C(x,y,z,w) :- R:E(x,y), S:E(y,z), T:E(z,w), U:E(w,x), K:E(x,z), L:E(y,w)."
    results = [
        run_query(
            query, database, strategy="HC_TJ", workers=8, runtime=RUNTIME,
            kernels=kernels,
        )
        for kernels in ("python", "numpy")
    ]
    python, numpy = results
    assert python.rows == numpy.rows and python.rows
    assert python.stats.total_cpu == numpy.stats.total_cpu
    assert python.stats.wall_clock == numpy.stats.wall_clock
    assert python.stats.worker_loads() == numpy.stats.worker_loads()
    assert numpy.stats.wcoj_scalar_walks == 0
