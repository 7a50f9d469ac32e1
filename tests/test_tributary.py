"""Tests for the Tributary (leapfrog) join, incl. property tests vs brute force."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import kernels
from repro.engine.kernels import ColumnBlock, use_backend
from repro.leapfrog import vectorized
from repro.leapfrog.tributary import (
    TributaryJoin,
    _batched_run,
    run_joins,
    tributary_join,
)
from repro.leapfrog.vectorized import VectorizedTributaryRun, _AtomArrays
from repro.planner.api import run_query
from repro.query.atoms import Variable
from repro.query.parser import parse_query
from repro.storage.relation import Database, Relation
from repro.storage.sorted import SortedRelation
from repro.workloads.registry import get_workload
from tests.test_lockstep import QUERIES as LOCKSTEP_QUERIES
from tests.test_wcoj_differential import (
    _fragments,
    _snapshot,
    _triangle_join,
    _wide_relation,
    assert_identical,
)

TRIANGLE = parse_query("Q(x,y,z) :- R:E(x,y), S:E(y,z), T:E(z,x).")

edge_lists = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=50
)


def brute_force_triangles(edges):
    edge_set = set(edges)
    nodes = {v for e in edges for v in e}
    return {
        (x, y, z)
        for x in nodes
        for y in nodes
        for z in nodes
        if (x, y) in edge_set and (y, z) in edge_set and (z, x) in edge_set
    }


def edges_relation(edges, name="E"):
    return Relation(name, ("a", "b"), list(dict.fromkeys(edges)))


class TestTriangle:
    def test_small_example_from_paper_figure2_style(self):
        rows = [(0, 1), (2, 0), (2, 3), (2, 5), (3, 4), (4, 2), (5, 6)]
        relation = edges_relation(rows)
        result = tributary_join(
            TRIANGLE, {"R": relation, "S": relation, "T": relation}
        )
        assert set(result) == brute_force_triangles(rows)

    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, edges):
        relation = edges_relation(edges)
        result = tributary_join(
            TRIANGLE, {"R": relation, "S": relation, "T": relation}
        )
        assert set(result) == brute_force_triangles(edges)
        assert len(result) == len(set(result))

    @given(edge_lists)
    @settings(max_examples=30, deadline=None)
    def test_any_variable_order_gives_same_result(self, edges):
        relation = edges_relation(edges)
        relations = {"R": relation, "S": relation, "T": relation}
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        expected = None
        for order in itertools.permutations((x, y, z)):
            got = set(
                TributaryJoin(TRIANGLE, relations, order=order).run()
            )
            # results are emitted in head order regardless of join order
            if expected is None:
                expected = got
            assert got == expected


class TestTwoWay:
    @given(edge_lists, edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_binary_join_is_merge_join(self, left, right):
        query = parse_query("Q(x,y,z) :- R(x,y), S(y,z).")
        result = tributary_join(
            query, {"R": edges_relation(left, "R"), "S": edges_relation(right, "S")}
        )
        left_set, right_set = set(left), set(right)
        expected = {
            (x, y, z) for (x, y) in left_set for (y2, z) in right_set if y == y2
        }
        assert set(result) == expected


class TestFeatures:
    def test_constant_selection(self):
        query = parse_query("Q(y) :- R(3, y).")
        relation = Relation("R", ("a", "b"), [(3, 1), (3, 2), (4, 9)])
        assert set(tributary_join(query, {"R": relation})) == {(1,), (2,)}

    def test_string_constant_requires_encoder(self):
        query = parse_query('Q(y) :- R(x, "joe"), S(x, y).')
        relation = Relation("R", ("a", "b"), [(1, 2)])
        with pytest.raises(TypeError, match="encoder"):
            tributary_join(query, {"R": relation, "S": relation})

    def test_string_constant_with_database_encoder(self):
        db = Database()
        db.add_encoded("Name", ("id", "name"), [(1, "joe"), (2, "bob")])
        db.add_rows("Act", ("id", "film"), [(1, 7), (2, 8)])
        query = parse_query('Q(f) :- Name(x, "joe"), Act(x, f).')
        result = tributary_join(
            query,
            {"Name": db["Name"], "Act": db["Act"]},
            encoder=db.encode,
        )
        assert set(result) == {(7,)}

    def test_comparison_between_variables(self):
        query = parse_query("Q(x,y,z) :- R(x,y), S(y,z), x < z.")
        relation = Relation("R", ("a", "b"), [(1, 2), (2, 3), (3, 1)])
        result = tributary_join(query, {"R": relation, "S": relation})
        expected = {
            (x, y, z)
            for (x, y) in relation.rows
            for (y2, z) in relation.rows
            if y == y2 and x < z
        }
        assert set(result) == expected

    def test_comparison_with_constant(self):
        query = parse_query("Q(x,y) :- R(x,y), y >= 2.")
        relation = Relation("R", ("a", "b"), [(1, 1), (1, 2), (1, 5)])
        assert set(tributary_join(query, {"R": relation})) == {(1, 2), (1, 5)}

    def test_projection_deduplicates(self):
        query = parse_query("Q(x) :- R(x,y).")
        relation = Relation("R", ("a", "b"), [(1, 1), (1, 2), (2, 1)])
        result = tributary_join(query, {"R": relation})
        assert sorted(result) == [(1,), (2,)]

    def test_repeated_variable_in_atom(self):
        query = parse_query("Q(x) :- R(x,x).")
        relation = Relation("R", ("a", "b"), [(1, 1), (1, 2), (3, 3)])
        assert set(tributary_join(query, {"R": relation})) == {(1,), (3,)}

    def test_empty_input_short_circuits(self):
        relation = Relation("E", ("a", "b"), [])
        result = tributary_join(
            TRIANGLE, {"R": relation, "S": relation, "T": relation}
        )
        assert result == []

    def test_head_order_respected(self):
        query = parse_query("Q(z,x) :- R(x,y), S(y,z).")
        relation = Relation("R", ("a", "b"), [(1, 2), (2, 3)])
        result = tributary_join(query, {"R": relation, "S": relation})
        assert set(result) == {(3, 1)}

    def test_order_must_cover_all_variables(self):
        relation = edges_relation([(1, 2)])
        with pytest.raises(ValueError):
            TributaryJoin(
                TRIANGLE,
                {"R": relation, "S": relation, "T": relation},
                order=(Variable("x"), Variable("y")),
            )

    def test_stats_populated(self):
        rows = [(0, 1), (1, 2), (2, 0), (0, 2)]
        relation = edges_relation(rows)
        join = TributaryJoin(TRIANGLE, {"R": relation, "S": relation, "T": relation})
        results = join.run()
        assert join.stats.sort_cost > 0
        assert join.stats.sorted_tuples == 3 * len(rows)
        assert join.total_seeks() > 0
        assert join.stats.results == len(results)


class TestFourClique:
    def test_matches_brute_force_on_dense_graph(self):
        # complete directed graph on 5 nodes: every ordered 4-tuple of
        # distinct nodes forms the paper's Q2 pattern
        nodes = range(5)
        edges = [(i, j) for i in nodes for j in nodes if i != j]
        relation = edges_relation(edges)
        query = parse_query(
            "Q(x,y,z,p) :- R:E(x,y), S:E(y,z), T:E(z,p), P:E(p,x), "
            "K:E(x,z), L:E(y,p)."
        )
        result = tributary_join(
            query, {alias: relation for alias in "R S T P K L".split()}
        )
        expected = {
            (x, y, z, p)
            for x in nodes for y in nodes for z in nodes for p in nodes
            if len({x, y, z, p}) == 4
        }
        assert set(result) == expected


class TestSeekBudget:
    def test_budget_fires_on_expensive_join(self):
        from repro.leapfrog.tributary import SeekBudgetExceeded
        from repro.storage.generators import random_relation

        relation = random_relation("R", 2, 400, 40, seed=1)
        join = TributaryJoin(
            TRIANGLE,
            {"R": relation, "S": relation, "T": relation},
            max_seeks=200,
        )
        with pytest.raises(SeekBudgetExceeded) as excinfo:
            join.run()
        assert excinfo.value.budget == 200
        assert excinfo.value.seeks > 200

    def test_generous_budget_does_not_fire(self):
        relation = edges_relation([(0, 1), (1, 2), (2, 0)])
        join = TributaryJoin(
            TRIANGLE,
            {"R": relation, "S": relation, "T": relation},
            max_seeks=10**9,
        )
        assert set(join.run()) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}

    def test_no_budget_by_default(self):
        relation = edges_relation([(0, 1)])
        join = TributaryJoin(
            TRIANGLE, {"R": relation, "S": relation, "T": relation}
        )
        assert join.max_seeks is None


class TestKeysFarApart:
    """Two atoms whose keys lie ``2**63`` or more apart: each packs alone
    (its own span is 4), but a seek target minus the other atom's low does
    not fit int64.  The vectorized walk once wrapped it and landed on the
    block start instead of running off the end (5 seeks, not 3)."""

    BOUND = 3 * 2**61

    @pytest.mark.parametrize(
        "text, seeks",
        [
            ("Q(x,y,z) :- R(x,y), S(x,z).", [2, 1]),
            ("Q(x,y,z) :- S(x,z), R(x,y).", [1, 2]),
        ],
    )
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_seek_past_a_distant_range_runs_off_the_block(
        self, text, seeks, backend
    ):
        b = self.BOUND
        relations = {
            "R": Relation("R", ("a", "b"), [(-b, 1), (-b + 3, 2)]),
            "S": Relation("S", ("a", "b"), [(b - 7, 1), (b - 4, 2)]),
        }
        with use_backend(backend):
            join = TributaryJoin(parse_query(text), relations)
            assert join.run() == []
        assert [p.iterator.seeks for p in join._prepared] == seeks
        assert join.stats.seeks == 3
        assert join.stats.scalar_walks == 0


class TestBatchIsJoinsAlone:
    """Joins that share a walk, and a declined batch whose joins each pack
    their own, give the rows, stats and per-iterator seeks of one join at a
    time (the workers' ledgers: ``test_batched_local_join_ledgers_identical``)."""

    QUERY = parse_query("Q(x,y,z) :- R(x,y), S(y,z), T(z,x).")

    def _run_both_ways(self, fragments):
        with use_backend("numpy"):
            alone = [TributaryJoin(self.QUERY, f) for f in fragments]
            expected = _snapshot(alone, [join.run() for join in alone])
            batch = [TributaryJoin(self.QUERY, f) for f in fragments]
            assert _snapshot(batch, run_joins(batch)) == expected
        assert any(rows for rows, _, _ in expected)
        return batch

    def test_shared_walk_changes_nothing(self):
        self._run_both_ways(_fragments(self.QUERY, 3, seed=1))

    def test_declined_batch_walks_each_join_alone(self):
        # 2**31-wide columns pack alone (62 bits) but not behind a segment
        # digit: every join then walks alone, over its own packed keys
        fragments = []
        for seed in range(3):
            r = _wide_relation(31, seed)
            fragments.append({"R": r, "S": r.renamed("S"), "T": r.renamed("T")})
        batch = self._run_both_ways(fragments)
        assert [join.stats.scalar_walks for join in batch] == [0, 0, 0]


# ----------------------------------------------------------------------
# The batched walk's trie: one sorted array of packed keys per atom
# ----------------------------------------------------------------------


@st.composite
def key_fragments(draw):
    """1-12 fragments of one atom with 0-3 key columns (0: every term a
    constant), duplicate rows likely, values in -5..5, optionally 2**20
    apart."""
    width = draw(st.integers(0, 3))
    scale = draw(st.sampled_from([1, 2**20]))
    value = st.integers(-5, 5).map(lambda v: v * scale)
    row = st.tuples(*[value] * max(width, 1))
    count = draw(st.integers(1, 12))
    return width, [draw(st.lists(row, min_size=1, max_size=12)) for _ in range(count)]


class TestOnePackedArray:
    """Per atom, a batch packs its joins' unsorted key columns behind the
    join's index (the segment) and sorts them once; level ``d`` of the trie
    is ``full // stride_d``.  That one array must be every worker's sorted
    trie exactly: its rows, and the end of every block."""

    @given(key_fragments())
    @settings(max_examples=120, deadline=None)
    def test_the_one_array_is_the_per_level_trie(self, drawn):
        width, fragments = drawn
        columns = ("a", "b", "c")[: max(width, 1)]
        with use_backend("numpy"):
            relations = [
                SortedRelation(Relation("R", columns, rows), range(width))
                for rows in fragments
            ]
            arrays = _AtomArrays.pack(
                [kernels.project_rows(r.base.rows, r.order) for r in relations]
            )
        capacity = len(fragments)
        for d in range(width):
            values = [row[d] for rows in fragments for row in rows]
            capacity *= max(values) - min(values) + 1
        if capacity >= 2**63:
            assert arrays is None
            return
        full = arrays.full.tolist()
        strides, spans, lows = arrays.strides, arrays.spans, arrays.lows
        for s, relation in enumerate(relations):
            start = int(arrays.offsets[s])
            rows = relation.rows  # the scalar walk's sorted rows
            assert int(arrays.offsets[s + 1]) - start == len(rows)
            for r, row in enumerate(rows):
                packed = full[start + r]
                assert packed // math.prod(spans) == s
                decoded = tuple(
                    packed // strides[d] % spans[d] + lows[d] for d in range(width)
                )
                assert decoded == row
                end = len(rows)
                for d in range(width):
                    end = relation.upper_bound(d, row[d], r, end)
                    past = (packed // strides[d] + 1) * strides[d]
                    assert int(arrays.full.searchsorted(past)) - start == end

    def test_a_capacity_just_under_2_63_packs(self):
        span = (2**63 - 1) // 7  # exact: 7 divides 2**63 - 1
        block = ColumnBlock([np.array([span - 1, 0, span - 1])], 3)
        full, lows, spans = kernels.sorted_packed_keys([block] * 7)
        assert (lows, spans) == ([0], [span])
        assert full.tolist() == [
            s * span + v for s in range(7) for v in (0, span - 1, span - 1)
        ]
        block = ColumnBlock([np.array([0, 2**62 - 1])], 2)
        assert kernels.sorted_packed_keys([block] * 2) is None  # 2 * 2**62

    def test_a_batch_at_2_63_declines_and_counts_only_joins_that_do_not_pack(self):
        query = parse_query("Q(x) :- A(x), B(x).")
        top = 2**62 - 1

        def fragment(a, b):
            return {
                "A": Relation("A", ("a",), [(v,) for v in a]),
                "B": Relation("B", ("a",), [(v,) for v in b]),
            }

        # each packs alone (spans 2**62); two segments make 2**63
        packing = [fragment([0, 3, top], [3, top]), fragment([0, top], [0, 1])]
        wide = fragment([-(2**62), 5, 2**62], [5, 2**62])  # span 2**63 + 1
        for fragments, walks in ((packing, [0, 0]), (packing + [wide], [0, 0, 1])):
            with use_backend("python"):
                joins = [TributaryJoin(query, f) for f in fragments]
                oracle = _snapshot(joins, [join.run() for join in joins])
            with use_backend("numpy"):
                joins = [TributaryJoin(query, f) for f in fragments]
                assert _batched_run(joins) is None
                rows = run_joins(joins)
            assert [join.stats.scalar_walks for join in joins] == walks
            for join in joins:  # the oracle never falls back
                join.stats.scalar_walks = 0
            assert _snapshot(joins, rows) == oracle
        assert any(rows for rows, _, _ in oracle)


def _forbid_sorting(monkeypatch):
    def rows(relation):
        raise AssertionError(f"a fragment of {relation.name} was sorted")

    monkeypatch.setattr(SortedRelation, "rows", property(rows))


class TestBatchedWalkSortsNoFragment:
    """The batched walk never makes a worker's sorted copy: with the sorted
    store's rows raising, it still answers as the python oracle does.  What
    reads a fragment's sorted rows — the scalar walk of a join that does not
    pack, the python backend — still sorts them."""

    def test_a_batch_of_nine_triangles(self, monkeypatch):
        fragments = _fragments(TRIANGLE, 9, seed=4)
        with use_backend("python"):
            joins = [TributaryJoin(TRIANGLE, f) for f in fragments]
            oracle = _snapshot(joins, [join.run() for join in joins])
        _forbid_sorting(monkeypatch)
        with use_backend("numpy"):
            joins = [TributaryJoin(TRIANGLE, f) for f in fragments]
            assert _snapshot(joins, run_joins(joins)) == oracle
        assert any(rows for rows, _, _ in oracle)

    def test_q1_hc_tj_through_the_engine(self, monkeypatch):
        workload = get_workload("Q1")
        database = workload.dataset("unit")

        def run(kernels):
            return run_query(
                workload.query, database, strategy="HC_TJ", workers=8,
                kernels=kernels,
            )

        python = run("python")
        _forbid_sorting(monkeypatch)
        numpy = run("numpy")
        assert python.rows and not python.failed
        assert_identical(python, numpy)

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_the_scalar_walk_still_sorts(self, backend, monkeypatch):
        wide = _wide_relation(40)  # overflows the pack alone and in a batch
        relations = {"R": wide, "S": wide.renamed("S"), "T": wide.renamed("T")}
        _forbid_sorting(monkeypatch)
        with use_backend(backend):
            joins = [TributaryJoin(TRIANGLE, relations) for _ in range(2)]
            with pytest.raises(AssertionError, match="fragment of R was sorted"):
                run_joins(joins)


class TestChunkedDescent:
    """Every ``_descend`` call takes at most ``_CHUNK_CAP`` contexts, at
    every level, and a merge level's at most ``_MERGE_CAP`` rows of the
    smaller blocks unless it is one context; the chunks are walked in
    order, so rows, row order, stats and seeks do not depend on the caps."""

    @pytest.mark.parametrize("width", [1, 2, 9])
    @pytest.mark.parametrize("name", ["triangle", "4-cycle", "4-clique"])
    def test_any_cap_walks_the_same(self, name, width, monkeypatch):
        query = parse_query(LOCKSTEP_QUERIES[name])
        fragments = _fragments(query, width, seed=width, rows=30, domain=6)
        sizes, merged = [], []
        descend = VectorizedTributaryRun._descend

        def spy(self, depth, bindings, segment, block_lo, block_hi):
            sizes.append(segment.size)
            part = self._participants[depth]
            if len(part) == 2 and segment.size > 1:
                merged.append(
                    int(np.minimum(*(block_hi[i] - block_lo[i] for i in part)).sum())
                )
            return descend(self, depth, bindings, segment, block_lo, block_hi)

        with use_backend("numpy"):
            joins = [TributaryJoin(query, f) for f in fragments]
            expected = _snapshot(joins, run_joins(joins))
            monkeypatch.setattr(VectorizedTributaryRun, "_descend", spy)
            for cap in (1, 2, 3, 7):
                monkeypatch.setattr(vectorized, "_CHUNK_CAP", cap)
                monkeypatch.setattr(vectorized, "_MERGE_CAP", cap)
                sizes.clear()
                merged.clear()
                joins = [TributaryJoin(query, f) for f in fragments]
                assert _snapshot(joins, run_joins(joins)) == expected
                assert sizes and max(sizes) <= cap
                assert max(merged, default=0) <= cap
        assert any(rows for rows, _, _ in expected)

    @pytest.mark.parametrize("cap", [1, 2, 3, 7])
    def test_a_lone_join_stopped_early_records_fewer_seeks(self, cap, monkeypatch):
        monkeypatch.setattr(vectorized, "_CHUNK_CAP", cap)
        with use_backend("numpy"):
            exhausted = _triangle_join()
            list(exhausted.iterate())
            stopped = _triangle_join()
            rows = stopped.iterate()
            for _ in range(4):
                next(rows)
            rows.close()
        assert 0 < stopped.stats.seeks < exhausted.stats.seeks


# ----------------------------------------------------------------------
# Two participants: the merge against the lockstep, level by level
# ----------------------------------------------------------------------

GROUPED = parse_query("Q(g,x) :- A(g,x), B(g,x).")

#: x offsets per atom: near zero, at +-(2**63 - 1), and 2**63 apart
OFFSETS = [0, 3, 2**62, -(2**62), 2**63 - 1 - 9, -(2**63 - 1)]


def _expansions(run, depth, segment, block_lo, block_hi):
    """``_merge`` and ``_lockstep`` of one level on the same contexts: their
    parents, values, carried blocks and per-(atom, segment) seeks."""
    out = []
    for expand in (run._merge, run._lockstep):
        parents, values, blocks = expand([0, 1], depth, segment, block_lo, block_hi)
        seeks = run.seeks.tolist()
        run.seeks[:] = 0
        out.append(
            (
                parents.tolist(),
                values.tolist(),
                # no emission, no blocks: _descend stops the walk there
                {
                    i: (lo.tolist(), hi.tolist())
                    for i, (lo, hi) in blocks.items()
                    if values.size
                },
                seeks,
            )
        )
    return out, (parents, blocks)


def assert_merge_is_lockstep(segments):
    """Walk ``A(g, x)`` and ``B(g, x)`` per segment (one ``(a_rows,
    b_rows)`` pair each) level by level: the merge and the lockstep must
    agree at ``g`` (one context per segment) and at ``x`` (one per common
    ``g``)."""
    fragments = [
        {
            "A": Relation("A", ("g", "x"), sorted(set(a))),
            "B": Relation("B", ("g", "x"), sorted(set(b))),
        }
        for a, b in segments
    ]
    with use_backend("numpy"):
        joins = [TributaryJoin(GROUPED, f) for f in fragments]
        run = _batched_run(joins)
    assert run is not None and run._participants == ((0, 1), (0, 1))
    segment = np.arange(len(joins), dtype=np.int64)
    lo = {i: run.arrays[i].offsets[:-1] for i in (0, 1)}
    hi = {i: run.arrays[i].offsets[1:] for i in (0, 1)}
    (merged, stepped), (parents, blocks) = _expansions(run, 0, segment, lo, hi)
    assert merged == stepped
    if parents.size:
        lo = {i: blocks[i][0] for i in (0, 1)}
        hi = {i: blocks[i][1] for i in (0, 1)}
        merged, stepped = _expansions(run, 1, segment[parents], lo, hi)[0]
        assert merged == stepped


@st.composite
def grouped_segments(draw):
    """1-4 segments of A(g, x) and B(g, x) rows, g in 0..2 so a segment
    holds several contexts at ``x``; x dense in 0..9 (ties at the first
    key, runs of consecutive common keys) plus a per-atom offset, often
    shared, else possibly 2**63 or more away from the other atom's."""
    offset_a = draw(st.sampled_from(OFFSETS))
    offset_b = draw(st.one_of(st.just(offset_a), st.sampled_from(OFFSETS)))

    def rows(offset):
        row = st.tuples(st.integers(0, 2), st.integers(0, 9).map(offset.__add__))
        return st.lists(row, min_size=1, max_size=20)

    count = draw(st.integers(1, 4))
    return [(draw(rows(offset_a)), draw(rows(offset_b))) for _ in range(count)]


def _keys(values, g=0):
    return [(g, v) for v in values]


class TestMergeIsLockstep:
    """``_merge`` replaces the lockstep on two-participant levels: per
    context the same common keys in the same order, the same carried
    blocks and the same seeks per (atom, segment) — the scalar
    round-robin's, including who calls ``next()`` on a common key."""

    @given(grouped_segments())
    @settings(max_examples=300, deadline=None)
    def test_random_blocks(self, segments):
        assert_merge_is_lockstep(segments)

    @pytest.mark.parametrize(
        "a, b",
        [
            # tied first keys: part[0] leads, then along the common run
            ([1, 2, 3], [1, 2, 3, 4]),
            ([1, 2, 3, 4], [1, 2, 3]),
            # the later starter reaches the run's first key second
            ([1, 2, 3], [0, 1, 2, 3]),
            ([0, 1, 2, 3], [1, 2, 3]),
            # a key of one side between two common keys hands the lead over
            ([1, 2, 4, 5], [1, 3, 4, 5]),
            ([1, 2, 3, 7, 8], [4, 5, 7, 9]),
            # either side runs off first, on a seek or on a next()
            ([1, 5], [2, 3, 4, 6]),
            ([2, 3, 4, 6], [1, 5]),
            ([1, 2], [2]),
            ([2], [1, 2]),
            ([5, 6, 7], [5]),
            # the int64 extremes, and keys 2**63 apart
            ([2**63 - 1], [-(2**63 - 1)]),
            ([-(2**63 - 1)], [2**63 - 1]),
            ([-(2**62), 0], [2**62]),
            ([-(2**62), 2**62 - 2], [2**62 - 2]),
        ],
    )
    def test_hand_cases(self, a, b):
        assert_merge_is_lockstep([(_keys(a), _keys(b))])
        assert_merge_is_lockstep([(_keys(b), _keys(a))])


class TestTwoParticipantLevelsNeverStep:
    """The merge is the one path for two participants: with the lockstep
    refusing them, Q1 and Q6 under HC_TJ still answer as the python walk
    does, rows and counted clock (seeks included) alike."""

    @pytest.mark.parametrize("name", ["Q1", "Q6"])
    def test_q1_and_q6(self, name, monkeypatch):
        workload = get_workload(name)
        database = workload.dataset("unit")

        def run(kernels):
            return run_query(
                workload.query, database, strategy="HC_TJ", workers=8,
                kernels=kernels,
            )

        python = run("python")
        lockstep = VectorizedTributaryRun._lockstep
        merged = []

        def guard(self, part, *args):
            if len(part) == 2:
                raise AssertionError("a two-participant level reached _lockstep")
            return lockstep(self, part, *args)

        def spy(self, part, *args):
            merged.append(len(part))
            return merge(self, part, *args)

        merge = VectorizedTributaryRun._merge
        monkeypatch.setattr(VectorizedTributaryRun, "_lockstep", guard)
        monkeypatch.setattr(VectorizedTributaryRun, "_merge", spy)
        numpy = run("numpy")
        assert python.rows and not python.failed
        assert merged
        assert_identical(python, numpy)
