"""Tests for the B-tree LFTJ iterator and backend equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.ablation_btree import BPlusTree, BTreeTributaryJoin, BTreeTrieIterator
from repro.leapfrog.tributary import TributaryJoin, prepare_atom
from repro.query.parser import parse_query
from repro.storage.relation import Relation

edge_lists = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=50
)

TRIANGLE = parse_query("Q(x,y,z) :- R:E(x,y), S:E(y,z), T:E(z,x).")


def tree_of(rows, branching=4):
    tree = BPlusTree(branching=branching)
    for row in rows:
        tree.insert(row)
    return tree


def walk_level(iterator):
    values = []
    while not iterator.at_end:
        values.append(iterator.key())
        iterator.next()
    return values


class TestNavigation:
    def test_first_level_distinct_keys(self):
        iterator = BTreeTrieIterator(tree_of([(2, 1), (1, 5), (2, 9)]), 2)
        iterator.open()
        assert walk_level(iterator) == [1, 2]

    def test_second_level_scoped(self):
        iterator = BTreeTrieIterator(tree_of([(1, 3), (1, 5), (2, 4)]), 2)
        iterator.open()
        iterator.open()
        assert walk_level(iterator) == [3, 5]

    def test_up_restores_parent(self):
        iterator = BTreeTrieIterator(tree_of([(1, 3), (1, 5), (2, 4)]), 2)
        iterator.open()
        iterator.open()
        iterator.up()
        assert iterator.key() == 1
        iterator.next()
        assert iterator.key() == 2

    def test_seek_least_geq(self):
        iterator = BTreeTrieIterator(tree_of([(1, 0), (4, 0), (9, 0)]), 2)
        iterator.open()
        iterator.seek(5)
        assert iterator.key() == 9

    def test_seek_past_end(self):
        iterator = BTreeTrieIterator(tree_of([(1, 0)]), 2)
        iterator.open()
        iterator.seek(5)
        assert iterator.at_end

    def test_errors(self):
        iterator = BTreeTrieIterator(tree_of([(1, 2)]), 2)
        with pytest.raises(RuntimeError):
            iterator.key()
        with pytest.raises(RuntimeError):
            iterator.up()
        iterator.open()
        iterator.open()
        with pytest.raises(RuntimeError):
            iterator.open()

    def test_empty_tree(self):
        iterator = BTreeTrieIterator(tree_of([]), 2)
        assert iterator.at_end

    @given(edge_lists)
    @settings(max_examples=50)
    def test_full_walk_reconstructs_relation(self, rows):
        tree = tree_of(rows)
        if not len(tree):
            return
        iterator = BTreeTrieIterator(tree, 2)
        reconstructed = set()
        iterator.open()
        while not iterator.at_end:
            first = iterator.key()
            iterator.open()
            while not iterator.at_end:
                reconstructed.add((first, iterator.key()))
                iterator.next()
            iterator.up()
            iterator.next()
        assert reconstructed == set(rows)


class TestBackendEquivalence:
    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_triangle_same_results_both_backends(self, edges):
        relation = Relation("E", ("a", "b"), list(dict.fromkeys(edges)))
        relations = {"R": relation, "S": relation, "T": relation}
        sorted_run = set(TributaryJoin(TRIANGLE, relations).run())
        btree_run = set(BTreeTributaryJoin(TRIANGLE, relations).run())
        assert sorted_run == btree_run

    def test_comparisons_and_projection_work_on_btree(self):
        query = parse_query("Q(x) :- R(x,y), S(y,z), x < z.")
        relation = Relation("R", ("a", "b"), [(1, 2), (2, 3), (3, 1)])
        sorted_run = TributaryJoin(
            query, {"R": relation, "S": relation}
        ).run()
        btree_run = BTreeTributaryJoin(
            query, {"R": relation, "S": relation}
        ).run()
        assert set(sorted_run) == set(btree_run)

    def test_prepare_cost_reported_for_both(self):
        relation = Relation("E", ("a", "b"), [(i, i + 1) for i in range(50)])
        atom = TRIANGLE.atom_by_alias("R")
        sorted_prep = prepare_atom(atom, relation, TRIANGLE.variables())
        btree_join = BTreeTributaryJoin(
            TRIANGLE, {"R": relation, "S": relation, "T": relation}
        )
        btree_prep = btree_join._prepared[0]
        assert btree_prep.atom is atom
        assert sorted_prep.prepare_cost > 0
        assert btree_prep.prepare_cost > 0
        assert sorted_prep.size == btree_prep.size == 50
