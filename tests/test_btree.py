"""Tests for the B+-tree substrate (the LogicBlox storage layout)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.ablation_btree import BPlusTree

row_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=120
)


class TestInsertion:
    def test_insert_and_iterate_sorted(self):
        tree = BPlusTree(branching=4)
        rows = [(3, 1), (1, 2), (2, 0), (1, 1)]
        for row in rows:
            assert tree.insert(row)
        assert list(tree) == sorted(rows)
        tree.check_invariants()

    def test_duplicates_rejected(self):
        tree = BPlusTree(branching=4)
        assert tree.insert((1, 1))
        assert not tree.insert((1, 1))
        assert len(tree) == 1

    def test_splits_maintain_invariants(self):
        tree = BPlusTree(branching=4)
        for i in range(200):
            tree.insert((i * 37 % 199, i))
        tree.check_invariants()
        assert tree.height > 1

    def test_branching_validation(self):
        with pytest.raises(ValueError):
            BPlusTree(branching=2)

    @given(row_lists)
    @settings(max_examples=50)
    def test_matches_set_semantics(self, rows):
        tree = BPlusTree(branching=4)
        for row in rows:
            tree.insert(row)
        assert list(tree) == sorted(set(rows))
        tree.check_invariants()


class TestBulkBuild:
    def test_bulk_matches_insertion(self):
        rows = sorted({(i % 17, i % 5) for i in range(100)})
        bulk = BPlusTree.bulk_build(rows, branching=4)
        assert list(bulk) == rows
        bulk.check_invariants()

    def test_bulk_build_empty(self):
        tree = BPlusTree.bulk_build([])
        assert len(tree) == 0
        assert list(tree) == []

    def test_bulk_build_cheaper_than_insertion(self):
        """The paper's premise: preprocessing (bulk) is cheap, building on
        the fly (per-tuple inserts) is not."""
        rows = sorted({(i, i * 7 % 1000) for i in range(2000)})
        bulk = BPlusTree.bulk_build(rows, branching=16)
        incremental = BPlusTree(branching=16)
        for row in rows:
            incremental.insert(row)
        assert bulk.node_visits < incremental.node_visits / 3


class TestSearch:
    def _tree(self):
        tree = BPlusTree(branching=4)
        for i in range(0, 100, 2):
            tree.insert((i, i + 1))
        return tree

    def test_seek_leaf_exact(self):
        tree = self._tree()
        leaf, slot = tree.seek_leaf((10, 11))
        assert leaf.keys[slot] == (10, 11)

    def test_seek_leaf_between(self):
        tree = self._tree()
        leaf, slot = tree.seek_leaf((11, 0))
        assert leaf.keys[slot] == (12, 13)

    def test_seek_leaf_past_end(self):
        tree = self._tree()
        leaf, _ = tree.seek_leaf((1000, 0))
        assert leaf is None

    def test_finger_seek_forward_is_cheap(self):
        """Monotone forward seeks should touch O(1) nodes amortized —
        the amortized-O(1) property the paper credits LFTJ with."""
        tree = self._tree()
        leaf, slot = tree.seek_leaf((0, 0))
        before = tree.node_visits
        for target in range(0, 100, 2):
            leaf, slot = tree.finger_seek(leaf, slot, (target, 0))
            assert leaf.keys[slot][0] == target
        forward_cost = tree.node_visits - before

        before = tree.node_visits
        for target in range(0, 100, 2):
            tree.seek_leaf((target, 0))
        descent_cost = tree.node_visits - before
        assert forward_cost < descent_cost

    def test_finger_seek_falls_back_on_long_jumps(self):
        tree = self._tree()
        leaf, slot = tree.seek_leaf((0, 0))
        leaf, slot = tree.finger_seek(leaf, slot, (98, 0))
        assert leaf.keys[slot] == (98, 99)

    @given(row_lists, st.tuples(st.integers(0, 31), st.integers(0, 31)))
    @settings(max_examples=60)
    def test_seek_postcondition(self, rows, target):
        tree = BPlusTree(branching=4)
        for row in rows:
            tree.insert(row)
        leaf, slot = tree.seek_leaf(target)
        geq = sorted(row for row in set(rows) if row >= target)
        if geq:
            assert leaf.keys[slot] == geq[0]
        else:
            assert leaf is None
