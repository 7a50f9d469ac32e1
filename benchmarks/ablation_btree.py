"""Sorted arrays vs B-trees for the LFTJ API — the Sec. 2.2 ablation.

The paper's Sec. 2.2 contrasts two implementations of the Leapfrog Triejoin
API: LogicBlox stores each relation in a B-tree, giving amortized O(1)
``seek``; the paper's Tributary join cannot preprocess (fragments only
exist after the shuffle), so it sorts arrays instead, arguing that
"sorting on the fly is cheaper than computing a B-tree on the fly".

This module is the B-tree side of that comparison, kept out of the engine
because no query plan reaches it:

- :class:`BPlusTree` — a textbook B+-tree with leaf chaining,
  tuple-at-a-time insertion (the "on the fly" build whose cost the paper
  rejects), bulk loading from sorted data (the preprocessing LogicBlox
  assumes), and finger-based search that makes monotone forward seeks
  amortized O(1).  All node visits are counted so benchmarks can weigh
  build and probe costs against the sorted-array implementation.
- :class:`BTreeTrieIterator` — the trie-iterator API over such a tree.
- :class:`BTreeTributaryJoin` — the Tributary join walking B-trees instead
  of sorted arrays.

``test_btree_vs_sort.py`` and ``test_wcoj_variants.py`` beside it measure
the trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.leapfrog.tributary import (
    Encoder,
    TributaryJoin,
    _PreparedAtom,
    select_atom,
)
from repro.query.atoms import Atom
from repro.storage.relation import Relation

Row = tuple[int, ...]

#: sentinel smaller than any value ever stored in a tuple position
_NEG = -(2**62)



@dataclass
class _Node:
    is_leaf: bool
    keys: list[Row] = field(default_factory=list)
    #: children for internal nodes (len(keys) + 1 of them)
    children: list["_Node"] = field(default_factory=list)
    next_leaf: Optional["_Node"] = None
    parent: Optional["_Node"] = None

    def max_key(self) -> Row:
        if self.is_leaf:
            return self.keys[-1]
        return self.children[-1].max_key()


class BPlusTree:
    """A B+-tree storing distinct int tuples in lexicographic order.

    ``branching`` bounds the number of keys per node; ``node_visits`` counts
    every node touched by searches, insertions, and bulk loading — the cost
    unit for the sort-vs-btree comparison.
    """

    def __init__(self, branching: int = 32) -> None:
        if branching < 4:
            raise ValueError("branching factor must be at least 4")
        self.branching = branching
        self.root: _Node = _Node(is_leaf=True)
        self.size = 0
        self.node_visits = 0
        self.height = 1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def insert(self, row: Row) -> bool:
        """Tuple-at-a-time insertion ("computing a B-tree on the fly").

        Returns False (and changes nothing) for duplicates.
        """
        leaf = self._descend_to_leaf(row)
        index = _lower_bound(leaf.keys, row)
        if index < len(leaf.keys) and leaf.keys[index] == row:
            return False
        leaf.keys.insert(index, row)
        self.size += 1
        if len(leaf.keys) > self.branching:
            self._split(leaf)
        return True

    @classmethod
    def bulk_build(cls, sorted_rows: Iterable[Row], branching: int = 32) -> "BPlusTree":
        """Bottom-up bulk load from sorted, distinct rows (preprocessing)."""
        tree = cls(branching=branching)
        rows = list(sorted_rows)
        if not rows:
            return tree
        half = max(2, branching // 2)
        leaves: list[_Node] = []
        for start in range(0, len(rows), half):
            leaf = _Node(is_leaf=True, keys=rows[start : start + half])
            if leaves:
                leaves[-1].next_leaf = leaf
            leaves.append(leaf)
            tree.node_visits += 1
        level = leaves
        height = 1
        while len(level) > 1:
            parents: list[_Node] = []
            for start in range(0, len(level), half):
                group = level[start : start + half]
                parent = _Node(
                    is_leaf=False,
                    keys=[child.max_key() for child in group[:-1]],
                    children=group,
                )
                for child in group:
                    child.parent = parent
                parents.append(parent)
                tree.node_visits += 1
            level = parents
            height += 1
        tree.root = level[0]
        tree.size = len(rows)
        tree.height = height
        return tree

    def _descend_to_leaf(self, row: Row) -> _Node:
        node = self.root
        self.node_visits += 1
        while not node.is_leaf:
            # separators are left-subtree maxima: rows <= keys[i] belong to
            # child i, so route with lower_bound (first separator >= row)
            index = _lower_bound(node.keys, row)
            node = node.children[min(index, len(node.children) - 1)]
            self.node_visits += 1
        return node

    def _split(self, node: _Node) -> None:
        middle = len(node.keys) // 2
        if node.is_leaf:
            right = _Node(is_leaf=True, keys=node.keys[middle:])
            right.next_leaf = node.next_leaf
            node.next_leaf = right
            node.keys = node.keys[:middle]
            separator = node.keys[-1]
        else:
            right = _Node(
                is_leaf=False,
                keys=node.keys[middle + 1 :],
                children=node.children[middle + 1 :],
            )
            for child in right.children:
                child.parent = right
            separator = node.keys[middle]
            node.keys = node.keys[:middle]
            node.children = node.children[: middle + 1]
        self.node_visits += 2
        parent = node.parent
        if parent is None:
            new_root = _Node(
                is_leaf=False, keys=[separator], children=[node, right]
            )
            node.parent = new_root
            right.parent = new_root
            self.root = new_root
            self.height += 1
            return
        right.parent = parent
        index = _upper_bound(parent.keys, separator)
        parent.keys.insert(index, separator)
        parent.children.insert(index + 1, right)
        if len(parent.keys) > self.branching:
            self._split(parent)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def first_leaf(self) -> Optional[_Node]:
        """The leftmost leaf (``None`` when empty), counting node visits."""
        if self.size == 0:
            return None
        node = self.root
        self.node_visits += 1
        while not node.is_leaf:
            node = node.children[0]
            self.node_visits += 1
        return node

    def seek_leaf(self, target: Row) -> tuple[Optional[_Node], int]:
        """(leaf, slot) of the least row >= target, or (None, 0) at end."""
        node = self.root
        self.node_visits += 1
        while not node.is_leaf:
            index = _lower_bound(node.keys, target)
            node = node.children[min(index, len(node.children) - 1)]
            self.node_visits += 1
        index = _lower_bound(node.keys, target)
        if index == len(node.keys):
            node = node.next_leaf
            if node is None:
                return None, 0
            self.node_visits += 1
            index = 0
        return node, index

    def finger_seek(
        self, leaf: Optional[_Node], slot: int, target: Row
    ) -> tuple[Optional[_Node], int]:
        """Seek forward from a current position (the amortized-O(1) path).

        If the target lies within the current or the immediately following
        leaf, no root descent happens — this is what makes monotone LFTJ
        scans cheap on a B-tree.  Otherwise falls back to a root descent.
        """
        if leaf is None:
            return self.seek_leaf(target)
        for _ in range(2):  # current leaf, then its successor
            self.node_visits += 1
            if leaf.keys and leaf.keys[-1] >= target:
                index = _lower_bound(leaf.keys, target, lo=slot)
                if index < len(leaf.keys):
                    return leaf, index
            slot = 0
            if leaf.next_leaf is None:
                return None, 0
            leaf = leaf.next_leaf
        return self.seek_leaf(target)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Row]:
        leaf = self.first_leaf()
        while leaf is not None:
            yield from leaf.keys
            leaf = leaf.next_leaf

    def check_invariants(self) -> None:
        """Validate ordering, balance, and leaf chaining (for tests)."""
        rows = list(self)
        assert rows == sorted(rows), "leaf chain out of order"
        assert len(rows) == self.size, "size mismatch"

        def depth_of(node: _Node) -> set[int]:
            if node.is_leaf:
                return {1}
            depths = set()
            for child in node.children:
                depths |= {d + 1 for d in depth_of(child)}
            return depths

        assert len(depth_of(self.root)) == 1, "tree not balanced"


def _lower_bound(keys: list[Row], target: Row, lo: int = 0) -> int:
    hi = len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _upper_bound(keys: list[Row], target: Row) -> int:
    lo, hi = 0, len(keys)
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid] <= target:
            lo = mid + 1
        else:
            hi = mid
    return lo


class BTreeTrieIterator:
    """A trie cursor over a B+-tree of fixed-width key tuples.

    Implements the same API as
    :class:`~repro.leapfrog.iterator.TrieIterator`: ``open``/``up``/
    ``key``/``next``/``seek``/``at_end``, with ``seeks`` counting the seek
    operations issued (node-level work accumulates on ``tree.node_visits``).

    State: ``_open_levels`` trie levels are open; the current key of level
    ``L`` is column ``L-1`` of the current tuple; the keys of levels
    ``1..L-1`` are fixed and stored in ``_prefix``.
    """

    def __init__(self, tree: BPlusTree, key_depth: int) -> None:
        self.tree = tree
        self.max_depth = key_depth
        self._open_levels = 0
        self._prefix: list[int] = []
        self._saved: list[tuple[Optional[_Node], int, bool]] = []
        self._leaf: Optional[_Node] = tree.first_leaf() if len(tree) else None
        self._slot = 0
        self.at_end = len(tree) == 0
        self.seeks = 0

    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of open trie levels (0 = nothing open yet)."""
        return self._open_levels

    def _current(self) -> tuple[int, ...]:
        assert self._leaf is not None
        return self._leaf.keys[self._slot]

    def _matches_prefix(self) -> bool:
        if self._leaf is None:
            return False
        row = self._current()
        return list(row[: len(self._prefix)]) == self._prefix

    def open(self) -> None:
        """Descend to the first key of the next attribute level."""
        if self._open_levels >= self.max_depth:
            raise RuntimeError("cannot open below the deepest key level")
        if self._open_levels > 0:
            if self.at_end:
                raise RuntimeError("cannot open at end")
            self._prefix.append(self.key())
        elif self._leaf is None:
            raise RuntimeError("cannot open an empty tree")
        self._saved.append((self._leaf, self._slot, self.at_end))
        self._open_levels += 1
        self.at_end = False

    def up(self) -> None:
        """Ascend one level, restoring the parent position."""
        if self._open_levels == 0:
            raise RuntimeError("already at the root")
        self._leaf, self._slot, self.at_end = self._saved.pop()
        self._open_levels -= 1
        if self._prefix:
            self._prefix.pop()

    def key(self) -> int:
        """The current key at the current level."""
        if self._open_levels == 0:
            raise RuntimeError("no level open")
        if self.at_end or self._leaf is None:
            raise RuntimeError("no current key")
        return self._current()[self._open_levels - 1]

    def _seek_tuple(self, target: tuple[int, ...]) -> None:
        self.seeks += 1
        self._leaf, self._slot = self.tree.finger_seek(
            self._leaf, self._slot, target
        )
        self.at_end = self._leaf is None or not self._matches_prefix()

    def _pad(self, value: int) -> tuple[int, ...]:
        """Least possible tuple extending the prefix with ``value``."""
        padding = self.max_depth - self._open_levels
        return tuple(self._prefix) + (value,) + (_NEG,) * padding

    def next(self) -> None:
        """Advance to the next distinct key at this level."""
        current = self.key()
        self._seek_tuple(self._pad(current + 1))

    def seek(self, value: int) -> None:
        """Position at the least key ``>= value`` at this level."""
        if self._open_levels == 0:
            raise RuntimeError("no level open")
        if self.at_end:
            raise RuntimeError("seek past the end")
        self._seek_tuple(self._pad(value))


class BTreeTributaryJoin(TributaryJoin):
    """The Tributary join walking B+-trees instead of sorted arrays — the
    LogicBlox layout, kept for the Sec. 2.2 comparison (it always takes the
    scalar walk; ``stats.sort_cost`` counts build node visits)."""

    def _walks_batched(self) -> bool:
        """Never: the batched walk reads sorted arrays, which a B-tree
        join does not build."""
        return False

    def _prepare_atom(
        self, atom: Atom, relation: Relation, encoder: Encoder
    ) -> _PreparedAtom:
        """Index one atom by tuple-at-a-time insertion: the "on the fly"
        build the paper rejects as more expensive than sorting."""
        filtered, key_variables, key_positions = select_atom(
            atom, relation, self.order, encoder
        )
        tree = BPlusTree()
        for row in filtered.rows:
            tree.insert(tuple(row[p] for p in key_positions))
        return _PreparedAtom(
            atom,
            BTreeTrieIterator(tree, key_depth=len(key_variables)),
            key_variables,
            size=len(tree),
            prepare_cost=tree.node_visits,
        )
