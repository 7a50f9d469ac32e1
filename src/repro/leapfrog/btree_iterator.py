"""The LFTJ trie-iterator API over a B+-tree — the LogicBlox variant.

Together with :class:`~repro.storage.btree.BPlusTree` this reproduces the
implementation the paper compares its Tributary join against: ``seek`` uses
finger search from the current position, so monotone scans touch O(1) nodes
amortized instead of the sorted-array implementation's O(log n) binary
search.  The trade-off the paper exploits is on the *build* side: the tree
must exist before the join, and building it tuple-at-a-time after a shuffle
costs more than sorting (see ``benchmarks/test_btree_vs_sort.py``).
"""

from __future__ import annotations

from typing import Optional

from ..query.atoms import Atom
from ..storage.btree import BPlusTree, _Node
from ..storage.relation import Relation
from .tributary import Encoder, TributaryJoin, _PreparedAtom, select_atom

#: sentinel smaller than any value ever stored in a tuple position
_NEG = -(2**62)


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
