"""The LFTJ trie-iterator API over sorted arrays (paper Sec. 2.2).

LogicBlox's Leapfrog Triejoin assumes each relation is stored in a B-tree
whose levels correspond to attributes.  The paper's Tributary join instead
sorts each (post-shuffle) fragment and implements the same API with binary
search: ``seek`` costs ``O(log n)`` per call instead of amortized ``O(1)``,
which keeps the join worst-case optimal up to a log factor.

The API, following Veldhuizen:

- ``open()``  — descend to the first key of the next attribute level;
- ``up()``    — return to the previous level;
- ``key()``   — the current key at the current level;
- ``next()``  — advance to the next *distinct* key at this level;
- ``seek(v)`` — least key ``>= v`` at this level (the binary search);
- ``at_end`` — no further keys at this level within the parent's range.

Every ``seek``/``next`` is counted in :attr:`TrieIterator.seeks`, the unit
of the Sec. 5 cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage.sorted import SortedRelation


@dataclass
class _Level:
    """Open state for one trie level: the parent range and cursor position."""

    lo: int  # parent range start (rows sharing the prefix above this level)
    hi: int  # parent range end
    position: int  # start of the current key's block
    block_end: int  # end of the current key's block


class TrieIterator:
    """A trie cursor over a :class:`SortedRelation`'s key columns."""

    def __init__(self, relation: SortedRelation) -> None:
        self.relation = relation
        self.max_depth = len(relation.order)
        self._levels: list[_Level] = []
        self.at_end = len(relation) == 0
        self.seeks = 0  # binary searches performed (cost-model unit)

    @property
    def depth(self) -> int:
        """Current trie depth: 0 = before any level is open."""
        return len(self._levels)

    def _parent_range(self) -> tuple[int, int]:
        if not self._levels:
            return 0, len(self.relation)
        top = self._levels[-1]
        return top.position, top.block_end

    def open(self) -> None:
        """Descend to the first key of the next attribute level."""
        if self.depth >= self.max_depth:
            raise RuntimeError("cannot open below the deepest key level")
        lo, hi = self._parent_range()
        if lo >= hi:
            raise RuntimeError("cannot open an empty range")
        depth = self.depth
        block_end = self.relation.upper_bound(
            depth, self.relation.key_at(depth, lo), lo, hi
        )
        self.seeks += 1
        self._levels.append(_Level(lo=lo, hi=hi, position=lo, block_end=block_end))
        self.at_end = False

    def up(self) -> None:
        """Ascend one level, restoring the parent cursor."""
        if not self._levels:
            raise RuntimeError("already at the root")
        self._levels.pop()
        self.at_end = False

    def key(self) -> int:
        """The current key at the current level."""
        if not self._levels or self.at_end:
            raise RuntimeError("no current key")
        level = self._levels[-1]
        return self.relation.key_at(len(self._levels) - 1, level.position)

    def next(self) -> None:
        """Advance to the next distinct key at this level."""
        level = self._levels[-1]
        depth = len(self._levels) - 1
        level.position = level.block_end
        if level.position >= level.hi:
            self.at_end = True
            return
        level.block_end = self.relation.upper_bound(
            depth, self.relation.key_at(depth, level.position), level.position, level.hi
        )
        self.seeks += 1

    def seek(self, value: int) -> None:
        """Position at the least key ``>= value`` (binary search)."""
        level = self._levels[-1]
        depth = len(self._levels) - 1
        position = self.relation.lower_bound(depth, value, level.position, level.hi)
        self.seeks += 1
        if position >= level.hi:
            level.position = position
            self.at_end = True
            return
        level.position = position
        level.block_end = self.relation.upper_bound(
            depth, self.relation.key_at(depth, position), position, level.hi
        )
        self.seeks += 1
