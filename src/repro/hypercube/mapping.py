"""Tuple-to-server routing for the HyperCube shuffle (paper Sec. 2.1).

Each server is identified with a point of the hypercube
``[p_1] x ... x [p_k]``.  A tuple of atom ``S_j`` fixes the coordinates of
the dimensions whose variable occurs in ``S_j`` (to ``h_i(value)``) and is
replicated along every other dimension ("if the coordinate in a dimension is
undefined, we do not set any constraint on it").
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from ..engine.kernels import dim_hash
from ..query.atoms import Atom, Variable
from .config import HyperCubeConfig

_MASK = 0xFFFFFFFF


class HyperCubeMapping:
    """Routes tuples to hypercube coordinates for a fixed configuration.

    Hash functions are chosen independently per dimension (seeded salts,
    multiplicative hashing) as the algorithm requires.
    """

    def __init__(self, config: HyperCubeConfig, seed: int = 0) -> None:
        self.config = config
        self.order = config.order
        self.dims = [config.dims[v] for v in self.order]
        rng = np.random.default_rng(seed)
        self._salts = [int(s) for s in rng.integers(1, _MASK, size=len(self.order))]
        # row-major strides for linearizing coordinates into worker ids
        strides = []
        stride = 1
        for dim in reversed(self.dims):
            strides.append(stride)
            stride *= dim
        self._strides = list(reversed(strides))
        self.workers_used = config.workers_used

    def hash_value(self, dim_index: int, value: int) -> int:
        return dim_hash(value, self._salts[dim_index], self.dims[dim_index])

    def worker_of(self, coordinate: Sequence[int]) -> int:
        return sum(c * s for c, s in zip(coordinate, self._strides))

    def coordinate_of(self, worker: int) -> tuple[int, ...]:
        coordinate = []
        for stride, dim in zip(self._strides, self.dims):
            coordinate.append((worker // stride) % dim)
        return tuple(coordinate)

    def _atom_dim_positions(self, atom: Atom) -> list[tuple[int, int]]:
        """(dimension index, attribute position) pairs for the atom's
        variables that own a hypercube dimension."""
        pairs = []
        for dim_index, variable in enumerate(self.order):
            positions = atom.positions_of(variable)
            if positions:
                pairs.append((dim_index, positions[0]))
        return pairs

    def replication_of(self, atom: Atom) -> int:
        """Number of servers every tuple of this atom is copied to."""
        bound_dims = {dim_index for dim_index, _ in self._atom_dim_positions(atom)}
        copies = 1
        for dim_index, dim in enumerate(self.dims):
            if dim_index not in bound_dims:
                copies *= dim
        return copies

    def destinations(self, atom: Atom, row: Sequence[int]) -> Iterator[int]:
        """Worker ids that must receive this tuple of ``atom``."""
        pairs = self._atom_dim_positions(atom)
        bound = {dim_index: self.hash_value(dim_index, row[position])
                 for dim_index, position in pairs}
        free_axes = [
            range(dim) if dim_index not in bound else (bound[dim_index],)
            for dim_index, dim in enumerate(self.dims)
        ]
        for coordinate in itertools.product(*free_axes):
            yield self.worker_of(coordinate)

    def frame_routing(
        self, atom: Atom, frame_variables: Sequence[Variable]
    ) -> tuple[list[tuple[int, int, int, int]], list[int]]:
        """The atom's routing spec against a frame's column layout, for
        :func:`~repro.engine.kernels.hypercube_partition`.

        Returns ``(bound, offsets)``: one ``(frame column, salt, dim,
        stride)`` entry per hypercube dimension whose variable the atom
        binds, and the worker-id offsets of the replication targets over
        the unconstrained dimensions, enumerated in the same
        ``itertools.product`` order as :meth:`destinations` so both routing
        paths emit copies in the same order.
        """
        frame_index = {variable: i for i, variable in enumerate(frame_variables)}
        bound: list[tuple[int, int, int, int]] = []
        constrained: set[int] = set()
        for dim_index, variable in enumerate(self.order):
            if atom.positions_of(variable):
                bound.append((
                    frame_index[variable],
                    self._salts[dim_index],
                    self.dims[dim_index],
                    self._strides[dim_index],
                ))
                constrained.add(dim_index)
        free_axes = [
            (0,) if dim_index in constrained else range(dim)
            for dim_index, dim in enumerate(self.dims)
        ]
        offsets = [
            sum(c * s for c, s in zip(coordinate, self._strides))
            for coordinate in itertools.product(*free_axes)
        ]
        return bound, offsets
