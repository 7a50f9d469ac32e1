"""Integral HyperCube configurations — the paper's Sec. 4 contribution.

The fractional shares of the LP cannot be used directly ("we cannot let
``p1 = p2 = p3 = 63**(1/3)`` in the real world").  This module implements:

- :func:`round_down_config` — Naïve Algorithm 1: round each fractional share
  down to an integer (possibly wasting most of the cluster);
- :func:`optimize_config` — the paper's Algorithm 1: exhaustively enumerate
  every integral configuration using at most ``N`` workers, pick the one with
  the minimum expected per-worker workload, breaking ties toward more even
  dimension sizes (more skew-resilient).

Despite being exhaustive, the enumeration is tiny in practice (the paper
reports <100 ms for N=64 even on 8-variable queries) because configurations
are divisor vectors of numbers ``<= N``; and it is made once per (variable
count, ``N``), every later call only prices the memoized configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..query.atoms import ConjunctiveQuery, Variable
from .shares import FractionalShares, expected_load, fractional_shares


@dataclass(frozen=True)
class HyperCubeConfig:
    """An integral share assignment: one dimension per join variable.

    ``dims[v]`` is the size of variable ``v``'s hypercube dimension; the
    number of workers used is the product of all dimension sizes (which may
    be less than the physical cluster size — the paper notes the optimal
    configuration "may not necessarily use all N physical machines").
    """

    query_name: str
    order: tuple[Variable, ...]
    dims: Mapping[Variable, int]

    def __post_init__(self) -> None:
        for variable, dim in self.dims.items():
            if dim < 1:
                raise ValueError(f"dimension for {variable!r} must be >= 1, got {dim}")

    @property
    def workers_used(self) -> int:
        product = 1
        for variable in self.order:
            product *= self.dims[variable]
        return product

    def dim(self, variable: Variable) -> int:
        return self.dims.get(variable, 1)

    def dim_sizes(self) -> tuple[int, ...]:
        return tuple(self.dims[variable] for variable in self.order)

    def dimensionality(self) -> int:
        """Number of non-trivial (size > 1) dimensions."""
        return sum(1 for d in self.dims.values() if d > 1)

    def __repr__(self) -> str:
        sizes = "x".join(str(self.dims[v]) for v in self.order)
        return f"HyperCubeConfig({self.query_name}: {sizes})"


def enumerate_configs(
    variables: Sequence[Variable], workers: int
) -> Iterator[tuple[int, ...]]:
    """All integral dimension-size vectors whose product is <= workers."""

    def extend(prefix: tuple[int, ...], budget: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for size in range(1, budget + 1):
            yield from extend(prefix + (size,), budget // size, remaining - 1)

    yield from extend((), workers, len(variables))


@lru_cache(maxsize=64)
def _integral_configs(count: int, workers: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Every configuration of ``count`` dimensions on ``workers``, in
    :func:`enumerate_configs` order, and their sizes as float columns (one
    row per dimension, read-only): enumerated once per shape, not on every
    :func:`optimize_config` call."""
    configs = list(enumerate_configs(range(count), workers))
    sizes = np.asarray(configs, dtype=np.float64).T
    sizes.flags.writeable = False
    return configs, sizes


def workload(
    query: ConjunctiveQuery,
    cardinalities: Mapping[str, int],
    order: Sequence[Variable],
    sizes: Sequence[int],
) -> float:
    """Expected per-worker data load of an integral configuration."""
    shares = dict(zip(order, (float(s) for s in sizes)))
    return expected_load(query, cardinalities, shares)


def optimize_config(
    query: ConjunctiveQuery,
    cardinalities: Mapping[str, int],
    workers: int,
) -> HyperCubeConfig:
    """The paper's Algorithm 1: best integral HyperCube configuration.

    Enumerates every configuration with ``nw(c) <= workers`` and keeps the
    one with minimal ``workload(c)``; among equals prefers the smaller
    maximum dimension (e.g. ``2x2x2x2`` over ``1x4x1x4``), which partitions
    each relation on more attributes and is therefore more resilient to
    value skew.
    """
    order = tuple(query.join_variables())
    if not order:
        return HyperCubeConfig(query.name, order, {})
    configs, columns = _integral_configs(len(order), workers)
    # workload(c) of every configuration at once: one array expression per
    # atom, in expected_load's operation order, so each load is the very
    # float the per-configuration call returns
    sizes_of = dict(zip(order, columns))
    loads = np.zeros(len(configs))
    for atom in query.atoms:
        divisor = np.ones(len(configs))
        for variable in atom.variables():
            if variable in sizes_of:
                divisor = divisor * sizes_of[variable]
        loads = loads + cardinalities[atom.alias] / divisor
    best_sizes: tuple[int, ...] | None = None
    best_load = float("inf")
    for sizes, load in zip(configs, loads.tolist()):
        if best_sizes is None or load < best_load - 1e-12:
            best_sizes, best_load = sizes, load
        elif abs(load - best_load) <= 1e-12 and max(sizes) < max(best_sizes):
            best_sizes, best_load = sizes, load
    assert best_sizes is not None
    return HyperCubeConfig(query.name, order, dict(zip(order, best_sizes)))


def round_down_config(
    query: ConjunctiveQuery,
    cardinalities: Mapping[str, int],
    workers: int,
    fractional: FractionalShares | None = None,
) -> HyperCubeConfig:
    """Naïve Algorithm 1: floor each fractional LP share to an integer.

    This reproduces the failure mode motivating Sec. 4: for the 4-clique on
    15 servers the fractional shares are all ``15**(1/4) ~= 1.96`` and
    rounding down collapses the cube to a single worker.
    """
    optimum = fractional or fractional_shares(query, cardinalities, workers)
    order = tuple(query.join_variables())
    dims = {v: max(1, int(optimum.share(v) + 1e-9)) for v in order}
    return HyperCubeConfig(query.name, order, dims)


def config_from_sizes(
    query: ConjunctiveQuery, sizes: Sequence[int]
) -> HyperCubeConfig:
    """Build a configuration from explicit dimension sizes (paper notation
    like "a 4x4x4 cube"), ordered by the query's join variables."""
    order = tuple(query.join_variables())
    if len(sizes) != len(order):
        raise ValueError(
            f"{query.name} has {len(order)} join variables, got {len(sizes)} sizes"
        )
    return HyperCubeConfig(query.name, order, dict(zip(order, sizes)))


def config_workload(
    query: ConjunctiveQuery,
    cardinalities: Mapping[str, int],
    config: HyperCubeConfig,
) -> float:
    """Expected per-worker load of a configuration (Algorithm 1's objective)."""
    return workload(query, cardinalities, config.order, config.dim_sizes())
