"""Benchmark datasets: the repo's generators plus a seeded isomorphic relabelling.

Every dataset is one the workload registry builds (``repro.workloads.registry``,
its own sizes and generator seeds), put through a bijection drawn from
``--seed``: every entity id is renamed and every relation's rows are
reordered.  Hash partitions, HyperCube cells, sort orders and per-worker
balance all move with the seed; cardinalities, degrees and result counts do
not.

Why not redraw the graphs per seed: that moves the counted work by 3-22 %
seed to seed (Q1 results 17.7k-18.8k, Q8 RS_HJ counted wall 86k-133k over six
seeds), several times the bounds this benchmark gates on.  An isomorphic
instance keeps the work comparable *and* lets every seed be verified against
one set of goldens: mapping result ids back through the bijection must
reproduce the generator's own rows exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.storage.relation import Database, Relation
from repro.workloads import registry

#: the registry's own datasets, by the name of their builder; none is
#: resized.  Q1 runs on ``twitter_bench``, Q6 on ``twitter_bench_small``; the
#: service answers the unit-scale ones.
BUILDERS = {
    builder.__name__: builder
    for builder in (
        registry.twitter_bench, registry.twitter_bench_small,
        registry.twitter_unit, registry.freebase_unit,
    )
}

#: what ``--smoke`` substitutes so the self-test finishes in seconds
SMOKE_SHAPES = {
    "twitter_bench": "twitter_unit",
    "twitter_bench_small": "twitter_unit",
}

#: columns that do not hold entity ids and are therefore never renamed
#: (dictionary-encoded strings and years are compared against constants)
VALUE_COLUMNS = frozenset({"name", "year"})


class Relabelling:
    """A seeded bijection over the entity ids of one database."""

    def __init__(self, ids: np.ndarray, seed: int) -> None:
        self.original = np.sort(ids)
        rng = np.random.default_rng(seed)
        self.renamed = self.original[rng.permutation(self.original.size)]
        order = np.argsort(self.renamed)
        self._renamed_sorted = self.renamed[order]
        self._original_by_renamed = self.original[order]

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Generator ids to this seed's ids."""
        return self.renamed[np.searchsorted(self.original, values)]

    def backward(self, values: np.ndarray) -> np.ndarray:
        """This seed's ids back to the generator's ids."""
        return self._original_by_renamed[
            np.searchsorted(self._renamed_sorted, values)
        ]


@dataclass
class Dataset:
    """One generated database and how to read its results canonically."""

    database: Database
    relabelling: Relabelling
    #: seconds inside the repo's generator (the relabelling is not counted)
    generator_seconds: float
    rows: int


def _relabel(database: Database, seed: int) -> Relabelling:
    """Rename ids and reorder rows of ``database`` in place."""
    tables = {
        name: np.asarray(relation.rows, dtype=np.int64)
        for name, relation in database.relations().items()
    }
    id_columns = {
        name: [
            position
            for position, column in enumerate(database[name].columns)
            if column not in VALUE_COLUMNS
        ]
        for name in tables
    }
    relabelling = Relabelling(
        np.unique(np.concatenate(
            [tables[name][:, id_columns[name]].ravel() for name in tables]
        )),
        seed,
    )
    rng = np.random.default_rng(seed + 1)
    for name, data in tables.items():
        for position in id_columns[name]:
            data[:, position] = relabelling.forward(data[:, position])
        data = data[rng.permutation(len(data))]
        # replaced inside the same Database so its string dictionary, which
        # query constants are encoded against, is kept
        database.add(
            Relation(name, database[name].columns, map(tuple, data.tolist()))
        )
    return relabelling


def build(shape: str, seed: int) -> Dataset:
    """Generate the named dataset and relabel it by ``seed``."""
    started = time.perf_counter()
    database = BUILDERS[shape]()
    generator_seconds = time.perf_counter() - started
    relabelling = _relabel(database, seed)
    return Dataset(
        database, relabelling, generator_seconds, database.total_rows()
    )
