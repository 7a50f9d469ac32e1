"""Tests for the simulated cluster."""

import numpy as np
import pytest

from repro.engine import kernels
from repro.engine.cluster import Cluster
from repro.storage.relation import Database, Relation


def make_db(rows=10):
    db = Database()
    db.add_rows("R", ("a", "b"), [(i, i + 1) for i in range(rows)])
    return db


class TestCluster:
    def test_round_robin_partitioning(self):
        cluster = Cluster(3)
        cluster.load(make_db(10))
        fragments = cluster.fragments("R")
        assert [len(f) for f in fragments] == [4, 3, 3]
        assert fragments[0][0] == (0, 1)
        assert fragments[1][0] == (1, 2)

    def test_fragments_cover_relation(self):
        cluster = Cluster(4)
        db = make_db(17)
        cluster.load(db)
        combined = [row for fragment in cluster.fragments("R") for row in fragment]
        assert sorted(combined) == sorted(db["R"].rows)

    def test_unknown_relation(self):
        cluster = Cluster(2)
        cluster.load(make_db())
        with pytest.raises(KeyError, match="unknown relation 'missing'"):
            cluster.fragments("missing")

    def test_requires_at_least_one_worker(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_encoder_requires_loaded_database(self):
        cluster = Cluster(2)
        with pytest.raises(RuntimeError):
            cluster.encoder()
        with pytest.raises(RuntimeError):
            cluster.fragments("R")

    def test_reload_replaces_fragments(self):
        cluster = Cluster(2)
        cluster.load(make_db(4))
        cluster.load(make_db(6))
        assert sum(len(f) for f in cluster.fragments("R")) == 6

    def test_single_worker_holds_everything(self):
        cluster = Cluster(1)
        cluster.load(make_db(5))
        assert len(cluster.fragments("R")[0]) == 5


class _Unreadable(Relation):
    """A relation whose rows must not be read."""

    @property
    def rows(self):
        raise AssertionError("the rows were read")

    def __iter__(self):
        raise AssertionError("the rows were read")


class TestDeal:
    """A Scan deals its relation when it asks, in the backend's container."""

    def _dealt(self, backend, rows=17, workers=4):
        cluster = Cluster(workers)
        database = make_db(rows)
        cluster.load(database)
        with kernels.use_backend(backend):
            return cluster, database["R"].rows, cluster.fragments("R")

    @pytest.mark.parametrize("backend", kernels.KERNEL_BACKENDS)
    @pytest.mark.parametrize("rows, workers", [(17, 4), (3, 5), (0, 3), (6, 1)])
    def test_fragments_are_the_round_robin_deal(self, backend, rows, workers):
        _, stored, fragments = self._dealt(backend, rows, workers)
        assert len(fragments) == workers
        for worker, fragment in enumerate(fragments):
            assert fragment == stored[worker::workers]
            assert list(fragment) == stored[worker::workers]

    def test_numpy_fragments_are_views_of_one_block_per_call(self):
        cluster, _, fragments = self._dealt("numpy")
        assert all(isinstance(f, kernels.ColumnBlock) for f in fragments)
        columns = [column for fragment in fragments for column in fragment.columns]
        assert not any(column.flags.owndata for column in columns)
        assert len({id(column.base) for column in columns}) == 1
        # nothing is cached: the next Scan converts the relation afresh
        with kernels.use_backend("numpy"):
            again = cluster.fragments("R")
        assert not np.shares_memory(again[0].columns[0], columns[0])
        assert again == fragments

    def test_python_fragments_are_lists(self):
        _, _, fragments = self._dealt("python")
        assert all(type(fragment) is list for fragment in fragments)

    def test_load_reads_no_rows(self):
        database = Database()
        database.add(_Unreadable("R", ("a", "b")))
        cluster = Cluster(3)
        cluster.load(database)
        assert cluster.database is database
        with pytest.raises(AssertionError, match="rows were read"):
            cluster.fragments("R")
