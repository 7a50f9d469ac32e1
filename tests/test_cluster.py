"""Tests for the simulated cluster."""

import pytest

from repro.engine.cluster import Cluster
from repro.engine.frame import atom_frame
from repro.query.parser import parse_query
from repro.storage.relation import Database


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

    def test_fragment_relation_view(self):
        cluster = Cluster(2)
        cluster.load(make_db(4))
        fragment = cluster.fragment_relation("R", 1)
        assert fragment.columns == ("a", "b")
        assert fragment.rows == [(1, 2), (3, 4)]

    def test_fragment_relation_shares_the_fragment_and_a_scan_leaves_it_alone(self):
        """``fragment_relation`` runs once per worker, atom and query, over
        rows the database validated when it was built: it neither copies nor
        re-checks them, and the frame a scan hands out is the scan's own."""
        cluster = Cluster(2)
        cluster.load(make_db(6))
        fragment = cluster.fragments("R")[1]
        snapshot = list(fragment)
        relation = cluster.fragment_relation("R", 1)
        assert relation.rows is fragment
        assert (relation.name, relation.columns) == ("R", ("a", "b"))
        atom = parse_query("Q(x,y) :- R(x,y).").atoms[0]
        frame = atom_frame(atom, relation, cluster.encoder())
        assert frame.rows == snapshot and frame.rows is not fragment
        assert fragment == snapshot and cluster.fragments("R")[1] is fragment

    def test_unknown_relation(self):
        cluster = Cluster(2)
        cluster.load(make_db())
        with pytest.raises(KeyError, match="not loaded"):
            cluster.fragments("missing")

    def test_requires_at_least_one_worker(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_encoder_requires_loaded_database(self):
        cluster = Cluster(2)
        with pytest.raises(RuntimeError):
            cluster.encoder()

    def test_reload_replaces_fragments(self):
        cluster = Cluster(2)
        cluster.load(make_db(4))
        cluster.load(make_db(6))
        assert sum(len(f) for f in cluster.fragments("R")) == 6

    def test_single_worker_holds_everything(self):
        cluster = Cluster(1)
        cluster.load(make_db(5))
        assert len(cluster.fragments("R")[0]) == 5
