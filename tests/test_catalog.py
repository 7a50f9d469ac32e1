"""Tests for the statistics catalog."""

import pytest

from repro.engine import kernels
from repro.engine.cluster import Cluster
from repro.engine.frame import atom_frame
from repro.query.atoms import Atom, Constant, Variable
from repro.query.catalog import Catalog, cardinalities_for
from repro.query.parser import parse_query
from repro.storage.relation import Database

X, Y = Variable("x"), Variable("y")


def make_db():
    db = Database()
    db.add_rows(
        "R", ("a", "b"),
        [(1, 10), (1, 20), (2, 10), (2, 10), (3, 30)],
    )
    db.add_encoded("Name", ("id", "name"), [(1, "joe"), (2, "bob"), (3, "joe")])
    return db


class TestCardinality:
    def test_relation_cardinality(self):
        catalog = Catalog(make_db())
        assert catalog.cardinality("R") == 5

    def test_atom_cardinalities_share_base_size(self):
        query = parse_query("Q(x,y,z) :- R1:R(x,y), R2:R(y,z).")
        catalog = Catalog(make_db())
        cards = catalog.atom_cardinalities(query)
        assert cards == {"R1": 5, "R2": 5}

    def test_atom_cardinality_applies_constants(self):
        catalog = Catalog(make_db())
        atom = Atom("R", (Constant(1), Y))
        assert catalog.atom_cardinality(atom) == 2

    def test_atom_cardinality_with_string_constant(self):
        catalog = Catalog(make_db())
        atom = Atom("Name", (X, Constant("joe")))
        assert catalog.atom_cardinality(atom) == 2


class TestDistinctCounts:
    def test_distinct_values(self):
        catalog = Catalog(make_db())
        assert catalog.distinct_values("R", 0) == 3
        assert catalog.distinct_values("R", 1) == 3

    def test_distinct_prefix_pairs(self):
        catalog = Catalog(make_db())
        assert catalog.distinct_prefix("R", (0, 1)) == 4

    def test_empty_prefix(self):
        catalog = Catalog(make_db())
        assert catalog.distinct_prefix("R", ()) == 1

    def test_caching_returns_same_value(self):
        catalog = Catalog(make_db())
        first = catalog.distinct_prefix("R", (0,))
        second = catalog.distinct_prefix("R", (0,))
        assert first == second == 3

    def test_atom_prefix_count_positions_with_constants(self):
        catalog = Catalog(make_db())
        atom = Atom("R", (Constant(1), Y))
        # rows with a=1: (1,10), (1,20) -> 2 distinct b values at position 1
        assert catalog.atom_prefix_count_positions(atom, (1,)) == 2

    def test_atom_prefix_count_empty_positions(self):
        catalog = Catalog(make_db())
        atom = Atom("R", (X, Y))
        assert catalog.atom_prefix_count_positions(atom, ()) == 1


def test_cardinalities_for_pushes_selections():
    db = make_db()
    query = parse_query('Q(x) :- Name(x, "joe"), R(x, y).')
    cards = cardinalities_for(query, db)
    assert cards["Name"] == 2
    assert cards["R"] == 5


def test_cardinalities_for_never_returns_zero():
    db = make_db()
    query = parse_query('Q(x) :- Name(x, "missing"), R(x, y).')
    cards = cardinalities_for(query, db)
    assert cards["Name"] == 1  # clamped so the LPs stay well-defined


class TestSelectionsMatchTheScan:
    """The catalog keeps the rows an atom's scan keeps: its constants and
    its repeated variables alike."""

    @staticmethod
    def _db():
        db = make_db()
        db.add_rows(
            "T", ("a", "b", "c"),
            [(1, 1, 5), (1, 1, 6), (1, 2, 5), (4, 4, 5), (7, 7, 7), (2, 2, 5)],
        )
        return db

    @staticmethod
    def _scanned(atom, db, backend):
        cluster = Cluster(3)
        cluster.load(db)
        relation = db[atom.relation]
        with kernels.use_backend(backend):
            return sum(
                len(atom_frame(atom, relation.with_rows(fragment), db.encode))
                for fragment in cluster.fragments(atom.relation)
            )

    @pytest.mark.parametrize(
        "text, kept",
        [
            ("Q(x) :- R(x, x).", 0),
            ("Q(x) :- T(x, x, 5).", 3),
            ("Q(x, z) :- T(x, x, z).", 5),
            ("Q(x) :- T(x, x, x).", 1),
        ],
    )
    def test_atom_cardinality_is_the_scanned_row_count(self, text, kept):
        db = self._db()
        atom = parse_query(text).atoms[0]
        assert Catalog(db).atom_cardinality(atom) == kept
        for backend in kernels.KERNEL_BACKENDS:
            assert self._scanned(atom, db, backend) == kept

    def test_repeated_variables_get_their_own_cache_entries(self):
        catalog = Catalog(self._db())
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        assert catalog.atom_cardinality(Atom("T", (x, x, z))) == 5
        assert catalog.atom_cardinality(Atom("T", (x, y, z))) == 6
        assert catalog.atom_prefix_count_positions(Atom("T", (x, x, z)), (2,)) == 3
        assert catalog.atom_prefix_count_positions(Atom("T", (x, y, z)), (2,)) == 3
        assert catalog.atom_max_group(Atom("T", (y, y, x)), (2,)) == 3
        assert catalog.atom_max_group(Atom("T", (x, y, z)), (2,)) == 4
