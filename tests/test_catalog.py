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
    def test_atom_cardinality_applies_constants(self):
        catalog = Catalog(make_db())
        atom = Atom("R", (Constant(1), Y))
        assert catalog.atom_cardinality(atom) == 2

    def test_atom_cardinality_with_string_constant(self):
        catalog = Catalog(make_db())
        atom = Atom("Name", (X, Constant("joe")))
        assert catalog.atom_cardinality(atom) == 2


class TestDistinctCounts:
    @pytest.mark.parametrize(
        "positions, distinct",
        [((0,), 3), ((1,), 3), ((0, 1), 4)],
        ids=["a", "b", "pairs"],
    )
    def test_distinct_values(self, positions, distinct):
        catalog = Catalog(make_db())
        # (2, 10) occurs twice: 5 rows, 4 distinct pairs
        assert catalog.atom_prefix_count_positions(Atom("R", (X, Y)), positions) == distinct

    def test_caching_returns_same_value(self):
        catalog = Catalog(make_db())
        atom = Atom("R", (X, Y))
        first = catalog.atom_prefix_count_positions(atom, (0,))
        second = catalog.atom_prefix_count_positions(atom, (0,))
        assert first == second == 3
        assert catalog.atom_cardinality(atom) == catalog.atom_cardinality(atom) == 5
        assert len(catalog._atom_prefix_cache) == len(catalog._filtered_cache) == 1

    def test_atom_prefix_count_positions_with_constants(self):
        catalog = Catalog(make_db())
        atom = Atom("R", (Constant(1), Y))
        # rows with a=1: (1,10), (1,20) -> 2 distinct b values at position 1
        assert catalog.atom_prefix_count_positions(atom, (1,)) == 2

    @pytest.mark.parametrize("first", [X, Constant(1)], ids=["plain", "selected"])
    def test_atom_prefix_count_empty_positions(self, first):
        catalog = Catalog(make_db())
        atom = Atom("R", (first, Y))
        # the empty prefix of a non-empty relation is one value
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
