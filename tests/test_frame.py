"""Tests for variable-labelled frames and the atom scan."""

import pytest

from repro.engine.frame import Frame, atom_frame, frame_relation
from repro.query.atoms import Atom, Constant, Variable
from repro.storage.relation import Database, Relation

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


class TestFrame:
    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError):
            Frame((X, X), [])

    def test_index_lookup(self):
        frame = Frame((X, Y), [(1, 2)])
        assert frame.index_of(Y) == 1
        assert frame.indices_of([Y, X]) == (1, 0)
        with pytest.raises(KeyError):
            frame.index_of(Z)

    def test_project(self):
        frame = Frame((X, Y), [(1, 2), (1, 3)])
        projected = frame.project([X])
        assert projected.variables == (X,)
        assert projected.rows == [(1,), (1,)]

    def test_project_dedup(self):
        frame = Frame((X, Y), [(1, 2), (1, 3)])
        assert frame.project([X], dedup=True).rows == [(1,)]


class TestAtomFrame:
    def _encoder(self):
        return Database().encode

    def test_plain_scan_relabels_columns(self):
        relation = Relation("R", ("a", "b"), [(1, 2)])
        frame = atom_frame(Atom("R", (X, Y)), relation, self._encoder())
        assert frame.variables == (X, Y)
        assert frame.rows == [(1, 2)]

    def test_constant_selection(self):
        relation = Relation("R", ("a", "b"), [(1, 2), (3, 4)])
        frame = atom_frame(Atom("R", (Constant(3), Y)), relation, self._encoder())
        assert frame.variables == (Y,)
        assert frame.rows == [(4,)]

    def test_string_constant_uses_encoder(self):
        db = Database()
        db.add_encoded("Name", ("id", "name"), [(1, "joe"), (2, "bob")])
        frame = atom_frame(
            Atom("Name", (X, Constant("joe"))), db["Name"], db.encode
        )
        assert frame.rows == [(1,)]

    def test_repeated_variable_filters_equal_columns(self):
        relation = Relation("R", ("a", "b"), [(1, 1), (1, 2), (5, 5)])
        frame = atom_frame(Atom("R", (X, X)), relation, self._encoder())
        assert frame.variables == (X,)
        assert frame.rows == [(1,), (5,)]

    def test_variable_order_follows_first_occurrence(self):
        relation = Relation("R", ("a", "b", "c"), [(1, 2, 3)])
        frame = atom_frame(Atom("R", (Y, X, Z)), relation, self._encoder())
        assert frame.variables == (Y, X, Z)
        assert frame.rows == [(1, 2, 3)]


def test_frame_relation_roundtrip():
    frame = Frame((X, Y), [(1, 2), (3, 4)])
    relation = frame_relation(frame, "I")
    assert relation.columns == ("x", "y")
    assert relation.rows == frame.rows
