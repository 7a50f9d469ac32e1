"""Unit tests for relations and databases."""

import pytest

from repro.storage.relation import Database, Relation


class TestRelation:
    def test_basic_construction(self):
        relation = Relation("R", ("a", "b"), [(1, 2), (3, 4)])
        assert len(relation) == 2
        assert relation.arity == 2
        assert list(relation) == [(1, 2), (3, 4)]

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Relation("R", ("a", "b"), [(1, 2, 3)])

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Relation("R", (), [])

    def test_renamed_shares_rows(self):
        relation = Relation("R", ("a",), [(1,)])
        renamed = relation.renamed("S")
        assert renamed.name == "S"
        assert renamed.rows is relation.rows

    def test_over_rows_adopts_the_list(self):
        rows = [(1, 2), (3, 4)]
        relation = Relation.over_rows("R", ("a", "b"), rows)
        assert relation.rows is rows and relation.arity == 2

    def test_with_rows_keeps_the_schema(self):
        relation = Relation("R", ("a", "b"), [(1, 2), (3, 4)])
        subset = [relation.rows[1]]
        narrowed = relation.with_rows(subset)
        assert (narrowed.name, narrowed.columns) == ("R", ("a", "b"))
        assert narrowed.rows is subset

    def test_content_digest_follows_the_rows(self):
        relation = Relation("R", ("a",), [(1,), (2,)])
        same_rows = Relation("S", ("b",), [(1,), (2,)])
        reordered = Relation("R", ("a",), [(2,), (1,)])
        assert relation.content_digest() == relation.content_digest()
        assert relation.content_digest() == same_rows.content_digest()
        assert relation.content_digest() != reordered.content_digest()

    def test_distinct_count(self):
        relation = Relation("R", ("a", "b"), [(1, 2), (1, 3), (2, 2), (1, 2)])
        assert relation.distinct_count((0,)) == 2
        assert relation.distinct_count((1,)) == 2
        assert relation.distinct_count((0, 1)) == 3
        assert relation.distinct_count(()) == 1
        assert Relation("E", ("a",)).distinct_count(()) == 0

    def test_repr_names_the_size(self):
        relation = Relation("R", ("a", "b"), [(1, 2)])
        assert repr(relation) == "Relation(R, ('a', 'b'), 1 rows)"


class TestDatabase:
    def test_add_and_get(self):
        db = Database()
        db.add_rows("R", ("a",), [(1,)])
        assert len(db["R"]) == 1
        assert "R" in db
        assert "S" not in db

    def test_unknown_relation_raises_helpfully(self):
        db = Database()
        db.add_rows("R", ("a",), [])
        with pytest.raises(KeyError, match="known"):
            db["S"]

    def test_string_encoding_is_stable(self):
        db = Database()
        code1 = db.encode("Joe Pesci")
        code2 = db.encode("Joe Pesci")
        assert code1 == code2
        assert db.decode(code1) == "Joe Pesci"

    def test_distinct_strings_get_distinct_codes(self):
        db = Database()
        assert db.encode("a") != db.encode("b")

    def test_integers_pass_through(self):
        db = Database()
        assert db.encode(17) == 17
        assert db.decode(17) == 17

    def test_encoded_codes_avoid_small_int_collisions(self):
        db = Database()
        assert db.encode("x") >= 1_000_000_000

    def test_add_encoded(self):
        db = Database()
        db.add_encoded("Name", ("id", "name"), [(1, "joe"), (2, "bob")])
        rows = db["Name"].rows
        assert rows[0][0] == 1
        assert db.decode(rows[0][1]) == "joe"

    def test_total_rows(self):
        db = Database()
        db.add_rows("R", ("a",), [(1,), (2,)])
        db.add_rows("S", ("a",), [(3,)])
        assert db.total_rows() == 3

    def test_add_replaces_a_relation_of_the_same_name(self):
        db = Database()
        db.add_rows("R", ("a",), [(1,), (2,)])
        replacement = db.add_rows("R", ("a",), [(3,)])
        assert db["R"] is replacement and db.total_rows() == 1

    def test_relations_is_a_copy(self):
        db = Database()
        db.add_rows("R", ("a",), [(1,)])
        db.relations().pop("R")
        assert "R" in db and list(db.relations()) == ["R"]
        assert repr(db) == "Database(R[1])"
