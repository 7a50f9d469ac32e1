"""Tests for variable-labelled frames and the atom scan."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import kernels
from repro.engine.frame import Frame, atom_frame, frame_relation
from repro.engine.runtime import resolve_runtime
from repro.engine.scheduler import PlanExecution
from repro.engine.stats import ExecutionStats
from repro.planner.api import make_cluster
from repro.planner.physical import lower
from repro.query.atoms import Atom, Comparison, ConjunctiveQuery, Constant, Variable
from repro.query.catalog import Catalog
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


# ----------------------------------------------------------------------
# The scan differential: both containers, and the row-list reference
# ----------------------------------------------------------------------

_TOP = 2**63 - 1
#: stored values: small ones to collide on, strings (dictionary-encoded at
#: load), and the ends of int64
_VALUES = [0, 1, 2, -1, _TOP, -_TOP, -_TOP - 1, "ann", "bob"]
_VARIABLES = (X, Y, Z)


@st.composite
def scans(draw):
    """A relation, an atom over it and the atom's pushed comparisons."""
    arity = draw(st.integers(1, 4))
    value = st.sampled_from(_VALUES)
    rows = draw(st.lists(st.tuples(*[value] * arity), max_size=40))
    # the first position is a variable; constants include one no row holds
    term = st.one_of(
        st.sampled_from(_VARIABLES),
        st.sampled_from(_VALUES + [7, "carl"]).map(Constant),
    )
    first = draw(st.sampled_from(_VARIABLES))
    terms = (first, *draw(st.lists(term, min_size=arity - 1, max_size=arity - 1)))
    atom = Atom("R", terms)
    bound = atom.variables()
    comparison = st.builds(
        Comparison,
        st.sampled_from(bound),
        st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
        st.one_of(
            st.sampled_from(bound),
            st.sampled_from([0, 1, -1, _TOP, -_TOP]).map(Constant),
        ),
    )
    comparisons = tuple(draw(st.lists(comparison, max_size=2)))
    workers = draw(st.integers(1, 5))
    return rows, atom, comparisons, workers


def _reference_scan(atom, rows, encode, comparisons, workers):
    """The round-robin list deal, then filter, then project, row by row:
    every worker's frame rows as a scan of row lists computed them."""
    frames = []
    for worker in range(workers):
        kept = rows[worker::workers]
        for position, constant in atom.constants():
            kept = [row for row in kept if row[position] == encode(constant.value)]
        for variable in atom.variables():
            first, *repeats = atom.positions_of(variable)
            kept = [row for row in kept if all(row[p] == row[first] for p in repeats)]
        variables = atom.variables()
        projected = [
            tuple(row[atom.positions_of(v)[0]] for v in variables) for row in kept
        ]
        frames.append([
            row for row in projected
            if all(c.evaluate(dict(zip(variables, row))) for c in comparisons)
        ])
    return frames


def _scheduled_scan(query, database, workers, backend):
    """The Scan operator's per-worker frames, run by the scheduler."""
    physical = lower(query, "RS_HJ", Catalog(database))
    cluster = make_cluster(database, workers=workers)
    stats = ExecutionStats(query=query.name, strategy="RS_HJ", workers=workers)
    with kernels.use_backend(backend):
        execution = PlanExecution(physical, cluster, stats, resolve_runtime("serial"))
        try:
            execution.step()
        finally:
            execution.close()
    assert execution.finished  # one atom under RS_HJ: the scan is the plan
    return execution._state.slots[query.atoms[0].alias]


@settings(max_examples=80, deadline=None)
@given(scans())
def test_scans_agree_across_backends_and_with_the_row_list_reference(scan):
    rows, atom, comparisons, workers = scan
    database = Database()
    database.add_encoded("R", [f"c{i}" for i in range(atom.arity)], rows)
    query = ConjunctiveQuery("Q", atom.variables(), (atom,), comparisons)
    expected = _reference_scan(
        atom, database["R"].rows, database.encode, comparisons, workers
    )
    scanned = {
        backend: _scheduled_scan(query, database, workers, backend)
        for backend in kernels.KERNEL_BACKENDS
    }
    for backend, frames in scanned.items():
        assert [frame.variables for frame in frames] == [atom.variables()] * workers
        assert [list(frame.rows) for frame in frames] == expected, backend
    assert all(type(frame.rows) is list for frame in scanned["python"])
    assert all(
        isinstance(frame.rows, kernels.ColumnBlock) for frame in scanned["numpy"]
    )
