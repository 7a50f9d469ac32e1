"""Per-kernel unit tests: python and numpy backends are interchangeable.

Every kernel in :mod:`repro.engine.kernels` must produce *identical*
outputs — same rows, same order, same bucket boundaries — under both
backends, including on the edge cases (empty inputs, zero-width
projections, replicated hypercube routing, cross products).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.engine import kernels
from repro.hypercube.config import optimize_config
from repro.hypercube.mapping import HyperCubeMapping
from repro.query.parser import parse_query
from repro.storage.relation import Relation
from repro.storage.sorted import SortedRelation


def random_rows(n, arity, hi=1000, seed=0):
    rng = random.Random(seed)
    return [tuple(rng.randrange(hi) for _ in range(arity)) for _ in range(n)]


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------


def test_backend_selection_roundtrip():
    previous = kernels.get_backend()
    try:
        kernels.set_backend("python")
        assert kernels.get_backend() == "python"
        assert kernels.resolve_backend() == "python"
        assert kernels.resolve_backend("numpy") == "numpy"
        with kernels.use_backend("numpy"):
            assert kernels.get_backend() == "numpy"
        assert kernels.get_backend() == "python"
        with kernels.use_backend(None):  # no-op
            assert kernels.get_backend() == "python"
    finally:
        kernels.set_backend(previous)


def test_invalid_backend_rejected():
    with pytest.raises(ValueError):
        kernels.set_backend("cython")
    with pytest.raises(ValueError):
        kernels.resolve_backend("fortran")


def test_invalid_env_var_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "gpu")
    with pytest.raises(ValueError):
        kernels._initial_backend()
    monkeypatch.setenv("REPRO_KERNELS", "  NumPy ")
    assert kernels._initial_backend() == "numpy"


# ----------------------------------------------------------------------
# Hashing and shuffle routing
# ----------------------------------------------------------------------


@pytest.mark.parametrize("salt", [0, 1, 0xDEADBEEF])
def test_hash_columns_matches_scalar_reference(salt):
    rows = random_rows(500, 3, hi=2**31)
    for key in ([0], [1, 2], [2, 0, 1]):
        columns = [np.array([r[i] for r in rows], dtype=np.int64) for i in key]
        batched = kernels._hash_columns(columns, salt, len(rows))
        scalar = [kernels.hash_row([r[i] for i in key], salt) for r in rows]
        assert [int(h) for h in batched] == scalar


@pytest.mark.parametrize("workers", [1, 3, 16, 64])
def test_shuffle_partition_identical_buckets(workers):
    rows = random_rows(700, 2, seed=3)
    py = kernels.shuffle_partition(rows, [0], workers, salt=5, backend="python")
    vec = kernels.shuffle_partition(rows, [0], workers, salt=5, backend="numpy")
    assert py == vec  # same rows, same order, per bucket
    assert sum(len(b) for b in vec) == len(rows)


def test_shuffle_partition_empty_and_single():
    assert kernels.shuffle_partition([], [0], 4, backend="numpy") == [[] for _ in range(4)]
    one = [(7, 8)]
    assert kernels.shuffle_partition(one, [1], 4, backend="numpy") == \
        kernels.shuffle_partition(one, [1], 4, backend="python")


def test_hypercube_partition_matches_destinations_reference():
    query = parse_query("T(x,y,z) :- R(x,y), S(y,z), T(z,x).")
    sizes = {a.alias: 1000 for a in query.atoms}
    mapping = HyperCubeMapping(optimize_config(query, sizes, 16), seed=4)
    rows = random_rows(400, 2, seed=9)
    for atom in query.atoms:
        bound, offsets = mapping.frame_routing(atom, atom.variables())
        py = kernels.hypercube_partition(rows, bound, offsets, 16, backend="python")
        vec = kernels.hypercube_partition(rows, bound, offsets, 16, backend="numpy")
        assert py == vec
        # the python loop itself must agree with the original per-row API
        reference = [[] for _ in range(16)]
        for row in rows:
            for destination in mapping.destinations(atom, row):
                reference[destination].append(row)
        assert py == reference


# ----------------------------------------------------------------------
# Sorting and sorted-array primitives
# ----------------------------------------------------------------------


@pytest.mark.parametrize("positions", [(0, 1, 2), (2, 0), (1,)])
def test_sort_projected_identical(positions):
    rows = random_rows(800, 3, hi=40, seed=1)  # many duplicate keys
    py_rows, _ = kernels.sort_projected(rows, positions, backend="python")
    none_rows, columns = kernels.sort_projected(rows, positions, backend="numpy")
    assert none_rows is None
    assert kernels.rows_from_columns(columns) == py_rows


def test_sort_projected_wide_values_fall_back_to_lexsort():
    # spans overflow the 64-bit packing, forcing the np.lexsort path
    rows = [(random.Random(5).randrange(2**40), i % 7, i) for i in range(50)]
    random.Random(6).shuffle(rows)
    rows = [(r[0] + i * 2**22, r[1], r[2]) for i, r in enumerate(rows)]
    py_rows, _ = kernels.sort_projected(rows, (0, 1, 2), backend="python")
    _, columns = kernels.sort_projected(rows, (0, 1, 2), backend="numpy")
    assert kernels.rows_from_columns(columns) == py_rows


def test_sort_projected_empty_and_zero_width():
    assert kernels.sort_projected([], (0,), backend="python")[0] == []
    _, columns = kernels.sort_projected([], (0,), backend="numpy")
    assert kernels.rows_from_columns(columns) == []
    rows = [(1, 2), (3, 4)]
    _, zero = kernels.sort_projected(rows, (), backend="numpy")
    assert kernels.rows_from_columns(zero) == [(), ()]


def test_bounds_match_python_binary_search():
    rows, _ = kernels.sort_projected(random_rows(300, 2, hi=25, seed=2), (0, 1),
                                     backend="python")
    _, columns = kernels.sort_projected(rows, (0, 1), backend="numpy")
    n = len(rows)
    for value in range(-1, 27):
        assert kernels.lower_bound(rows, 0, value, 0, n) == \
            kernels.lower_bound(None, 0, value, 0, n, columns)
        assert kernels.upper_bound(rows, 0, value, 0, n) == \
            kernels.upper_bound(None, 0, value, 0, n, columns)
    # sub-ranges sharing a first-column prefix, second-column seeks
    lo = kernels.lower_bound(rows, 0, 10, 0, n)
    hi = kernels.upper_bound(rows, 0, 10, lo, n)
    for value in range(-1, 27):
        assert kernels.lower_bound(rows, 1, value, lo, hi) == \
            kernels.lower_bound(None, 1, value, lo, hi, columns)
        assert kernels.upper_bound(rows, 1, value, lo, hi) == \
            kernels.upper_bound(None, 1, value, lo, hi, columns)


def test_distinct_prefix_count_identical():
    rows, _ = kernels.sort_projected(random_rows(400, 3, hi=12, seed=8), (0, 1, 2),
                                     backend="python")
    _, columns = kernels.sort_projected(rows, (0, 1, 2), backend="numpy")
    for length in range(4):
        assert kernels.distinct_prefix_count(rows, length) == \
            kernels.distinct_prefix_count(range(len(rows)), length, columns)
    assert kernels.distinct_prefix_count([], 1) == 0


# ----------------------------------------------------------------------
# Hash join
# ----------------------------------------------------------------------


def _join_both(left, right, lk, rk, extra):
    py = kernels.hash_join_rows(left, right, lk, rk, extra, backend="python")
    vec = kernels.hash_join_rows(left, right, lk, rk, extra, backend="numpy")
    assert py == vec
    return py


def test_hash_join_identical_with_duplicates():
    left = random_rows(300, 2, hi=30, seed=10)
    right = random_rows(250, 2, hi=30, seed=11)
    out = _join_both(left, right, [1], [0], [1])
    assert len(out) > len(left)  # duplicates fan out


def test_hash_join_output_dominated_path():
    # heavy-hitter key: output >> inputs exercises the scalar-emission path
    left = [(1, i) for i in range(200)] + [(2, 0)]
    right = [(1, j) for j in range(200)]
    out = _join_both(left, right, [0], [0], [1])
    assert len(out) == 200 * 200


def test_hash_join_cross_product_and_no_extra():
    left = random_rows(20, 2, seed=12)
    right = random_rows(15, 1, seed=13)
    assert len(_join_both(left, right, [], [], [0])) == 300
    # no new right columns: output rows are exactly the matching left rows
    out = _join_both(left, right, [0], [0], [])
    assert all(row in left for row in out)


def test_hash_join_empty_sides():
    assert kernels.hash_join_rows([], [(1,)], [0], [0], [], backend="numpy") == []
    assert kernels.hash_join_rows([(1,)], [], [0], [0], [], backend="numpy") == []


def test_hash_join_wide_keys_fall_back_to_unique():
    # key ranges too wide for 64-bit packing: np.unique id path
    left = [(i * 2**33, i % 5, i) for i in range(80)]
    right = [(i * 2**33, (i + 1) % 5, i) for i in range(80)]
    _join_both(left, right, [0, 1], [0, 1], [2])


# ----------------------------------------------------------------------
# Scan filters / projections
# ----------------------------------------------------------------------


def test_atom_selection_and_filters():
    query = parse_query("Q(x,y) :- R(x, 5, x, y).")
    atom = query.atoms[0]
    constant_filters, repeat_groups = kernels.atom_selection(atom, lambda v: v)
    assert constant_filters == [(1, 5)]
    assert [list(group) for group in repeat_groups] == [[0, 2]]
    rows = [(1, 5, 1, 9), (1, 5, 2, 9), (1, 4, 1, 9), (3, 5, 3, 0)]
    for backend in kernels.KERNEL_BACKENDS:
        filtered = kernels.filter_atom_rows(
            rows, constant_filters, repeat_groups, backend=backend
        )
        assert filtered == [(1, 5, 1, 9), (3, 5, 3, 0)]


def test_filter_atom_rows_no_filters_returns_same_object():
    rows = [(1, 2)]
    for backend in kernels.KERNEL_BACKENDS:
        assert kernels.filter_atom_rows(rows, [], [], backend=backend) is rows


def test_project_rows_identical():
    rows = random_rows(120, 4, seed=14)
    for indices in ([0, 1, 2, 3], [2, 0], [3], []):
        py = kernels.project_rows(rows, indices, backend="python")
        vec = kernels.project_rows(rows, indices, backend="numpy")
        assert py == vec
    assert kernels.project_rows([], [0], backend="numpy") == []


# ----------------------------------------------------------------------
# SortedRelation on both backends
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", kernels.KERNEL_BACKENDS)
def test_sorted_relation_backend_equivalence(backend):
    relation = Relation("R", ("a", "b", "c"), random_rows(300, 3, hi=15, seed=20))
    reference = SortedRelation(relation, (2, 0), backend="python")
    candidate = SortedRelation(relation, (2, 0), backend=backend)
    assert candidate.rows == reference.rows  # lazy materialization on numpy
    assert candidate.sort_cost == reference.sort_cost
    assert len(candidate) == len(reference)
    n = len(reference)
    for value in range(-1, 17):
        assert candidate.lower_bound(0, value, 0, n) == \
            reference.lower_bound(0, value, 0, n)
        assert candidate.upper_bound(0, value, 0, n) == \
            reference.upper_bound(0, value, 0, n)
        assert candidate.value_range(0, value, 0, n) == \
            reference.value_range(0, value, 0, n)
    for length in range(4):
        assert candidate.distinct_prefix_count(length) == \
            reference.distinct_prefix_count(length)
    for index in (0, n // 2, n - 1):
        for depth in range(3):
            assert candidate.key_at(depth, index) == reference.key_at(depth, index)
