"""Per-kernel unit tests: python and numpy backends are interchangeable.

Every kernel in :mod:`repro.engine.kernels` must produce *identical*
outputs — same rows, same order, same bucket boundaries — under both
backends, including on the edge cases (empty inputs, zero-width
projections, replicated hypercube routing, cross products).
"""

from __future__ import annotations

import inspect
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import kernels
from repro.hypercube.config import optimize_config
from repro.hypercube.mapping import HyperCubeMapping
from repro.query.parser import parse_query


def _on(backend, kernel, *args, **kwargs):
    """Call ``kernel`` with ``backend`` selected."""
    with kernels.use_backend(backend):
        return kernel(*args, **kwargs)


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
        with kernels.use_backend("numpy"):
            assert kernels.get_backend() == "numpy"
        assert kernels.get_backend() == "python"
        with kernels.use_backend(None):  # no-op
            assert kernels.get_backend() == "python"
    finally:
        kernels.set_backend(previous)


def _triangle_routing():
    query = parse_query("T(x,y,z) :- R(x,y), S(y,z), T(z,x).")
    mapping = HyperCubeMapping(
        optimize_config(query, {a.alias: 1000 for a in query.atoms}, 16), seed=4
    )
    atom = query.atoms[0]
    return mapping.frame_routing(atom, atom.variables())


_SELECTION = parse_query("C(x,y,z) :- R(x,y), S(y,z), x < z, y != 3.")

#: every kernel that reads the backend, called on three-column rows; each
#: numpy answer holds column blocks
SWITCHED_KERNELS = {
    "concat_rows": lambda rows: kernels.concat_rows([rows, rows[:5]], 3),
    "shuffle_partition": lambda rows: kernels.shuffle_partition(rows, [0], 4, salt=5),
    "hypercube_partition": (
        lambda rows: kernels.hypercube_partition(rows, *_triangle_routing(), 16)
    ),
    "sort_projected": lambda rows: kernels.sort_projected(rows, (2, 0)),
    "hash_join_rows": lambda rows: kernels.hash_join_rows(rows, rows, [1], [0], [2]),
    "project_rows": lambda rows: kernels.project_rows(rows, [2, 0], dedup=True),
    "select_rows": (
        lambda rows: kernels.select_rows(rows, _SELECTION.head, _SELECTION.comparisons)
    ),
}


def _holds_blocks(answer):
    """A block, or a non-empty list of blocks (a partition's buckets)."""
    if isinstance(answer, kernels.ColumnBlock):
        return True
    return bool(answer) and all(
        isinstance(part, kernels.ColumnBlock) for part in answer
    )


@pytest.mark.parametrize("name", sorted(SWITCHED_KERNELS))
def test_each_kernel_reads_the_one_switch(name):
    """No kernel takes a backend of its own: ``set_backend`` picks every
    kernel's path, and both paths give the same rows."""
    call = SWITCHED_KERNELS[name]
    assert "backend" not in inspect.signature(getattr(kernels, name)).parameters
    rows = random_rows(200, 3, hi=10, seed=40)
    previous = kernels.get_backend()
    answers = {}
    try:
        for backend in kernels.KERNEL_BACKENDS:
            kernels.set_backend(backend)
            answers[backend] = call(rows)
    finally:
        kernels.set_backend(previous)
    assert len(answers["python"]) > 0
    assert answers["python"] == answers["numpy"]
    assert _holds_blocks(answers["numpy"])
    assert not _holds_blocks(answers["python"])


def test_invalid_backend_rejected():
    with pytest.raises(ValueError):
        kernels.set_backend("cython")
    with pytest.raises(ValueError):
        with kernels.use_backend("fortran"):
            pass


def test_invalid_env_var_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "gpu")
    with pytest.raises(ValueError):
        kernels._initial_backend()
    monkeypatch.setenv("REPRO_KERNELS", "  NumPy ")
    assert kernels._initial_backend() == "numpy"


# ----------------------------------------------------------------------
# The column block
# ----------------------------------------------------------------------


ROWS = [(3, -1, 7), (0, 5, 2**40), (3, -1, 7), (9, 9, 9)]


def test_block_reads_like_the_row_list_it_stands_for():
    block = kernels.block_from_rows(ROWS)
    assert len(block) == 4 and len(block.columns) == 3
    assert all(column.dtype == np.int64 for column in block.columns)
    assert list(block) == ROWS and block.tolist() == ROWS
    assert [block[i] for i in range(4)] == ROWS
    assert block[-1] == (9, 9, 9) and block[-4] == ROWS[0]
    for out_of_range in (4, -5):
        with pytest.raises(IndexError):
            block[out_of_range]
    # tuples of Python ints, never np.int64: results are hashed and printed
    assert type(block[1]) is tuple and type(block[1][2]) is int
    assert all(type(value) is int for row in block for value in row)
    assert (3, -1, 7) in block and (3, -1, 8) not in block
    assert kernels.as_block(block) is block
    assert kernels.row_tuples(block) == ROWS and kernels.row_tuples(ROWS) is ROWS


def test_block_slices_are_views():
    block = kernels.block_from_rows(ROWS)
    middle = block[1:3]
    assert isinstance(middle, kernels.ColumnBlock)
    assert middle == ROWS[1:3] and len(middle) == 2
    assert all(
        np.shares_memory(view, column)
        for view, column in zip(middle.columns, block.columns)
    )
    assert block[::2] == ROWS[::2] and block[5:] == [] and block[:] == block


def test_block_equality_is_by_content_both_ways():
    block = kernels.block_from_rows(ROWS)
    assert block == ROWS and ROWS == block
    assert [block, block[:1]] == [ROWS, ROWS[:1]]  # as bucket lists compare
    assert block != ROWS[:-1] and ROWS[::-1] != block
    assert block == kernels.block_from_rows(list(ROWS))
    assert block != kernels.block_from_rows([row[:2] for row in ROWS])
    assert (block == 7) is False
    with pytest.raises(TypeError):
        hash(block)


def test_block_pickles_as_the_rows_it_covers():
    block = kernels.block_from_rows(random_rows(5000, 3, seed=30))
    piece = block[100:110]
    shipped = pickle.dumps(piece)
    assert len(shipped) < 2000  # the slice's ten rows, not its 5000-row base
    restored = pickle.loads(shipped)
    assert isinstance(restored, kernels.ColumnBlock)
    assert restored == piece and restored.tolist() == piece.tolist()


def test_block_with_no_rows_or_no_columns():
    empty = kernels.block_from_rows([])
    assert len(empty) == 0 and empty == [] and list(empty) == [] and not empty
    assert empty == kernels._empty_block(3)  # an empty block has no width to differ in
    assert kernels._empty_block(3)[0:0] == []
    unit = kernels.block_from_rows([(), (), ()])
    assert len(unit) == 3 and unit.columns == ()
    assert unit == [(), (), ()] and unit[1] == () and unit[1:] == [(), ()]
    assert pickle.loads(pickle.dumps(unit)) == unit
    with pytest.raises(IndexError):
        unit[3]


def test_value_outside_int64_is_named():
    """int64 is the numpy backend's value domain; the one conversion says so
    instead of numpy's bare OverflowError."""
    rows = [(1, 2), (2, 2**63), (3, 4)]
    with pytest.raises(ValueError, match=rf"value {2**63} does not fit int64"):
        kernels.block_from_rows(rows)
    with pytest.raises(ValueError, match=r"value -\d+ does not fit int64.*numpy"):
        _on("numpy", kernels.shuffle_partition, [(0, -2**63 - 1)], [0], 4)
    # the python backend has no such limit; int64's own extremes fit
    assert sum(map(len, _on("python", kernels.shuffle_partition, rows, [1], 4))) == 3
    extremes = [(-2**63, 2**63 - 1)]
    assert kernels.block_from_rows(extremes).tolist() == extremes


def test_concat_rows_follows_the_backend():
    parts = [ROWS[:1], [], kernels.block_from_rows(ROWS[1:])]
    merged = _on("numpy", kernels.concat_rows, parts, 3)
    assert isinstance(merged, kernels.ColumnBlock) and merged == ROWS
    assert _on("python", kernels.concat_rows, parts, 3) == ROWS
    nothing = _on("numpy", kernels.concat_rows, [[], []], 3)
    assert len(nothing) == 0 and len(nothing.columns) == 3


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
    py = _on("python", kernels.shuffle_partition, rows, [0], workers, salt=5)
    vec = _on("numpy", kernels.shuffle_partition, rows, [0], workers, salt=5)
    assert py == vec  # same rows, same order, per bucket
    assert sum(len(b) for b in vec) == len(rows)


def test_shuffle_partition_empty_and_single():
    assert _on("numpy", kernels.shuffle_partition, [], [0], 4) == [[] for _ in range(4)]
    one = [(7, 8)]
    assert _on("numpy", kernels.shuffle_partition, one, [1], 4) == \
        _on("python", kernels.shuffle_partition, one, [1], 4)


def test_numpy_partitions_are_slices_of_one_gathered_block():
    rows = random_rows(700, 2, seed=3)
    buckets = _on("numpy", kernels.shuffle_partition, rows, [0], 8, salt=5)
    assert all(isinstance(bucket, kernels.ColumnBlock) for bucket in buckets)
    bases = {id(bucket.columns[0].base) for bucket in buckets if len(bucket)}
    assert len(bases) == 1  # gathered once, then cut
    # a block in, the same buckets out — nothing to convert
    block = kernels.block_from_rows(rows)
    again = _on("numpy", kernels.shuffle_partition, block, [0], 8, salt=5)
    assert again == buckets


#: int64's extremes, their neighbours and values that differ only above bit 32
EXTREME_VALUES = [
    2**63 - 1, -(2**63 - 1), -(2**63), 2**63 - 2, 2**32, -(2**32), 2**32 + 1,
    2**31, -(2**31), 0, -1, 1, 7 << 40, -(7 << 40) + 3,
]


@pytest.mark.parametrize("buckets", [1, 255, 256, 257, 65_537])
@pytest.mark.parametrize("salt", [2**32, 2**32 + 0xDEADBEEF, 2**62 + 5])
def test_routing_at_int64_extremes_matches_the_python_backend(buckets, salt):
    """The vectorized hash runs on each value's low 32 bits in uint32: it
    must route every int64 value — and salts past 32 bits — where the
    scalar reference does, whatever the bucket id's width."""
    rng = random.Random(buckets)
    rows = [
        (rng.choice(EXTREME_VALUES), rng.choice(EXTREME_VALUES), i)
        for i in range(600)
    ]
    block = kernels.block_from_rows(rows)
    for key in ([0], [1, 0]):
        columns = [block.columns[i] for i in key]
        hashed = kernels._hash_columns(columns, salt, len(rows))
        assert hashed.tolist() == [
            kernels.hash_row([row[i] for i in key], salt) for row in rows
        ]
        assert _on("numpy", kernels.shuffle_partition, block, key, buckets,
                   salt=salt) == \
            _on("python", kernels.shuffle_partition, rows, key, buckets, salt=salt)
    # one dimension over every bucket, and, where the count has a factor,
    # one over ``side`` buckets replicated over the rest
    routings = [([(0, salt, buckets, 1)], [0])]
    side = next(d for d in range(int(buckets**0.5), 0, -1) if buckets % d == 0)
    if side > 1:
        copies = buckets // side
        routings.append(
            ([(0, salt, side, copies), (2, salt + 1, 1, 1)], list(range(copies)))
        )
    for bound, offsets in routings:
        assert _on("numpy", kernels.hypercube_partition, block, bound, offsets,
                   buckets) == \
            _on("python", kernels.hypercube_partition, rows, bound, offsets, buckets)


def test_hypercube_partition_matches_destinations_reference():
    query = parse_query("T(x,y,z) :- R(x,y), S(y,z), T(z,x).")
    sizes = {a.alias: 1000 for a in query.atoms}
    mapping = HyperCubeMapping(optimize_config(query, sizes, 16), seed=4)
    rows = random_rows(400, 2, seed=9)
    for atom in query.atoms:
        bound, offsets = mapping.frame_routing(atom, atom.variables())
        py = _on("python", kernels.hypercube_partition, rows, bound, offsets, 16)
        vec = _on("numpy", kernels.hypercube_partition, rows, bound, offsets, 16)
        assert py == vec
        # the python loop itself must agree with the original per-row API
        reference = [[] for _ in range(16)]
        for row in rows:
            for destination in mapping.destinations(atom, row):
                reference[destination].append(row)
        assert py == reference


# ----------------------------------------------------------------------
# Sorting
# ----------------------------------------------------------------------


@pytest.mark.parametrize("positions", [(0, 1, 2), (2, 0), (1,)])
def test_sort_projected_identical(positions):
    rows = random_rows(800, 3, hi=40, seed=1)  # many duplicate keys
    py_rows = _on("python", kernels.sort_projected, rows, positions)
    block = _on("numpy", kernels.sort_projected, rows, positions)
    assert type(py_rows) is list and isinstance(block, kernels.ColumnBlock)
    assert block == py_rows
    # sorting a block reads its columns as they are: same answer
    block = kernels.block_from_rows(rows)
    assert _on("numpy", kernels.sort_projected, block, positions) == py_rows


def test_sort_projected_wide_values_fall_back_to_lexsort():
    # spans overflow the 64-bit packing, forcing the np.lexsort path
    rows = [(random.Random(5).randrange(2**40), i % 7, i) for i in range(50)]
    random.Random(6).shuffle(rows)
    rows = [(r[0] + i * 2**22, r[1], r[2]) for i, r in enumerate(rows)]
    py_rows = _on("python", kernels.sort_projected, rows, (0, 1, 2))
    assert _on("numpy", kernels.sort_projected, rows, (0, 1, 2)) == py_rows


def test_sort_projected_empty_and_zero_width():
    assert _on("python", kernels.sort_projected, [], (0,)) == []
    empty = _on("numpy", kernels.sort_projected, [], (0,))
    assert isinstance(empty, kernels.ColumnBlock) and len(empty.columns) == 1
    assert empty == []
    rows = [(1, 2), (3, 4)]
    zero = _on("numpy", kernels.sort_projected, rows, ())
    assert isinstance(zero, kernels.ColumnBlock) and zero.tolist() == [(), ()]


# ----------------------------------------------------------------------
# Hash join
# ----------------------------------------------------------------------


def _join_both(left, right, lk, rk, extra):
    py = _on("python", kernels.hash_join_rows, left, right, lk, rk, extra)
    vec = _on("numpy", kernels.hash_join_rows, left, right, lk, rk, extra)
    assert py == vec
    return py


def test_hash_join_identical_with_duplicates():
    left = random_rows(300, 2, hi=30, seed=10)
    right = random_rows(250, 2, hi=30, seed=11)
    out = _join_both(left, right, [1], [0], [1])
    assert len(out) > len(left)  # duplicates fan out


def test_hash_join_output_dominated_path():
    # heavy-hitter key, output >> inputs: every right row fans out over all
    # 200 matching left rows, in left scan order within right scan order
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


def test_hash_join_on_numpy_gathers_one_block():
    left = kernels.block_from_rows(random_rows(300, 2, hi=30, seed=10))
    right = random_rows(250, 2, hi=30, seed=11)
    out = _on("numpy", kernels.hash_join_rows, left, right, [1], [0], [1])
    assert isinstance(out, kernels.ColumnBlock) and len(out.columns) == 3
    assert out == _on(
        "python", kernels.hash_join_rows, left.tolist(), right, [1], [0], [1]
    )
    # no match at all is an empty block of the output's width
    disjoint = _on("numpy", kernels.hash_join_rows, left, [(99, 1)], [1], [0], [1])
    assert len(disjoint) == 0 and len(disjoint.columns) == 3


def test_hash_join_empty_sides():
    assert _on("numpy", kernels.hash_join_rows, [], [(1,)], [0], [0], []) == []
    assert _on("numpy", kernels.hash_join_rows, [(1,)], [], [0], [0], []) == []


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
    columns, comparisons = atom.selection(lambda v: v)
    assert [c.name for c in columns] == ["#0", "#1", "#2", "#3"]
    assert [repr(c) for c in comparisons] == ["#1 = 5", "#2 = #0"]
    rows = [(1, 5, 1, 9), (1, 5, 2, 9), (1, 4, 1, 9), (3, 5, 3, 0)]
    for backend in kernels.KERNEL_BACKENDS:
        filtered = _on(backend, kernels.select_rows, rows, columns, comparisons)
        assert filtered == [(1, 5, 1, 9), (3, 5, 3, 0)]
    # a variable at three positions: every later one equals the first
    triple = parse_query("Q(x) :- R(x, x, x).").atoms[0]
    assert [repr(c) for c in triple.selection(lambda v: v)[1]] == [
        "#1 = #0", "#2 = #0"
    ]
    # an empty relation deals zero-width blocks: the mask is never built on
    # one, and the projection gives the frame its width back
    empty = kernels.block_from_rows([])
    for backend in kernels.KERNEL_BACKENDS:
        kept = _on(backend, kernels.select_rows, empty, columns, comparisons)
        assert len(kept) == 0
        assert _on(backend, kernels.project_rows, kept, [0, 3]) == []
    projected = _on("numpy", kernels.project_rows, empty, [0, 3])
    assert len(projected.columns) == 2


def test_select_rows_without_comparisons_returns_same_object():
    rows = [(1, 2)]
    plain = parse_query("Q(x,y) :- R(x, y).").atoms[0]
    assert plain.selection(lambda v: v)[1] == ()
    for backend in kernels.KERNEL_BACKENDS:
        assert _on(backend, kernels.select_rows, rows, *plain.selection(int)) is rows


def test_project_rows_identical():
    rows = random_rows(120, 4, seed=14)
    for indices in ([0, 1, 2, 3], [2, 0], [3], []):
        py = _on("python", kernels.project_rows, rows, indices)
        vec = _on("numpy", kernels.project_rows, rows, indices)
        assert py == vec
    assert _on("numpy", kernels.project_rows, [], [0]) == []


def test_project_rows_dedup_keeps_first_seen_order():
    rows = random_rows(400, 3, hi=4, seed=15)  # 64 possible rows: many repeats
    wide = [(r[0] * 2**40, r[1] * 2**40, r[2]) for r in rows]  # unpackable keys
    for source in (rows, wide):
        for indices in ([0, 1, 2], [2, 0], [1], []):
            py = _on("python", kernels.project_rows, source, indices, dedup=True)
            vec = _on("numpy", kernels.project_rows, source, indices, dedup=True)
            assert py == vec and isinstance(vec, kernels.ColumnBlock)
            assert len(py) == len(set(py))


def test_select_rows_is_one_mask_on_numpy():
    query = parse_query("C(x,y,z) :- R(x,y), S(y,z), x < z, y >= 10, y != 12.")
    x, y, z = query.head
    rows = random_rows(500, 3, hi=25, seed=16)
    py = _on("python", kernels.select_rows, rows, (x, y, z), query.comparisons)
    vec = _on("numpy", kernels.select_rows, rows, (x, y, z), query.comparisons)
    assert py == vec and isinstance(vec, kernels.ColumnBlock)
    assert py == [r for r in rows if r[0] < r[2] and r[1] >= 10 and r[1] != 12]
    # a comparison on a variable the rows do not bind is deferred, not applied
    deferred = query.comparisons[:1]
    assert _on("numpy", kernels.select_rows, rows, (x, y), deferred) == rows


# ----------------------------------------------------------------------
# The stable-order primitive behind the join build, the de-dup and the sort
# ----------------------------------------------------------------------


@st.composite
def keyed_inputs(draw):
    """Two duplicate-heavy row sets over few distinct, possibly negative key
    values, and a key of 0-2 columns.  Scaled by ``2**40`` one key column
    still packs into 64 bits and two do not (the dense-id route)."""
    scale = draw(st.sampled_from([1, 2**40]))
    value = st.integers(-3, 3).map(lambda v: v * scale)
    row = st.tuples(value, value, st.integers(-2, 2))
    left = draw(st.lists(row, max_size=30))
    right = draw(st.lists(row, max_size=30))
    return left, right, list(range(draw(st.integers(0, 2))))


@given(keyed_inputs())
@settings(max_examples=150, deadline=None)
def test_stable_order_kernels_match_python(inputs):
    """Equal *lists*: left scan order inside a key, first-seen order after
    de-dup and the sorted order are the reference loops', row for row."""
    left, right, key = inputs
    _join_both(left, right, key, key, [2])
    for columns in ([0, 1, 2], [1, 0], [2], key):
        for rows in (left, right[:1]):  # n = 1 among them
            py = _on("python", kernels.project_rows, rows, columns, dedup=True)
            assert py == _on("numpy", kernels.project_rows, rows, columns, dedup=True)
            py = _on("python", kernels.sort_projected, rows, columns)
            assert py == _on("numpy", kernels.sort_projected, rows, columns)


def _at_the_packing_limit(extra_span):
    """Eight rows (three index bits) whose two key columns span ``2**30`` and
    ``2**30 + extra_span`` values: capacity * n is exactly ``2**63`` or just
    above it.  Negative lows, duplicate keys out of order."""
    top = 2**30 - 1 + extra_span
    keys = [(2**30 - 8, top - 5), (-7, -5), (5, top - 5), (-7, top - 5)]
    rows = [(a, b, i) for i, (a, b) in enumerate([*keys, *reversed(keys)])]
    return rows, [(a, b, 100 + i) for i, (a, b, _) in enumerate(rows[1:4])]


def _run_three(rows, right, backend):
    return (
        _on(backend, kernels.hash_join_rows, rows, right, [0, 1], [0, 1], [2]),
        _on(backend, kernels.project_rows, rows, [0, 1], dedup=True),
        _on(backend, kernels.sort_projected, rows, [0, 1]),
    )


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"np.{name} reached")
    return refused


def test_packable_keys_never_reach_an_indirect_sort(monkeypatch):
    """A guard that counts instead of timing: the join build, the de-dup and
    the sort answer without ``np.argsort`` / ``np.unique`` wherever the keyed
    array fits 64 bits — up to and including capacity * n == 2**63."""
    cases = [_at_the_packing_limit(0), (random_rows(300, 3, hi=30, seed=21),) * 2]
    expected = [_run_three(rows, right, "python") for rows, right in cases]
    monkeypatch.setattr(np, "argsort", _refuse("argsort"))
    monkeypatch.setattr(np, "unique", _refuse("unique"))
    for (rows, right), answers in zip(cases, expected):
        assert list(_run_three(rows, right, "numpy")) == list(answers)


def test_wide_keys_reach_the_fallbacks(monkeypatch):
    """One value more on a key column and the keyed array no longer fits:
    the stable argsort runs, with the same answers.  Key columns that do not
    pack at all get dense ids from ``np.unique`` — which then do fit."""
    rows, right = _at_the_packing_limit(1)
    wide = [(a * 2**40, b * 2**40, c) for a, b, c in random_rows(60, 3, hi=4, seed=22)]
    for case in ((rows, right), (wide, wide[:20])):
        assert _run_three(*case, "numpy") == _run_three(*case, "python")
    reached = []
    argsort, unique = np.argsort, np.unique
    monkeypatch.setattr(
        np, "argsort", lambda *a, **k: reached.append("argsort") or argsort(*a, **k)
    )
    monkeypatch.setattr(
        np, "unique", lambda *a, **k: reached.append("unique") or unique(*a, **k)
    )
    _run_three(rows, right, "numpy")
    assert reached == ["argsort"] * 3
    del reached[:]
    _run_three(wide, wide[:20], "numpy")  # the wide sort is np.lexsort's
    assert reached == ["unique"] * 2


# ----------------------------------------------------------------------
# The batched walk's packing: one pass over arrays, whatever the segments
# ----------------------------------------------------------------------


def _per_segment_pack(blocks):
    """The per-segment loop :func:`kernels.sorted_packed_keys` replaced,
    kept as its reference.  Its minimum and maximum skip empty segments: the
    loop took the extremes of every column, so it never took one."""
    lows, spans = [], []
    capacity = len(blocks)
    for depth in range(len(blocks[0].columns)):
        columns = [block.columns[depth] for block in blocks if block.length]
        low = min(int(column.min()) for column in columns)
        span = max(int(column.max()) for column in columns) - low + 1
        capacity *= span
        if capacity >= 2**63:
            return None
        lows.append(low)
        spans.append(span)
    full = np.empty(sum(block.length for block in blocks), dtype=np.int64)
    start = 0
    for segment, block in enumerate(blocks):
        part = full[start:start + block.length]
        part[:] = segment
        for column, low, span in zip(block.columns, lows, spans):
            part *= span
            part += column - low
        start += block.length
    full.sort()
    return full, lows, spans


def _assert_packs_alike(blocks):
    expected = _per_segment_pack(blocks)
    packed = kernels.sorted_packed_keys(blocks)
    assert (packed is None) == (expected is None)
    if expected is not None:
        full, lows, spans = packed
        assert full.dtype == np.int64
        assert full.tolist() == expected[0].tolist()
        assert (lows, spans) == (expected[1], expected[2])
    return packed


#: values near zero and near +-2**62, where the spans cross 2**63
_PACKING_EDGES = [0, 2**61, 2**62 - 1, 2**62, -(2**62)]


@st.composite
def packing_inputs(draw):
    """1-70 segments of 0-3 key columns, some segments empty but not all,
    values small or within a few of an edge in ``_PACKING_EDGES``."""
    width = draw(st.integers(0, 3))
    value = st.one_of(
        st.integers(-5, 5),
        st.sampled_from(_PACKING_EDGES).flatmap(lambda e: st.integers(e - 3, e + 3)),
    )
    lengths = draw(
        st.lists(st.integers(0, 4), min_size=1, max_size=70).filter(any)
    )
    return [
        kernels.ColumnBlock(
            [
                np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=np.int64)
                for _ in range(width)
            ],
            n,
        )
        for n in lengths
    ]


@given(packing_inputs())
@settings(max_examples=200, deadline=None)
def test_one_pass_packing_equals_the_per_segment_pack(blocks):
    """The same sorted array, lows and spans, and ``None`` on exactly the
    same inputs."""
    _assert_packs_alike(blocks)


@pytest.mark.parametrize(
    "segments, values, packs",
    [
        (1, [0, 2**63 - 2], True),  # span 2**63 - 1
        (2, [0, 2**62 - 1], False),  # 2 * 2**62 is 2**63
        (2, [0, 2**62 - 2], True),
        (1, [-(2**62), 2**62], False),  # span 2**63 + 1
        (7, [0, (2**63 - 1) // 7 - 1], True),  # 7 divides 2**63 - 1
        (64, [5, 5 + 2**57 - 2], True),  # 64 * (2**57 - 1)
        (64, [5, 5 + 2**57 - 1], False),  # 64 * 2**57 is 2**63
    ],
)
def test_packing_on_either_side_of_2_63(segments, values, packs):
    block = kernels.ColumnBlock([np.array(values, dtype=np.int64)], len(values))
    empty = kernels.ColumnBlock([np.empty(0, dtype=np.int64)], 0)
    blocks = [block] * segments
    assert (_assert_packs_alike(blocks) is not None) == packs
    # an empty segment in between changes the segment count, nothing else
    assert (_assert_packs_alike([*blocks, empty]) is not None) == (
        packs and (segments + 1) * (values[1] - values[0] + 1) < 2**63
    )
