"""The run index of a packed trie level against the searches it replaces.

The vectorized Tributary walk reads every bound that is not a seek from
:meth:`~repro.leapfrog.vectorized._AtomArrays.index`: the runs inside a
block as ``run_of[lo]`` up to ``run_of[hi]``, and a found key's block end
as the next run start (:meth:`~repro.leapfrog.vectorized._AtomArrays.run_end`).
Each read must be exactly the binary search the walk used to make.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernels import ColumnBlock
from repro.leapfrog.vectorized import _AtomArrays, index_dtype


@st.composite
def packed_batches(draw):
    """One atom's key columns over 1-6 segments: 1-3 levels, values in a
    small range (duplicate prefixes likely), empty and single-row segments
    likely, at least one row in the batch."""
    width = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-3, 3)] * width)
    segments = draw(
        st.lists(st.lists(row, max_size=8), min_size=1, max_size=6).filter(
            lambda drawn: any(drawn)
        )
    )
    blocks = [
        ColumnBlock(
            [np.array([r[d] for r in rows], dtype=np.int64) for d in range(width)],
            len(rows),
        )
        for rows in segments
    ]
    return width, _AtomArrays.pack(blocks)


@given(packed_batches())
@settings(max_examples=200, deadline=None)
def test_the_run_index_reads_what_the_searches_found(drawn):
    width, arrays = drawn
    full = arrays.full
    above = arrays.offsets  # the segments are the blocks above level 0
    for level in range(width):
        runs, run_of = arrays.index(level)
        stride = arrays.strides[level]
        assert runs.dtype == run_of.dtype == index_dtype(full.size)
        assert run_of.size == full.size + 1
        # a block of the level above is a run of this one (trie blocks
        # nest); at every run boundary the index is the search
        assert np.isin(above, runs).all()
        for bound in runs.tolist():
            assert run_of[bound] == runs.searchsorted(bound)
        # at every run start, the next run start is the row past its prefix
        starts = runs[:-1]
        past = (full[starts] // stride + 1) * stride
        assert arrays.run_end(level, starts).tolist() == full.searchsorted(past).tolist()
        above = runs


def test_the_index_dtype_is_int32_below_2_31_rows():
    assert index_dtype(0) == np.int32
    assert index_dtype(2**31 - 1) == np.int32
    assert index_dtype(2**31) == np.int64
    assert index_dtype(2**40) == np.int64
