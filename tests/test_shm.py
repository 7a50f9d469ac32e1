"""Unit tests for the row-list packing of the process runtime's pipe."""

import os

import numpy as np

from repro.engine import runtime as runtime_module
from repro.engine.frame import Frame
from repro.engine.kernels import ColumnBlock
from repro.engine.memory import MemoryBudget
from repro.engine.runtime import (
    ProcessRuntime,
    _decode_payload,
    _encode_payload,
    _SharedFrame,
)
from repro.engine.shm import SHARED_MIN_ROWS, share_rows
from repro.engine.stats import ExecutionStats
from repro.planner.api import run_query
from repro.storage.generators import twitter_database


def _rows(count, width=3):
    return [tuple(i * width + j for j in range(width)) for i in range(count)]


def _segments():
    """The shared-memory segments this platform currently holds."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


class TestShareRows:
    def test_round_trip_preserves_rows_and_order(self):
        rows = _rows(SHARED_MIN_ROWS)
        rows.reverse()
        packed = share_rows(rows)
        assert packed is not None
        assert packed.columns.dtype == np.int64
        assert packed.columns.shape == (3, len(rows))
        assert packed.columns.flags.c_contiguous
        assert packed.load() == rows

    def test_small_blocks_decline(self):
        assert share_rows(_rows(SHARED_MIN_ROWS - 1)) is None
        assert share_rows([]) is None

    def test_ragged_rows_decline(self):
        rows = _rows(SHARED_MIN_ROWS)
        rows[100] = (1,)  # width mismatch: keep the pickle path
        assert share_rows(rows) is None

    def test_non_integer_rows_decline(self):
        rows = _rows(SHARED_MIN_ROWS)
        rows[0] = ("a", "b", "c")
        assert share_rows(rows) is None

    def test_rows_beyond_int64_decline(self):
        rows = _rows(SHARED_MIN_ROWS)
        rows[-1] = (2**63, 0, 1)
        assert share_rows(rows) is None

    def test_zero_width_rows_round_trip(self):
        rows = [()] * SHARED_MIN_ROWS
        packed = share_rows(rows)
        assert packed is not None
        assert packed.columns.shape == (0, SHARED_MIN_ROWS)
        assert packed.load() == rows


def _echo(batch):
    """Ship every worker's inputs straight back."""
    return [(inputs, None) for _, _, inputs in batch]


class TestTransportThroughRuntime:
    """Frames cross to a session child and back intact, whichever side of
    the packing threshold their row lists fall on."""

    # the child runs workers 0 and 2; the driver keeps worker 1's nothing
    PAYLOADS = {
        0: {
            "at": Frame(("x", "y", "z"), _rows(SHARED_MIN_ROWS)),
            "below": Frame(("x", "y", "z"), _rows(SHARED_MIN_ROWS - 1)),
        },
        1: {},
        2: {
            "big": Frame(("x", "y"), _rows(SHARED_MIN_ROWS + 2, width=2)),
            "small": Frame(("x",), _rows(3, width=1)),
        },
    }

    def _echoed(self):
        runtime = ProcessRuntime(processes=2)
        try:
            return runtime.map_local(
                range(3), _echo, self.PAYLOADS, ExecutionStats(workers=3),
                MemoryBudget(),
            )
        finally:
            runtime.close_session()

    def test_large_row_block_returns_packed(self):
        assert self._echoed() == [self.PAYLOADS[worker] for worker in range(3)]

    def test_only_a_frames_large_row_list_is_packed(self):
        at, below = self.PAYLOADS[0]["at"], self.PAYLOADS[0]["below"]
        packed = _encode_payload(at)
        assert isinstance(packed, _SharedFrame)
        assert _decode_payload(packed) == at
        assert _encode_payload(below) is below
        # every slot holds a frame: a bare row list is not a payload kind
        assert _encode_payload(at.rows) is at.rows

    def test_no_segment_is_created(self):
        before = _segments()
        self._echoed()
        assert _segments() - before == set()


class TestAnchorTransport:
    """A broadcast plan's anchor fragments are never exchanged, so they
    reach the session children as the scan made them: a row list under
    python kernels, which crosses packed, and a column block under numpy,
    which pickles as its arrays and is never packed."""

    QUERY = "Q(x,y) :- R:Twitter(x,y), S:Twitter(y,x)."

    def _forked(self, backend, monkeypatch):
        """Whether each ``share_rows`` call packed its rows, and the frames
        the parent encoded for the children; the forked answer must equal
        the serial one and leave ``/dev/shm`` as it was."""
        # two workers, each anchor fragment above the packing threshold
        database = twitter_database(nodes=2_000, edges=2 * SHARED_MIN_ROWS + 2)
        serial = run_query(
            self.QUERY, database, strategy="BR_HJ", workers=2, kernels=backend
        )
        packed, sent = [], []

        def spy(rows):
            result = share_rows(rows)
            packed.append(result is not None)
            return result

        encode = runtime_module._encode_payload

        def spying_encode(item):
            if isinstance(item, Frame):
                sent.append(item)
            return encode(item)

        monkeypatch.setattr(runtime_module, "share_rows", spy)
        monkeypatch.setattr(runtime_module, "_encode_payload", spying_encode)
        before = _segments()
        forked = run_query(
            self.QUERY, database, strategy="BR_HJ", workers=2,
            runtime="parallel:2:proc", kernels=backend,
        )
        assert forked.rows == serial.rows
        assert _segments() - before == set()
        return packed, sent

    def test_anchor_fragments_cross_packed(self, monkeypatch):
        packed, _ = self._forked("python", monkeypatch)
        assert any(packed)

    def test_numpy_anchor_fragments_reach_the_children_as_blocks(self, monkeypatch):
        packed, sent = self._forked("numpy", monkeypatch)
        assert not packed
        assert any(
            isinstance(frame.rows, ColumnBlock) and len(frame) >= SHARED_MIN_ROWS
            for frame in sent
        )
