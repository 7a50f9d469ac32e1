"""Unit tests for the shared-memory row transport of the process runtime."""

import os

import pytest

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
        handle = share_rows(rows)
        assert handle is not None
        assert (handle.count, handle.width) == (len(rows), 3)
        assert handle.load() == rows

    def test_segment_released_after_load(self):
        from multiprocessing import shared_memory

        handle = share_rows(_rows(SHARED_MIN_ROWS))
        handle.load()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.name)

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

    def test_zero_width_rows_round_trip(self):
        rows = [()] * SHARED_MIN_ROWS
        handle = share_rows(rows)
        assert handle is not None
        assert handle.load() == rows


def _echo(batch):
    """Ship every worker's inputs straight back."""
    return [(inputs, None) for _, _, inputs in batch]


class TestTransportThroughRuntime:
    """Frames cross to a session child and back intact, whichever side of
    the shared-memory threshold their row lists fall on."""

    PAYLOADS = {
        0: {"at": Frame(("x", "y", "z"), _rows(SHARED_MIN_ROWS))},
        1: {"below": Frame(("x", "y", "z"), _rows(SHARED_MIN_ROWS - 1))},
        2: {
            "big": Frame(("x", "y"), _rows(SHARED_MIN_ROWS + 2, width=2)),
            "small": Frame(("x",), _rows(3, width=1)),
        },
    }

    def _echoed(self):
        return ProcessRuntime(processes=2).map_local(
            range(3), _echo, self.PAYLOADS, ExecutionStats(workers=3),
            MemoryBudget(),
        )

    def test_large_row_block_returns_through_shared_memory(self):
        assert self._echoed() == [self.PAYLOADS[worker] for worker in range(3)]

    def test_only_a_frames_large_row_list_is_parked(self):
        at, below = self.PAYLOADS[0]["at"], self.PAYLOADS[1]["below"]
        parked = _encode_payload(at)
        assert isinstance(parked, _SharedFrame)
        assert _decode_payload(parked) == at  # also unlinks the segment
        assert _encode_payload(below) is below
        # every slot holds a frame: a bare row list is not a payload kind
        assert _encode_payload(at.rows) is at.rows

    def test_no_segments_leak(self):
        before = _segments()
        self._echoed()
        assert _segments() - before == set()


class TestAnchorTransport:
    """A broadcast plan's anchor fragments are never exchanged, so they
    reach the session children as the scan made them: a row list under
    python kernels, which crosses through shared memory, and a column block
    under numpy, which pickles as its arrays and never asks for a segment."""

    QUERY = "Q(x,y) :- R:Twitter(x,y), S:Twitter(y,x)."

    def _forked(self, backend, monkeypatch):
        """The serial and the forked answers, whether each ``share_rows``
        call made a segment, and the frames the parent encoded for the
        children."""
        # two workers, each anchor fragment above the sharing threshold
        database = twitter_database(nodes=2_000, edges=2 * SHARED_MIN_ROWS + 2)
        serial = run_query(
            self.QUERY, database, strategy="BR_HJ", workers=2, kernels=backend
        )
        shared, sent = [], []

        def spy(rows):
            handle = share_rows(rows)
            shared.append(handle is not None)
            return handle

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
        return shared, sent

    def test_anchor_fragments_cross_through_shared_memory(self, monkeypatch):
        shared, _ = self._forked("python", monkeypatch)
        assert any(shared)

    def test_numpy_anchor_fragments_reach_the_children_as_blocks(self, monkeypatch):
        shared, sent = self._forked("numpy", monkeypatch)
        assert not shared
        assert any(
            isinstance(frame.rows, ColumnBlock) and len(frame) >= SHARED_MIN_ROWS
            for frame in sent
        )
