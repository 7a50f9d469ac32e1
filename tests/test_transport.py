"""The session pipe's framing (``engine/runtime.py``'s ``_send``/``_recv``).

A message is a protocol-5 pickle whose contiguous array buffers of
``OUT_OF_BAND_MIN`` bytes or more cross the pipe after it, out of band;
smaller buffers and strided views stay inside the pickle.  Every case
round-trips over an in-process ``multiprocessing.Pipe()`` and checks the
values, dtypes and shapes that arrive, that every received array is
writable, and how many buffers left the pickle.
"""

import os
import struct
import threading
from multiprocessing import Pipe

import numpy as np
import pytest

from repro.engine import runtime as runtime_module
from repro.engine.frame import Frame
from repro.engine.kernels import ColumnBlock
from repro.engine.memory import MemoryBudget, OutOfMemoryError
from repro.engine.runtime import (
    OUT_OF_BAND_MIN,
    ProcessRuntime,
    _open_ledger,
    _recv,
    _send,
)
from repro.engine.stats import ExecutionStats
from repro.query.atoms import Variable

VARIABLES = (Variable("x"), Variable("y"), Variable("z"))


class _Recording:
    """A sending connection end that keeps the first message of each
    :func:`_send` — the pickle with the out-of-band sizes past its end."""

    def __init__(self, connection) -> None:
        self.connection = connection
        self.headers = []

    def send_bytes(self, data) -> None:
        self.headers.append(bytes(data))
        self.connection.send_bytes(data)

    def fileno(self) -> int:
        return self.connection.fileno()


def _round_trip(message):
    """``message`` as received, and the sizes of its out-of-band buffers."""
    left, right = Pipe()
    sender = _Recording(left)
    # a message may be larger than the pipe holds: send from another thread
    thread = threading.Thread(target=_send, args=(sender, message))
    thread.start()
    try:
        received = _recv(right)
    finally:
        thread.join()
        left.close()
        right.close()
    (header,) = sender.headers
    (count,) = struct.unpack_from("<I", header, len(header) - 4)
    sizes = struct.unpack_from(f"<{count}Q", header, len(header) - 4 - 8 * count)
    return received, sizes


def _block(rows: int, width: int = 3) -> ColumnBlock:
    return ColumnBlock(
        [np.arange(rows, dtype=np.int64) * (k + 1) for k in range(width)], rows
    )


def _assert_same_block(received: ColumnBlock, sent: ColumnBlock) -> None:
    assert isinstance(received, ColumnBlock)
    assert received.length == sent.length
    assert len(received.columns) == len(sent.columns)
    for got, want in zip(received.columns, sent.columns):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.flags.writeable


@pytest.mark.parametrize(
    "block, out_of_band",
    [
        pytest.param(_block(10_000), [80_000] * 3, id="above_64KiB"),
        pytest.param(_block(100), [], id="below_64KiB"),
        pytest.param(_block(OUT_OF_BAND_MIN // 8 - 1, 1), [], id="just_below"),
        pytest.param(
            _block(OUT_OF_BAND_MIN // 8, 1), [OUT_OF_BAND_MIN], id="at_threshold"
        ),
        pytest.param(
            _block(20_000)[2_000:18_000], [128_000] * 3, id="contiguous_slice"
        ),
        pytest.param(_block(20_000)[::2], [], id="strided_view"),
        pytest.param(_block(0), [], id="empty"),
        pytest.param(ColumnBlock([], 5), [], id="zero_width"),
    ],
)
def test_a_frame_crosses_with_its_large_buffers_out_of_band(block, out_of_band):
    received, sizes = _round_trip(Frame(VARIABLES[: len(block.columns)], block))
    assert list(sizes) == out_of_band
    assert received.variables == VARIABLES[: len(block.columns)]
    _assert_same_block(received.rows, block)


def test_a_reply_with_a_ledger_and_an_error_crosses_whole():
    ledger = _open_ledger(1, MemoryBudget(per_worker_tuples=10))
    ledger.stats.charge(1, 2.5, "join")
    ledger.stats.record_memory(1, 7)
    error = OutOfMemoryError(1, "join", 11, 10)
    frame = Frame(VARIABLES, _block(10_000))
    message = {"ledger": ledger, "error": error, "frame": frame}
    received, sizes = _round_trip(message)
    assert list(sizes) == [80_000] * 3
    assert received["ledger"] == ledger
    assert type(received["error"]) is OutOfMemoryError
    assert str(received["error"]) == str(error)
    assert (received["error"].worker, received["error"].phase) == (1, "join")
    _assert_same_block(received["frame"].rows, frame.rows)


def test_the_stop_message_crosses():
    assert _round_trip(None) == (None, ())


def _large_reply_from_worker_1(batch):
    """Worker 1's executor replies with out-of-band buffers; others do not."""
    rows = 10_000 if any(worker == 1 for worker, _, _ in batch) else 10
    return [(_block(rows), None) for _ in batch]


def test_a_child_dying_between_header_and_buffers_fails_its_first_worker(
    monkeypatch,
):
    """A child that exits after its reply's pickle but before the buffers is
    reported exactly like one that never replied."""
    driver = os.getpid()
    write, readv = os.write, os.readv
    reads = []

    def exit_in_a_child(fd, data):
        # only an out-of-band buffer is this large
        if os.getpid() != driver and memoryview(data).nbytes >= OUT_OF_BAND_MIN:
            os._exit(1)
        return write(fd, data)

    def recording_readv(fd, buffers):
        reads.append(readv(fd, buffers))
        return reads[-1]

    monkeypatch.setattr(runtime_module.os, "write", exit_in_a_child)
    monkeypatch.setattr(runtime_module.os, "readv", recording_readv)
    runtime = ProcessRuntime(processes=3)  # batches [0, 3], [1] and [2]
    runtime.open_session()
    try:
        doomed = runtime._session[1].process.pid
        with pytest.raises(
            RuntimeError, match=rf"session child {doomed} died \(exit code 1\)"
        ):
            runtime.map_local(
                range(4), _large_reply_from_worker_1, dict.fromkeys(range(4)),
                ExecutionStats(workers=4), MemoryBudget(per_worker_tuples=None),
            )
        assert reads == [0]  # the pickle arrived, its first buffer never did
        assert runtime._session is None
    finally:
        runtime.close_session()
