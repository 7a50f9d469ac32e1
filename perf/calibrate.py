"""Machine-speed calibration: how slow is the box right now?

The sandbox shares its cores with neighbours.  Its speed moves 1.0-1.5x from
one half-minute run to the next and stays off for minutes at a time, and CPU
time inflates with wall time (the core itself runs slower; it is not
descheduling).  No estimator over a run's own samples can see through a
slowdown that outlasts the run, so every measured stretch is divided by the
mean slowdown of the reference blocks taken during it.  What the benchmark
reports as seconds are *reference-speed seconds*: seconds this sandbox would
need at rest.  ``perf/README.md`` has the A/A table, raw against calibrated
on the same samples, that this rests on.

A block mixes three things the engine does a lot of, in equal shares of its
time: interpreter arithmetic, a numpy sort + search, and interpreter-level
pointer chasing through tuples in random order.  Neighbours slow them
differently; on recorded runs any one or two of them left 8-30 % of spread
where the three together left 4-8 %.  All of it is benchmark code, so no
change to the program can move it.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

#: seconds one block needs in a worker on the 2-core sandbox at rest.  It
#: only fixes the unit: every comparison is between two runs divided by the
#: same number.  It cannot be taken from a block at process start instead,
#: because then a slow run would call its own speed 1.0 (tried on recorded
#: runs: spread 20-50 %, worse than no calibration).
REFERENCE_SECONDS = 0.075
#: passes over the three parts per block (~25 ms each at rest)
BLOCK_REPEATS = 3

_KEYS = np.random.default_rng(0).integers(0, 1 << 40, size=60_000)
_ROWS = [(i, i + 1) for i in range(100_000)]
_ORDER = list(range(len(_ROWS)))
random.Random(0).shuffle(_ORDER)
del _ORDER[len(_ORDER) // 2:]


def _arithmetic() -> None:
    total = 0
    for i in range(150_000):
        total += i * i


def _numpy() -> None:
    order = np.argsort(_KEYS, kind="stable")
    np.searchsorted(_KEYS[order], _KEYS[:20_000])


def _chase() -> None:
    rows = _ROWS
    total = 0
    for index in _ORDER:
        total += rows[index][1]


def slowdown() -> float:
    """Run one reference block; 1.0 means the box is at reference speed."""
    started = time.perf_counter()
    for _ in range(BLOCK_REPEATS):
        _arithmetic()
        _numpy()
        _chase()
    return (time.perf_counter() - started) / REFERENCE_SECONDS


class Blocks:
    """The calibration blocks taken during one measured stretch.

    ``seconds`` is what they cost, so the caller can take it back out of
    whatever it was timing.
    """

    def __init__(self) -> None:
        self.slowdowns: list[float] = []
        self.seconds = 0.0

    def take(self) -> None:
        """Run one block now."""
        began = time.perf_counter()
        self.slowdowns.append(slowdown())
        self.seconds += time.perf_counter() - began

    def mean(self) -> float:
        """The mean slowdown over the blocks taken so far."""
        return statistics.fmean(self.slowdowns)
