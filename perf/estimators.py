"""The benchmark's estimators: nearest-rank percentiles, reduced per position.

A workload is a fixed sequence of N operations replayed R times in one
process, so every position has R samples of the *same* deterministic work.
Samples are first divided by the machine slowdown measured during their
replay (``calibrate.py``); what noise is left is two-sided, and each position
is reduced with the median.  Percentiles over positions, and every other
percentile the benchmark reports, are nearest-rank: the ceil(f*n)-th smallest
sample, never an interpolation between two that did not happen.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` quantile by nearest rank: the ceil(f*n)-th smallest."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def lower_quartile(values: Sequence[float]) -> float:
    """Nearest-rank 25th percentile (the 2nd smallest of 5 to 8 samples)."""
    return nearest_rank(values, 0.25)


def median(values: Sequence[float]) -> float:
    """Nearest-rank 50th percentile."""
    return nearest_rank(values, 0.5)


def per_position(
    samples: Sequence[Sequence[float]],
    reduce: Callable[[Sequence[float]], float] = median,
) -> list[float]:
    """Reduce ``samples[replay][position]`` across the replays, per position."""
    if not samples:
        raise ValueError("no replays")
    width = len(samples[0])
    if any(len(replay) != width for replay in samples):
        raise ValueError("replays differ in length")
    return [reduce([replay[i] for replay in samples]) for i in range(width)]


def disturbance(samples: Sequence[Sequence[float]]) -> float:
    """Sum of per-position medians over sum of per-position lower quartiles.

    Computed on raw, uncalibrated samples: 1.0 when every replay took the
    same time, larger the more the box's speed moved *within* the run.
    """
    return sum(per_position(samples, median)) / sum(
        per_position(samples, lower_quartile)
    )
