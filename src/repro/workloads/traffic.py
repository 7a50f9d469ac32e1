"""Serving-traffic generation: Zipf-popular mixes of the paper's queries.

Production query traffic is famously skewed — a handful of query shapes
dominate while a long tail trickles in.  The serving benchmark and the
``serve`` CLI command both model that with a Zipf popularity distribution
over the paper's Q1-Q8 workloads: rank ``k`` (1-based, in the order the
caller lists the workloads) is drawn with probability proportional to
``1 / k**exponent``.  ``exponent=0`` degenerates to uniform traffic;
``exponent≈1`` is the classic web-traffic shape the plan cache thrives
on.  Everything is seeded, so a traffic trace is reproducible
bit-for-bit.
"""

from __future__ import annotations

import math
import random
from typing import Sequence


def zipf_weights(count: int, exponent: float) -> list[float]:
    """Unnormalised Zipf weights ``1 / rank**exponent`` for ranks 1..count."""
    if count < 1:
        raise ValueError("need at least one rank")
    return [1.0 / (rank**exponent) for rank in range(1, count + 1)]


def zipf_mix(
    names: Sequence[str], queries: int, exponent: float = 1.0, seed: int = 0
) -> list[str]:
    """A reproducible traffic trace: ``queries`` draws from ``names``.

    ``names[0]`` is the most popular query, ``names[-1]`` the least; the
    same ``(names, queries, exponent, seed)`` always yields the same
    trace.
    """
    if queries < 0:
        raise ValueError(f"queries must be >= 0, got {queries}")
    generator = random.Random(seed)
    weights = zipf_weights(len(names), exponent)
    return generator.choices(list(names), weights=weights, k=queries)


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` quantile of ``values`` by nearest-rank (0 if empty).

    Nearest-rank is the conventional latency-reporting estimator: p99 of
    100 samples is the 99th smallest, not an interpolation between two
    samples that never happened.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    # the ceil(f*n)-th smallest; rounding first drops float noise
    # (0.07 * 100 is 7.000000000000001, whose ceiling would be 8)
    rank = math.ceil(round(fraction * len(ordered), 9))
    return ordered[min(len(ordered), max(1, rank)) - 1]


def latency_summary(values: Sequence[float]) -> dict[str, float]:
    """The standard serving-latency digest: p50 / p95 / p99 / max seconds."""
    return {
        "p50_seconds": percentile(values, 0.50),
        "p95_seconds": percentile(values, 0.95),
        "p99_seconds": percentile(values, 0.99),
        "max_seconds": max(values) if values else 0.0,
    }
