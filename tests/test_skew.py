"""Tests for heavy-hitter detection and the skew-resilient shuffle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.ablation_skew import detect_heavy_hitters, skew_resilient_shuffle
from repro.engine.frame import Frame
from repro.engine.hash_join import symmetric_hash_join
from repro.engine.stats import ExecutionStats
from repro.query.atoms import Variable

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def frames_of(rows, variables, workers=3):
    out = [[] for _ in range(workers)]
    for index, row in enumerate(rows):
        out[index % workers].append(row)
    return [Frame(tuple(variables), rows) for rows in out]


class TestDetection:
    def test_flags_dominant_value(self):
        rows = [(i, 7) for i in range(90)] + [(i, i) for i in range(10)]
        frames = frames_of(rows, (X, Y))
        heavy = detect_heavy_hitters(frames, [Y], workers=4)
        assert (7,) in heavy
        assert len(heavy) == 1

    def test_uniform_data_has_no_heavy_hitters(self):
        rows = [(i, i) for i in range(100)]
        frames = frames_of(rows, (X, Y))
        assert detect_heavy_hitters(frames, [Y], workers=4) == set()

    def test_threshold_factor(self):
        rows = [(i, i % 4) for i in range(100)]  # each key has 25 of 100
        frames = frames_of(rows, (X, Y))
        # avg worker load = 25; factor 0.9 flags every key, 1.1 flags none
        assert len(detect_heavy_hitters(frames, [Y], 4, factor=0.9)) == 4
        assert detect_heavy_hitters(frames, [Y], 4, factor=1.1) == set()

    def test_empty_input(self):
        assert detect_heavy_hitters([], [Y], 4) == set()
        assert detect_heavy_hitters(frames_of([], (X, Y)), [Y], 4) == set()


class TestSkewResilientShuffle:
    def _join_all(self, build, probe, workers):
        rows = []
        for worker in range(workers):
            out = symmetric_hash_join(
                build[worker], probe[worker], [Y], worker, ExecutionStats(), "j"
            )
            rows.extend(out.rows)
        return rows

    def test_results_complete_and_unique_with_heavy_keys(self):
        build_rows = [(i, 7) for i in range(50)] + [(100 + i, i) for i in range(5)]
        probe_rows = [(7, j) for j in range(20)] + [(i, 900 + i) for i in range(5)]
        build = frames_of(build_rows, (X, Y))
        probe = frames_of(probe_rows, (Y, Z))
        stats = ExecutionStats()
        b_out, p_out, heavy = skew_resilient_shuffle(
            build, probe, [Y], 4, stats, "skew", "p"
        )
        assert (7,) in heavy
        joined = self._join_all(b_out, p_out, 4)
        expected = [
            (x, y, z)
            for (x, y) in build_rows
            for (y2, z) in probe_rows
            if y == y2
        ]
        assert sorted(joined) == sorted(expected)
        assert len(joined) == len(expected)  # exactly-once

    def test_consumer_skew_reduced(self):
        # one giant key: plain hashing puts everything on one worker
        build_rows = [(i, 7) for i in range(200)]
        probe_rows = [(7, j) for j in range(10)]
        stats = ExecutionStats()
        b_out, _, _ = skew_resilient_shuffle(
            frames_of(build_rows, (X, Y)),
            frames_of(probe_rows, (Y, Z)),
            [Y],
            4,
            stats,
            "skew",
            "p",
        )
        build_record = stats.shuffles[0]
        assert build_record.consumer_skew < 1.2  # split round-robin

        from repro.engine.shuffle import regular_shuffle

        plain_stats = ExecutionStats()
        regular_shuffle(
            frames_of(build_rows, (X, Y)), [Y], 4, plain_stats, "plain", "p"
        )
        assert plain_stats.shuffles[0].consumer_skew == pytest.approx(4.0)

    @given(
        st.lists(st.tuples(st.integers(0, 20), st.integers(0, 3)), max_size=60),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 20)), max_size=60),
    )
    @settings(max_examples=40)
    def test_join_equivalence_property(self, build_rows, probe_rows):
        workers = 3
        stats = ExecutionStats()
        if not build_rows or not probe_rows:
            return
        b_out, p_out, _ = skew_resilient_shuffle(
            frames_of(build_rows, (X, Y), workers),
            frames_of(probe_rows, (Y, Z), workers),
            [Y],
            workers,
            stats,
            "skew",
            "p",
            factor=1.0,
        )
        joined = self._join_all(b_out, p_out, workers)
        expected = sorted(
            (x, y, z)
            for (x, y) in build_rows
            for (y2, z) in probe_rows
            if y == y2
        )
        assert sorted(joined) == expected
