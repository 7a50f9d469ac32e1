"""Self-test of the benchmark: ``python -m pytest perf/ -q``.

Outside tier-1's ``testpaths`` on purpose: it tests the instrument, not the
engine, and its two smoke runs take about a minute and a half.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from estimators import (  # noqa: E402
    disturbance, lower_quartile, median, nearest_rank, per_position,
)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_nearest_rank_takes_the_ceil_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 0.50) == 3.0  # ceil(2.5) = 3rd smallest
    assert nearest_rank(values, 0.90) == 5.0  # ceil(4.5) = 5th
    assert nearest_rank(values, 0.25) == 2.0  # ceil(1.25) = 2nd
    assert nearest_rank(values, 0.0) == 1.0
    assert nearest_rank(values, 1.0) == 5.0
    assert nearest_rank([7.0], 0.9) == 7.0
    hundred = list(range(1, 101))
    assert nearest_rank(hundred, 0.90) == 90
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


def test_lower_quartile_is_second_smallest_of_eight():
    assert lower_quartile([8, 7, 6, 5, 4, 3, 2, 1]) == 2
    assert lower_quartile([3, 1, 2]) == 1  # ceil(0.75) = 1st of three


def test_per_position_median_survives_a_burst_on_three_of_eight_replays():
    true_cost = [1.0, 0.2, 3.0]
    replays = [[c * 1.01 for c in true_cost] for _ in range(8)]
    for burst in (1, 2, 5):  # a neighbour takes the core: +50-90 %
        replays[burst] = [c * (1.4 + 0.1 * burst) for c in true_cost]
    assert per_position(replays) == pytest.approx([c * 1.01 for c in true_cost])
    # the raw samples did move within the run, and the ratio says so
    assert disturbance(replays) == pytest.approx(1.0)
    for burst in (0, 3):  # now five of eight: medians move, quartiles do not
        replays[burst] = [c * 1.5 for c in true_cost]
    assert disturbance(replays) > 1.3


def test_per_position_reduces_per_position_not_per_replay():
    # each replay is disturbed at a different position; no replay is clean
    replays = [[1.0, 1.0, 1.0, 1.0] for _ in range(8)]
    for replay, position in zip(replays, (0, 1, 2, 3, 0, 1, 2, 3)):
        replay[position] = 9.0
    assert per_position(replays) == [1.0, 1.0, 1.0, 1.0]
    assert per_position(replays, lower_quartile) == [1.0, 1.0, 1.0, 1.0]
    assert per_position(replays, max) == [9.0, 9.0, 9.0, 9.0]


def test_per_position_rejects_ragged_replays():
    with pytest.raises(ValueError):
        per_position([[1.0, 2.0], [1.0]])


def test_median_of_few_replays_is_the_lower_middle():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.0  # ceil(0.5 * 4) = 2nd smallest


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(steady, [1.02, 1.03, 1.02, 1.03], "lower", 0.10) == "within"
    assert compare.verdict(steady, [1.20, 1.21, 1.19, 1.20], "lower", 0.10) == "worse"
    assert compare.verdict(steady, [0.80, 0.81, 0.79, 0.80], "lower", 0.10) == "better"
    assert compare.verdict(steady, [0.80, 0.81, 0.79, 0.80], "higher", 0.10) == "worse"
    noisy = [1.0, 1.4, 0.8, 1.3]
    assert compare.verdict(noisy, [1.1, 1.5, 0.9, 1.2], "lower", 0.10) == "unresolved"
    # spread beyond the bound, yet every run of the second beats the first
    assert compare.verdict(noisy, [0.5, 0.7, 0.4, 0.6], "lower", 0.10) == "better"


def test_compare_gates_counts_seed_by_seed():
    first = {1: [100.0, 100.0], 2: [103.0]}
    assert compare.changed_seeds(first, {1: [100.0], 2: [103.0], 3: [99.0]}) == []
    # seed 2 moved by less than any bound between seeds would notice
    assert compare.changed_seeds(first, {1: [100.0], 2: [103.5]}) == [2]


def test_layer_metrics_are_declared_names():
    sys.path.insert(0, str(HERE.parent / "src"))
    import layers

    declared = {metric["name"] for metric in SPEC["per_layer"]}
    owed_by_some = [n for names in layers.LAYER_METRICS.values() for n in names]
    assert len(owed_by_some) == len(set(owed_by_some))
    assert set(owed_by_some) <= declared


def smoke(tmp_path: Path, tag: str) -> dict:
    """One ``run.py --smoke`` over every workload and both passes."""
    out = tmp_path / tag
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    report = json.loads((out / "results.json").read_text())
    assert sorted(path.name for path in out.iterdir()) == sorted(
        ["results.json"]
        + [f"trace-{w['name']}.jsonl" for w in SPEC["workloads"]]
    )
    return {
        "printed": done.stdout, "runs": report["runs"], "report": report,
        "out": out,
    }


@pytest.fixture(scope="module")
def smokes(tmp_path_factory):
    base = tmp_path_factory.mktemp("perf")
    return smoke(base, "one"), smoke(base, "two")


def test_smoke_reports_exactly_the_declared_names(smokes):
    first, _ = smokes
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert {run["workload"] for run in first["runs"]} == workloads
    for run in first["runs"]:
        declared = SPEC["end_to_end" if run["trace"] == 0 else "per_layer"]
        assert list(run["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            assert run["metrics"][metric["name"]]["unit"] == metric["unit"]
            # and every one is printed by name with its unit
            assert any(
                line.startswith(run["workload"])
                and f" {metric['name']} " in line
                and line.endswith(f" {metric['unit']}")
                for line in first["printed"].splitlines()
            ), metric["name"]
        if run["trace"] == 0:
            assert all(m["value"] > 0 for m in run["metrics"].values())
    for key in ("nproc", "affinity", "python", "commit", "loadavg_before",
                "loadavg_after", "seconds"):
        assert key in first["report"]


def test_smoke_counts_repeat_exactly(smokes):
    exact = ("counted_cpu_units", "engine.service.ticks", "leapfrog.seeks",
             "engine.scheduler.tuples_shuffled", "engine.scheduler.rows_out",
             "engine.scheduler.counted_wall_units", "storage.rows_loaded")
    first, second = (
        {
            (run["workload"], name): metric["value"]
            for run in result["runs"]
            for name, metric in run["metrics"].items()
            if name in exact
        }
        for result in smokes
    )
    assert first == second
    assert first["serve_mixed", "engine.service.ticks"] > 0
    assert first["wcoj_cyclic", "leapfrog.seeks"] > 0
    assert first["binary_hash", "leapfrog.seeks"] == 0


def test_trace_spans_account_for_each_cell(smokes):
    out = smokes[0]["out"]
    for workload in ("wcoj_cyclic", "binary_hash", "proc_pool"):
        spans = [
            json.loads(line)
            for line in (out / f"trace-{workload}.jsonl").read_text().splitlines()
        ]
        roots = [s for s in spans if s["name"] == "run_query"]
        assert roots and all(s["parent"] is None and s["op_id"] for s in roots)
        for root in roots:
            children = [s for s in spans if s["parent"] == root["id"]]
            covered = sum(s["end"] - s["start"] for s in children)
            whole = root["end"] - root["start"]
            assert all(s["op_id"] == root["op_id"] for s in children)
            assert 0.95 * whole <= covered <= whole
