"""Optimizer accuracy — predicted winner vs. measured winner on Q1-Q8.

The paper's thesis (Secs. 4-5) is that cheap catalog statistics predict the
winning RS/BR/HC x HJ/TJ configuration.  This suite holds the cost-based
optimizer (:mod:`repro.planner.optimizer`) to that claim: for every query
of the evaluation matrix, the strategy it picks from statistics alone must
equal the strategy the measured six-configuration grid crowns (lowest
modeled wall clock among non-failed runs).

The full predicted-vs-measured matrix is written to the repository root.
Only the default configuration (bench scale, 64 workers) writes the
committed ``BENCH_optimizer.json``; any other writes the git-ignored
``BENCH_optimizer.<scale>.w<workers>.json``, so the quick run the CI
``optimizer-accuracy`` job makes (and uploads) never overwrites the
committed artifact.  Reproduce that run locally with::

    REPRO_BENCH_SCALE=unit REPRO_BENCH_WORKERS=16 \
        PYTHONPATH=src python -m pytest benchmarks/test_optimizer_accuracy.py -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from conftest import SCALE, WORKERS, grid_for

from repro.experiments import format_accuracy, optimizer_accuracy
from repro.workloads import PAPER_ORDER

#: the pinned query set the optimizer must get right
PINNED = tuple(PAPER_ORDER)

ARTIFACT = Path(__file__).resolve().parent.parent / (
    "BENCH_optimizer.json"
    if (SCALE, WORKERS) == ("bench", 64)
    else f"BENCH_optimizer.{SCALE}.w{WORKERS}.json"
)


@pytest.fixture(scope="module")
def accuracy_report():
    """The predicted-vs-measured matrix, computed once and written out."""
    grids = {name: grid_for(name) for name in PINNED}
    report = optimizer_accuracy(
        names=PINNED, scale=SCALE, workers=WORKERS, grids=grids
    )
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_accuracy_matrix(accuracy_report, benchmark):
    """Print the matrix and require a perfect score on the pinned set."""
    benchmark.pedantic(lambda: accuracy_report, rounds=1, iterations=1)
    print()
    print(format_accuracy(accuracy_report))
    assert accuracy_report["total"] == len(PINNED)
    assert accuracy_report["accuracy"] == 1.0


@pytest.mark.parametrize("name", PINNED)
def test_predicted_winner_matches_measured(accuracy_report, name):
    """Per-query pin: the optimizer picks the measured winner."""
    row = next(r for r in accuracy_report["queries"] if r["query"] == name)
    assert row["predicted"] == row["measured"], (
        f"{name}: optimizer predicted {row['predicted']} but the measured "
        f"grid crowned {row['measured']}\n"
        f"predicted costs: {row['predicted_wall']}\n"
        f"measured walls:  {row['measured_wall']}"
    )


def test_artifact_written(accuracy_report):
    """The artifact exists and round-trips as JSON."""
    persisted = json.loads(ARTIFACT.read_text())
    assert persisted["queries"] == accuracy_report["queries"]
    assert persisted["accuracy"] == accuracy_report["accuracy"]
