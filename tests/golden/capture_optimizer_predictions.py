"""Regenerate ``optimizer_predictions.json``: predicted costs, Q1..Q8.

Run from the repo root when a prediction changes on purpose::

    PYTHONPATH=src python tests/golden/capture_optimizer_predictions.py

Every workload is priced by :func:`~repro.planner.optimizer.estimate_costs`
against its unit-scale catalog at 8 and 64 workers, exactly as a cold
``optimize()`` prices it (greedy left-deep plan, Sec. 5 variable order, no
memory budget).  Each cell records the six pure rows, the pure ``choice``,
and — Q4 excepted, whose hybrid search alone takes longer than the rest of
the capture — the cheapest hybrid row with the choice it competes for.
"""

import json
import os

from repro.planner.optimizer import StrategyCost, estimate_costs
from repro.query.catalog import Catalog
from repro.workloads.registry import PAPER_ORDER, get_workload

OUT_PATH = os.path.join(os.path.dirname(__file__), "optimizer_predictions.json")

WORKER_COUNTS = (8, 64)

#: workloads whose hybrid search is too slow to price in a unit test
NO_HYBRID = ("Q4",)


def cost_row(cost: StrategyCost) -> dict:
    """One cost row as JSON (``strategy`` is the key it is stored under)."""
    return {
        "wall_clock": cost.wall_clock,
        "total_cpu": cost.total_cpu,
        "tuples_shuffled": cost.tuples_shuffled,
        "peak_memory": cost.peak_memory,
        "intermediate_sizes": list(cost.intermediate_sizes),
        "predicted_oom": cost.predicted_oom,
        "detail": cost.detail,
    }


def predict(name: str, workers: int) -> dict:
    """The golden cell of one workload at one cluster size."""
    workload = get_workload(name)
    catalog = Catalog(workload.dataset("unit"))
    report = estimate_costs(workload.query, catalog, workers=workers)
    cell = {
        "choice": report.choice,
        "costs": {cost.strategy: cost_row(cost) for cost in report.costs},
    }
    if name not in NO_HYBRID:
        searched = estimate_costs(
            workload.query, catalog, workers=workers, hybrid=True
        )
        cell["hybrid_choice"] = searched.choice
        cell["hybrids"] = {
            cost.strategy: cost_row(cost) for cost in searched.hybrids
        }
    return cell


def capture() -> dict[str, dict]:
    """Every ``<workload>/w<workers>`` cell."""
    return {
        f"{name}/w{workers}": predict(name, workers)
        for name in PAPER_ORDER
        for workers in WORKER_COUNTS
    }


if __name__ == "__main__":
    cells = capture()
    with open(OUT_PATH, "w") as handle:
        json.dump(cells, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(cells)} prediction cells to {OUT_PATH}")
