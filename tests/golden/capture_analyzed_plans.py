"""Regenerate ``analyzed_plans.json``: rendered EXPLAIN ANALYZE, Q1..Q8.

Run from the repo root when a traced number changes on purpose::

    PYTHONPATH=src python tests/golden/capture_analyzed_plans.py

Every workload runs at unit scale on 8 workers under all six grid
strategies, plus the Sec. 3.6 semijoin plan where the query is acyclic and
the hybrid plan where it has at least four atoms; two more cases pin a
crash-and-retry run and an out-of-memory partial trace.  The snapshot holds
what ``physical_plans.json`` cannot: the per-operator ``tuples in/out``, the
skipped anchor broadcast, and each exchange's shuffle record.
"""

import json
import os

from repro.planner.explain import explain_analyze
from repro.planner.physical import HYBRID_STRATEGY, SEMIJOIN_STRATEGY
from repro.planner.plans import ALL_STRATEGIES
from repro.workloads.registry import PAPER_ORDER, get_workload

OUT_PATH = os.path.join(os.path.dirname(__file__), "analyzed_plans.json")

WORKERS = 8

#: a worker crash in the first join step, recovered by one retry
CRASH_PLAN = {"faults": [{"kind": "crash", "round": "step 1", "worker": 1}]}

#: case key -> (workload, strategy, extra ``explain_analyze`` arguments)
SPECIAL_CASES = {
    "Q1/RS_HJ/crash-retry": (
        "Q1", "RS_HJ", {"faults": CRASH_PLAN, "recovery": "retry"},
    ),
    "Q1/BR_TJ/oom-300": ("Q1", "BR_TJ", {"memory_tuples": 300}),
}


def cases():
    """``(case key, workload name, strategy, extra kwargs)`` in capture order."""
    for name in PAPER_ORDER:
        workload = get_workload(name)
        strategies = [s.name for s in ALL_STRATEGIES]
        if not workload.cyclic:
            strategies.append(SEMIJOIN_STRATEGY)
        if len(workload.query.atoms) >= 4:
            strategies.append(HYBRID_STRATEGY)
        for strategy in strategies:
            yield f"{name}/{strategy}", name, strategy, {}
    for key, (name, strategy, extra) in SPECIAL_CASES.items():
        yield key, name, strategy, extra


def render_case(name: str, strategy: str, extra: dict) -> list[str]:
    """The rendered analysed plan of one case, line by line."""
    workload = get_workload(name)
    plan = explain_analyze(
        workload.query, workload.dataset("unit"),
        strategy=strategy, workers=WORKERS, **extra,
    )
    # the fallback count is an observation of the numpy walk alone (never on
    # the counted clock); without it the render is the same on both backends
    return [
        line
        for line in plan.render().splitlines()
        if not line.startswith("wcoj fallbacks:")
    ]


if __name__ == "__main__":
    snapshots = {
        key: render_case(name, strategy, extra)
        for key, name, strategy, extra in cases()
    }
    with open(OUT_PATH, "w") as handle:
        json.dump(snapshots, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(snapshots)} analysed plans to {OUT_PATH}")
