"""Per-operator work stays per operator.

Under numpy kernels a Tributary join round prepares its query once and
walks the workers' frame columns directly, a Scan derives its atom's
selection once, and ``finalize`` de-duplicates the result block once.  The
construction counts below are what that buys; the bag cases pin the one
de-duplication against the tuple-level ``dict.fromkeys`` it replaced.
"""

import os
import random
from collections import Counter

import pytest

from repro.engine.scheduler import PlanExecution
from repro.leapfrog.iterator import TrieIterator
from repro.leapfrog.tributary import TributaryJoin
from repro.planner.api import run_query
from repro.planner.plans import ALL_STRATEGIES
from repro.query.atoms import Atom
from repro.query.parser import parse_query
from repro.storage.relation import Database, Relation
from repro.storage.sorted import SortedRelation
from repro.workloads.registry import get_workload

RUNTIME = os.environ.get("REPRO_DIFF_RUNTIME", "serial")

SPIED = (
    (TributaryJoin, "__init__"),
    (SortedRelation, "__init__"),
    (TrieIterator, "__init__"),
    (Atom, "selection"),
)


@pytest.fixture
def built(monkeypatch):
    """Counts of every spied construction and ``Atom.selection`` call."""
    counts = Counter()
    for owner, name in SPIED:
        original = getattr(owner, name)

        def spy(*args, _original=original, _key=owner.__name__, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return counts


def _unit_run(name, strategy, kernels):
    workload = get_workload(name)
    result = run_query(
        workload.query, workload.dataset("unit"), strategy=strategy,
        workers=64, runtime="serial", kernels=kernels,
    )
    assert result.rows and not result.failed
    return result


class TestNothingBuiltPerWorker:
    """At 64 workers the numpy path builds no join, sorted store or trie
    iterator, and calls ``Atom.selection`` once per Scan plus once in
    planning (preparing every worker's join built 64 / 192 / 192 and made
    385 calls for Q1 under HC_TJ, 64 / 320 / 320 and 641 for Q6)."""

    @pytest.mark.parametrize(
        "name, strategy, selections",
        [("Q1", "HC_TJ", 4), ("Q6", "HC_TJ", 6), ("Q1", "RS_TJ", 4)],
    )
    def test_numpy(self, built, name, strategy, selections):
        _unit_run(name, strategy, "numpy")
        assert built["TributaryJoin"] == 0
        assert built["SortedRelation"] == 0
        assert built["TrieIterator"] == 0
        assert built["Atom"] == selections

    def test_python_still_builds_one_join_per_worker(self, built):
        result = _unit_run("Q1", "HC_TJ", "python")
        workers = result.hc_config.workers_used
        assert workers == 64
        assert built["TributaryJoin"] == workers
        assert built["SortedRelation"] == built["TrieIterator"] == 3 * workers


# ----------------------------------------------------------------------
# De-duplication over a stored bag
# ----------------------------------------------------------------------


def _bag():
    """60 rows of ``E(a, b)`` over 8 ids: duplicates and triangles."""
    rng = random.Random(6)
    rows = [(rng.randrange(8), rng.randrange(8)) for _ in range(60)]
    assert len(set(rows)) < len(rows)
    database = Database()
    database.add(Relation("E", ("a", "b"), rows))
    return database


TRIANGLE = "Q(x,y,z) :- R:E(x,y), S:E(y,z), T:E(z,x)."
PROJECTED = "Q(x) :- R:E(x,y), S:E(y,z), T:E(z,x)."
TWO_PATH = "Q(x,z) :- R:E(x,y), S:E(y,z)."

STRATEGIES = [strategy.name for strategy in ALL_STRATEGIES]
CASES = (
    [(TRIANGLE, strategy) for strategy in ("HC_TJ", "HC_HJ")]
    + [(PROJECTED, strategy) for strategy in STRATEGIES]
    + [(TWO_PATH, strategy) for strategy in (*STRATEGIES, "SJ_HJ")]
)


@pytest.mark.parametrize("text, strategy", CASES)
def test_finalize_deduplicates_a_bag_like_dict_fromkeys(text, strategy, monkeypatch):
    """Rows, their order and ``result_count`` match across kernels, and
    equal ``dict.fromkeys`` of the rows before de-duplication."""
    finalize = PlanExecution.finalize
    before = []

    def spy(self):
        head = self.plan.head_indices
        rows = [
            tuple(row) if head is None else tuple(row[i] for i in head)
            for frame in self._state.slots[self.plan.result]
            for row in frame.rows
        ]
        before.append(rows)
        return finalize(self)

    monkeypatch.setattr(PlanExecution, "finalize", spy)
    database = _bag()
    results = {
        kernels: run_query(
            parse_query(text), database, strategy=strategy, workers=4,
            runtime=RUNTIME, kernels=kernels,
        )
        for kernels in ("python", "numpy")
    }
    python, numpy = results["python"], results["numpy"]
    assert python.rows == numpy.rows
    assert python.stats.result_count == numpy.stats.result_count == len(numpy.rows)
    assert before[0] == before[1]
    assert numpy.rows == list(dict.fromkeys(before[1]))
    assert numpy.rows
