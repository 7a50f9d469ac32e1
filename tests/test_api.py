"""Tests for the top-level run_query API."""

import pytest

from repro.experiments.harness import run_grid
from repro.planner.api import make_cluster, run_query
from repro.planner.plans import HC_TJ
from repro.storage.generators import twitter_database
from repro.workloads import Q1

TRIANGLE_TEXT = (
    "T(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z), T:Twitter(z,x)."
)


@pytest.fixture(scope="module")
def db():
    return twitter_database(nodes=150, edges=600, seed=2)


class TestRunQuery:
    def test_accepts_query_text(self, db):
        result = run_query(TRIANGLE_TEXT, db, strategy="HC_TJ", workers=4)
        assert not result.failed
        assert result.stats.strategy == "HC_TJ"

    def test_accepts_parsed_query(self, db):
        result = run_query(Q1, db, strategy="RS_HJ", workers=4)
        assert result.stats.query == "Q1"

    def test_accepts_strategy_object(self, db):
        result = run_query(Q1, db, strategy=HC_TJ, workers=4)
        assert result.stats.strategy == "HC_TJ"

    def test_semijoin_strategy_string(self, db):
        query = "P(x, z) :- R:Twitter(x, y), S:Twitter(y, z)."
        result = run_query(query, db, strategy="SJ_HJ", workers=4)
        reference = run_query(query, db, strategy="RS_HJ", workers=4)
        assert set(result.rows) == set(reference.rows)

    def test_unknown_strategy_rejected(self, db):
        with pytest.raises(ValueError, match="valid"):
            run_query(Q1, db, strategy="XX_YY", workers=2)

    def test_memory_budget(self, db):
        result = run_query(Q1, db, strategy="RS_TJ", workers=2, memory_tuples=20)
        assert result.failed

    def test_explicit_variable_order(self, db):
        from repro.query.atoms import Variable

        order = (Variable("z"), Variable("x"), Variable("y"))
        result = run_query(Q1, db, strategy="HC_TJ", workers=4, variable_order=order)
        reference = run_query(Q1, db, strategy="HC_TJ", workers=4)
        assert set(result.rows) == set(reference.rows)
        assert result.variable_order == order


class TestRunGrid:
    def test_runs_six_configurations(self, db):
        results = run_grid(Q1, db, workers=4).results
        assert len(results) == 6
        row_sets = {frozenset(r.rows) for r in results.values()}
        assert len(row_sets) == 1


def test_make_cluster_loads_database(db):
    cluster = make_cluster(db, workers=3)
    assert cluster.workers == 3
    assert sum(len(f) for f in cluster.fragments("Twitter")) == len(db["Twitter"])
