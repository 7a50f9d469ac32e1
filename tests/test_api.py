"""Tests for the top-level run_query API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.harness import run_grid
from repro.planner.api import make_cluster, run_query
from repro.planner.plans import HC_TJ
from repro.storage.generators import twitter_database
from repro.storage.relation import Database
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


class TestValueDomain:
    """The python kernel backend computes over arbitrary ints; the numpy
    backend's columns are int64, and a value outside is named."""

    EDGES = [(1, 2), (2, 2**63), (2**63, 1), (2, 3)]
    TRIANGLES = {(1, 2, 2**63), (2, 2**63, 1), (2**63, 1, 2)}
    QUERY = "T(x,y,z) :- R(x,y), S(y,z), T(z,x)."

    def database(self):
        database = Database()
        for name in "RST":
            database.add_rows(name, ("a", "b"), self.EDGES)
        return database

    @pytest.mark.parametrize("strategy", ["RS_HJ", "HC_TJ"])
    def test_python_backend_answers_beyond_int64(self, strategy):
        result = run_query(
            self.QUERY, self.database(), strategy=strategy, workers=4,
            kernels="python",
        )
        assert len(result.rows) == 3 and set(result.rows) == self.TRIANGLES

    @pytest.mark.parametrize("strategy", ["RS_HJ", "HC_TJ"])
    def test_numpy_backend_names_the_value_it_cannot_hold(self, strategy):
        with pytest.raises(
            ValueError, match=rf"value {2**63} does not fit int64.*numpy"
        ):
            run_query(
                self.QUERY, self.database(), strategy=strategy, workers=4,
                kernels="numpy",
            )


class TestScipyLoadsWithTheFirstLP:
    """No query path solves an LP, so a process that only answers queries
    never pays for importing the solver (``pyproject.toml`` bans a top-level
    scipy import under ``src/``; ruff is not everywhere, this runs anywhere)."""

    SCRIPT = """
import sys
import repro
from repro.query.hypergraph import Hypergraph
from repro.workloads import Q1

database = repro.twitter_database(nodes=60, edges=240, seed=2)
for strategy in ("HC_TJ", "RS_HJ", "BR_TJ", "auto"):
    assert not repro.run_query(Q1, database, strategy=strategy, workers=4).failed
assert "scipy" not in sys.modules, "a query path imported scipy"
sizes = {atom.alias: 240 for atom in Q1.atoms}
shares = repro.fractional_shares(Q1, sizes, 64).shares
assert all(abs(share - 4.0) < 1e-6 for share in shares.values()), shares
assert abs(Hypergraph(Q1).agm_bound(sizes) - 240 ** 1.5) < 1e-3
assert "scipy.optimize" in sys.modules
"""

    def test_fresh_process_answers_queries_without_scipy(self):
        source = str(Path(repro.__file__).resolve().parent.parent)
        inherited = os.environ.get("PYTHONPATH")
        path = os.pathsep.join([source, inherited] if inherited else [source])
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
