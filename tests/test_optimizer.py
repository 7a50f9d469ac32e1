"""Tests for the cost-based strategy optimizer and its plan cache.

Covers the two catalog regressions this change fixed (prefix-count cache
misses, empty-selection zero-cardinality handling), the statistics the
optimizer consumes (group histograms, exact join products), the plan
cache's hit/invalidation semantics, the auto-vs-explicit differential
(``strategy="auto"`` must be bit-identical to naming the chosen strategy),
and the predictions themselves: pinned against golden captures, against
the committed accuracy artifact, and against counted executions.
"""

import json
import os

import pytest

from repro.experiments.harness import predict_workload
from repro.leapfrog import variable_order as variable_order_module
from repro.planner import (
    ALL_STRATEGIES,
    AUTO_STRATEGY,
    PlanCache,
    enumerate_decompositions,
    estimate_costs,
    explain,
    lower,
    optimize,
    run_query,
)
from repro.planner.optimizer import TRIVIAL_STRATEGY, normalize_query, price_plan
from repro.query.atoms import Atom, Constant, Variable
from repro.query.catalog import Catalog
from repro.query.parser import parse_query
from repro.storage.generators import twitter_database
from repro.storage.relation import Database, Relation
from repro.workloads.registry import PAPER_ORDER, get_workload
from tests.golden.capture_optimizer_predictions import predict

X, Y, Z = Variable("x"), Variable("y"), Variable("z")

TRIANGLE = parse_query(
    "Q(x, y, z) :- R:Twitter(x, y), S:Twitter(y, z), T:Twitter(z, x)."
)

STRATEGY_NAMES = tuple(s.name for s in ALL_STRATEGIES)


def small_db():
    db = Database()
    db.add_rows(
        "R", ("a", "b"),
        [(1, 10), (1, 20), (2, 10), (2, 10), (3, 30)],
    )
    db.add_rows("S", ("b", "c"), [(10, 100), (10, 200), (20, 100)])
    return db


def graph_db(**overrides):
    params = dict(nodes=400, edges=1600, seed=7)
    params.update(overrides)
    return twitter_database(**params)


# ----------------------------------------------------------------------
# Catalog regressions: the statistics the optimizer feeds on
# ----------------------------------------------------------------------


class TestAtomPrefixCountCache:
    def test_repeated_calls_compute_once(self, monkeypatch):
        catalog = Catalog(small_db())
        atom = Atom("R", (X, Y), alias="R1")
        calls = []
        real = Relation.distinct_count

        def counting(relation, positions):
            calls.append(positions)
            return real(relation, positions)

        monkeypatch.setattr(Relation, "distinct_count", counting)
        first = catalog.atom_prefix_count_positions(atom, [0])
        second = catalog.atom_prefix_count_positions(atom, (0,))
        assert first == second == 3
        assert len(calls) == 1, "second call must hit _atom_prefix_cache"

    def test_constants_key_separate_entries(self):
        catalog = Catalog(small_db())
        plain = Atom("R", (X, Y))
        selected = Atom("R", (Constant(1), Y))
        assert catalog.atom_prefix_count_positions(plain, [1]) == 3
        assert catalog.atom_prefix_count_positions(selected, [1]) == 2
        assert len(catalog._atom_prefix_cache) == 2


class TestFilteredCache:
    def test_filtered_relation_is_reused(self):
        catalog = Catalog(small_db())
        atom = Atom("R", (Constant(1), Y))
        first = catalog._filtered(atom)
        second = catalog._filtered(atom)
        assert first is second
        assert len(catalog._filtered_cache) == 1

    def test_statistics_share_the_filtered_relation(self):
        catalog = Catalog(small_db())
        atom = Atom("R", (Constant(2), Y))
        assert catalog.atom_cardinality(atom) == 2
        assert catalog.atom_prefix_count_positions(atom, [1]) == 1
        assert len(catalog._filtered_cache) == 1


class TestGroupStatistics:
    def test_atom_group_counts_histogram(self):
        catalog = Catalog(small_db())
        atom = Atom("R", (X, Y))
        groups = catalog.atom_group_counts(atom, (0,))
        assert dict(groups) == {(1,): 2, (2,): 2, (3,): 1}

    def test_atom_group_counts_empty_positions(self):
        catalog = Catalog(small_db())
        atom = Atom("R", (X, Y))
        assert dict(catalog.atom_group_counts(atom, ())) == {(): 5}

    def test_atom_max_group_matches_histogram(self):
        catalog = Catalog(small_db())
        atom = Atom("R", (X, Y))
        assert catalog.atom_max_group(atom, (1,)) == 3  # b=10 thrice

    def test_join_group_product_is_exact(self):
        catalog = Catalog(small_db())
        r = Atom("R", (X, Y))
        s = Atom("S", (Y, Z))
        product = catalog.join_group_product(r, (1,), s, (0,))
        # b=10: 3 rows in R, 2 in S; b=20: 1 row in R, 1 in S
        assert product == 3 * 2 + 1 * 1
        # symmetric call hits the mirrored cache entry
        assert catalog.join_group_product(s, (0,), r, (1,)) == product


# ----------------------------------------------------------------------
# Zero-cardinality semantics: empty selections end-to-end
# ----------------------------------------------------------------------


EMPTY_SELECTION = "Q(y, z) :- R:Twitter(999999, y), S:Twitter(y, z)."


class TestEmptySelection:
    def test_catalog_reports_truthful_zero(self):
        catalog = Catalog(graph_db())
        atom = Atom("Twitter", (Constant(999999), Y), alias="R")
        assert catalog.atom_cardinality(atom) == 0

    def test_empty_atoms_lists_the_empty_alias(self):
        query = parse_query(EMPTY_SELECTION)
        catalog = Catalog(graph_db())
        assert catalog.empty_atoms(query) == ("R",)

    def test_estimate_costs_short_circuits_to_trivial(self):
        query = parse_query(EMPTY_SELECTION)
        report = estimate_costs(query, Catalog(graph_db()), workers=16)
        assert report.trivial
        assert report.choice == TRIVIAL_STRATEGY
        assert {c.strategy for c in report.costs} == set(STRATEGY_NAMES)
        assert all(c.wall_clock == 0.0 for c in report.costs)

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES + (AUTO_STRATEGY,))
    def test_run_query_returns_zero_rows(self, strategy):
        result = run_query(
            EMPTY_SELECTION, graph_db(), strategy=strategy, workers=4
        )
        assert result.rows == []
        assert not result.stats.failed

    def test_explain_auto_handles_empty_selection(self):
        explanation = explain(
            EMPTY_SELECTION, graph_db(), workers=4, strategy=AUTO_STRATEGY
        )
        assert explanation.cost_report is not None
        assert explanation.cost_report.trivial
        assert explanation.strategy == TRIVIAL_STRATEGY
        assert "trivial" in explanation.render()


# ----------------------------------------------------------------------
# The cost report
# ----------------------------------------------------------------------


class TestCostReport:
    def test_all_six_strategies_priced(self):
        report = estimate_costs(TRIANGLE, Catalog(graph_db()), workers=16)
        assert {c.strategy for c in report.costs} == set(STRATEGY_NAMES)
        assert report.choice in STRATEGY_NAMES
        assert all(c.wall_clock > 0 for c in report.costs)

    def test_ranking_sorted_by_cost(self):
        report = estimate_costs(TRIANGLE, Catalog(graph_db()), workers=16)
        ranked = report.ranking()
        costs = [entry.cost for entry in ranked]
        assert costs == sorted(costs)
        assert ranked[0].strategy == report.choice

    def test_render_marks_the_choice(self):
        report = estimate_costs(TRIANGLE, Catalog(graph_db()), workers=16)
        rendered = report.render()
        assert "<- chosen" in rendered
        for name in STRATEGY_NAMES:
            assert name in rendered


# ----------------------------------------------------------------------
# The plan cache
# ----------------------------------------------------------------------


class TestPlanCache:
    def test_second_lookup_hits(self):
        db = graph_db()
        catalog = Catalog(db)
        cache = PlanCache()
        first = optimize(TRIANGLE, catalog, workers=8, cache=cache)
        second = optimize(TRIANGLE, catalog, workers=8, cache=cache)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.physical is first.physical
        assert second.report is first.report
        assert cache.hits == 1 and cache.misses == 1 and len(cache) == 1

    def test_rule_rename_still_hits(self):
        renamed = parse_query(
            "Other(x, y, z) :- R:Twitter(x, y), S:Twitter(y, z), "
            "T:Twitter(z, x)."
        )
        assert normalize_query(renamed) == normalize_query(TRIANGLE)
        catalog = Catalog(graph_db())
        cache = PlanCache()
        first = optimize(TRIANGLE, catalog, workers=8, cache=cache)
        hit = optimize(renamed, catalog, workers=8, cache=cache)
        assert hit.cache_hit
        # the hit comes back rebound to the caller's rule; the entry keeps
        # the cached objects for callers of the cached name
        assert hit.physical.query is renamed and hit.report.query is renamed
        assert hit.physical.render().startswith("physical plan Other [")
        assert hit.physical.rounds == first.physical.rounds
        assert optimize(TRIANGLE, catalog, workers=8, cache=cache).physical is first.physical
        db = graph_db()
        run_query(TRIANGLE, db, strategy="auto", workers=8)
        assert run_query(renamed, db, strategy="auto", workers=8).stats.query == "Other"

    def test_data_mutation_changes_fingerprint_and_misses(self):
        db = graph_db()
        cache = PlanCache()
        before = Catalog(db).fingerprint()
        optimize(TRIANGLE, Catalog(db), workers=8, cache=cache)
        relation = db["Twitter"]
        rows = list(relation.rows) + [(999999, 999998)]
        db.add_rows("Twitter", relation.columns, rows)
        after = Catalog(db).fingerprint()
        assert before != after
        refreshed = optimize(TRIANGLE, Catalog(db), workers=8, cache=cache)
        assert not refreshed.cache_hit
        assert cache.misses == 2 and len(cache) == 2

    def test_cluster_shape_keys_separately(self):
        catalog = Catalog(graph_db())
        cache = PlanCache()
        optimize(TRIANGLE, catalog, workers=8, cache=cache)
        other_workers = optimize(TRIANGLE, catalog, workers=16, cache=cache)
        other_memory = optimize(
            TRIANGLE, catalog, workers=8, memory_tuples=10_000, cache=cache
        )
        assert not other_workers.cache_hit
        assert not other_memory.cache_hit
        assert len(cache) == 3

    def test_cache_none_bypasses(self):
        catalog = Catalog(graph_db())
        first = optimize(TRIANGLE, catalog, workers=8, cache=None)
        second = optimize(TRIANGLE, catalog, workers=8, cache=None)
        assert not first.cache_hit and not second.cache_hit

    def test_variable_order_override_bypasses(self):
        catalog = Catalog(graph_db())
        cache = PlanCache()
        ordered = optimize(
            TRIANGLE, catalog, workers=8, variable_order=(X, Y, Z), cache=cache
        )
        assert not ordered.cache_hit
        assert len(cache) == 0, "overridden plans must not poison the cache"

    def test_clear_resets_counters(self):
        catalog = Catalog(graph_db())
        cache = PlanCache()
        optimize(TRIANGLE, catalog, workers=8, cache=cache)
        optimize(TRIANGLE, catalog, workers=8, cache=cache)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0


# ----------------------------------------------------------------------
# Auto vs. explicit: the differential the optimizer must not break
# ----------------------------------------------------------------------


class TestAutoGoldenDifferential:
    @pytest.mark.parametrize(
        "query_text",
        [
            "Q(x, y, z) :- R:Twitter(x, y), S:Twitter(y, z), "
            "T:Twitter(z, x).",
            "Q(x, y) :- R:Twitter(x, y), S:Twitter(y, x).",
        ],
    )
    def test_auto_is_bit_identical_to_chosen_strategy(self, query_text):
        db = graph_db()
        query = parse_query(query_text)
        choice = estimate_costs(query, Catalog(db), workers=8).choice
        auto = run_query(query, db, strategy=AUTO_STRATEGY, workers=8)
        explicit = run_query(query, db, strategy=choice, workers=8)
        assert auto.stats.strategy == choice
        assert auto.rows == explicit.rows
        assert auto.stats.wall_clock == explicit.stats.wall_clock
        assert auto.stats.total_cpu == explicit.stats.total_cpu
        assert auto.stats.tuples_shuffled == explicit.stats.tuples_shuffled

    def test_auto_result_carries_the_cost_report(self):
        db = graph_db()
        result = run_query(TRIANGLE, db, strategy=AUTO_STRATEGY, workers=8)
        assert result.cost_report is not None
        assert result.cost_report.choice == result.stats.strategy


# ----------------------------------------------------------------------
# The predictions: goldens, the committed artifact, counted executions
# ----------------------------------------------------------------------

REPO_ROOT = os.path.dirname(os.path.dirname(__file__))

with open(
    os.path.join(REPO_ROOT, "tests", "golden", "optimizer_predictions.json")
) as _handle:
    GOLDEN_PREDICTIONS = json.load(_handle)


def assert_matches(actual, expected, path):
    """Structural equality with floats held to 1e-9 relative."""
    if isinstance(expected, dict):
        assert set(actual) == set(expected), path
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}/{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), path
        for index, (got, want) in enumerate(zip(actual, expected)):
            assert_matches(got, want, f"{path}[{index}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-9, abs=0.0), path
    else:
        assert actual == expected, path


class TestPredictionGoldens:
    @pytest.mark.parametrize("cell", sorted(GOLDEN_PREDICTIONS))
    def test_estimate_costs_matches_golden(self, cell):
        name, workers = cell.split("/w")
        assert_matches(predict(name, int(workers)), GOLDEN_PREDICTIONS[cell], cell)

    def test_committed_accuracy_artifact_is_reproduced(self):
        """BENCH_optimizer.json (bench scale, 64 workers) is not regenerated
        by a pricing refactor: every predicted wall in it still comes out."""
        with open(os.path.join(REPO_ROOT, "BENCH_optimizer.json")) as handle:
            artifact = json.load(handle)
        assert (artifact["scale"], artifact["workers"]) == ("bench", 64)
        assert [row["query"] for row in artifact["queries"]] == list(PAPER_ORDER)
        for row in artifact["queries"]:
            report = predict_workload(row["query"], "bench", 64)
            assert report.choice == row["predicted"]
            walls = {
                cost.strategy: None if cost.predicted_oom else cost.wall_clock
                for cost in report.costs
            }
            assert_matches(walls, row["predicted_wall"], row["query"])


CARTESIAN = "Q(x, y, z, w) :- R:Twitter(x, y), S:Twitter(z, w)."


class TestCartesianStep:
    @pytest.mark.parametrize("workers", [8, 64])
    def test_predicted_cpu_equals_counted(self, workers):
        """A cartesian step broadcasts its right side: every worker holds
        all of it, so the join is charged for |R| + p*|S| inputs."""
        db = twitter_database(nodes=60, edges=200)
        query = parse_query(CARTESIAN)
        report = estimate_costs(query, Catalog(db), workers=workers)
        counted = run_query(query, db, strategy="RS_HJ", workers=workers)
        predicted = report.cost_of("RS_HJ")
        assert predicted.total_cpu == counted.stats.total_cpu
        assert predicted.tuples_shuffled == counted.stats.tuples_shuffled


class TestOneLoweringPerCandidate:
    @pytest.mark.parametrize("name", ["Q1", "Q6", "Q8"])
    def test_cold_optimize_searches_each_order_once(self, name, monkeypatch):
        """One Sec. 5 order search for the six pure candidates plus one per
        hybrid shape (its residual stage) — and none on a cache hit."""
        workload = get_workload(name)
        catalog = Catalog(workload.dataset("unit"))
        searches = []
        real = variable_order_module.best_join_order

        def counting(query, *args, **kwargs):
            searches.append(query.name)
            return real(query, *args, **kwargs)

        # every lowering, hybrid included, resolves its order in physical.py
        for module in ("repro.planner.optimizer", "repro.planner.physical"):
            monkeypatch.setattr(f"{module}.best_join_order", counting)
        cache = PlanCache()
        cold = optimize(workload.query, catalog, workers=8, cache=cache)
        shapes = enumerate_decompositions(workload.query)
        assert len(searches) == 1 + len(shapes)
        searches.clear()
        warm = optimize(workload.query, catalog, workers=8, cache=cache)
        assert warm.cache_hit and warm.physical is cold.physical
        assert searches == []

    def test_optimize_returns_the_plan_its_winning_row_priced(self):
        catalog = Catalog(graph_db())
        optimized = optimize(TRIANGLE, catalog, workers=8, cache=None)
        assert optimized.physical is optimized.report.cost_of(
            optimized.choice
        ).physical
        explicit = lower(TRIANGLE, optimized.choice, catalog)
        assert optimized.physical.rounds == explicit.rounds
        assert optimized.physical.render() == explicit.render()


class TestPricePlan:
    def test_prices_an_explicitly_lowered_plan_like_the_report(self):
        catalog = Catalog(graph_db())
        report = estimate_costs(TRIANGLE, catalog, workers=16)
        for name in STRATEGY_NAMES:
            priced = price_plan(lower(TRIANGLE, name, catalog), catalog, workers=16)
            assert priced == report.cost_of(name)

    def test_operator_without_a_rule_raises(self):
        db = graph_db()
        path = parse_query("Q(x, z) :- R:Twitter(x, y), S:Twitter(y, z).")
        with pytest.raises(TypeError, match="no cost rule"):
            price_plan(lower(path, "SJ_HJ", Catalog(db)), Catalog(db), workers=8)
