"""Tests for Algorithm 1 (integral HyperCube configuration search)."""

import math
import random

import pytest

from repro.hypercube.config import (
    HyperCubeConfig,
    config_from_sizes,
    config_workload,
    enumerate_configs,
    optimize_config,
    round_down_config,
    workload,
)
from repro.hypercube.shares import optimal_fractional_workload
from repro.query.atoms import Variable
from repro.query.catalog import cardinalities_for
from repro.query.parser import parse_query
from repro.workloads.registry import PAPER_ORDER, get_workload

TRIANGLE = parse_query("T(x,y,z) :- R:E(x,y), S:E(y,z), T:E(z,x).")
CLIQUE4 = parse_query(
    "C(x,y,z,p) :- R:E(x,y), S:E(y,z), T:E(z,p), P:E(p,x), K:E(x,z), L:E(y,p)."
)


def uniform(query, size=10**6):
    return {atom.alias: size for atom in query.atoms}


class TestEnumeration:
    def test_all_products_within_budget(self):
        variables = [Variable(n) for n in "abc"]
        for sizes in enumerate_configs(variables, 12):
            assert math.prod(sizes) <= 12
            assert all(s >= 1 for s in sizes)

    def test_count_for_one_variable(self):
        assert len(list(enumerate_configs([Variable("a")], 5))) == 5

    def test_zero_variables_yields_empty_config(self):
        assert list(enumerate_configs([], 10)) == [()]


class TestOptimizeConfig:
    def test_triangle_p64_is_4x4x4(self):
        config = optimize_config(TRIANGLE, uniform(TRIANGLE), 64)
        assert sorted(config.dim_sizes()) == [4, 4, 4]
        assert config.workers_used == 64

    def test_paper_example_p63(self):
        # paper Sec. 4 / Fig. 11b: rounding down gives 3x3x3 (ratio 1.76),
        # the practical algorithm reaches ratio ~1.06
        cards = uniform(TRIANGLE)
        ours = optimize_config(TRIANGLE, cards, 63)
        down = round_down_config(TRIANGLE, cards, 63)
        optimal = optimal_fractional_workload(TRIANGLE, cards, 63)
        ours_ratio = config_workload(TRIANGLE, cards, ours) / optimal
        down_ratio = config_workload(TRIANGLE, cards, down) / optimal
        assert down.dim_sizes() == (3, 3, 3)
        assert down_ratio == pytest.approx(1.76, abs=0.02)
        assert ours_ratio == pytest.approx(1.06, abs=0.02)

    def test_paper_example_clique_on_15_servers(self):
        # paper Sec. 4: fractional shares 15**(1/4) ~ 1.96 all round to 1,
        # collapsing the cube to a single worker; Algorithm 1 keeps
        # parallelism by searching integral configurations directly
        cards = uniform(CLIQUE4)
        down = round_down_config(CLIQUE4, cards, 15)
        assert down.workers_used == 1
        ours = optimize_config(CLIQUE4, cards, 15)
        assert ours.workers_used > 1
        assert config_workload(CLIQUE4, cards, ours) < config_workload(
            CLIQUE4, cards, down
        )

    def test_never_exceeds_worker_budget(self):
        for workers in (2, 5, 7, 16, 63, 64, 65):
            config = optimize_config(TRIANGLE, uniform(TRIANGLE), workers)
            assert config.workers_used <= workers

    def test_tie_break_prefers_even_dimensions(self):
        # A(x, y) self-join where x and y are symmetric: 2x2 and 1x4 give
        # the same expected load but 2x2 must win (more skew-resilient)
        query = parse_query("Q(x,y) :- A(x,y), B(y,x).")
        config = optimize_config(query, {"A": 1000, "B": 1000}, 4)
        assert sorted(config.dim_sizes()) == [2, 2]

    def test_skewed_sizes_choose_broadcast_pattern(self):
        # Q7-like: one tiny relation, three large sharing one variable ->
        # the optimal configuration is 1 x p (paper App. A, Q7: "1 x 64")
        query = parse_query(
            "Q(a) :- N(aw, c), HA(h, aw), HC(h, a), HY(h, y)."
        )
        cards = {"N": 1, "HA": 90_000, "HC": 120_000, "HY": 17_000}
        config = optimize_config(query, cards, 64)
        dims = {v.name: d for v, d in config.dims.items()}
        assert dims["h"] == 64
        assert dims["aw"] == 1

    def test_beats_or_matches_round_down_everywhere(self):
        for workers in (3, 8, 15, 31, 63, 64):
            for query in (TRIANGLE, CLIQUE4):
                cards = uniform(query)
                ours = config_workload(
                    query, cards, optimize_config(query, cards, workers)
                )
                down = config_workload(
                    query, cards, round_down_config(query, cards, workers)
                )
                assert ours <= down + 1e-9


def scan_one_configuration_at_a_time(query, cardinalities, workers):
    """Algorithm 1 as written: one ``workload(c)`` call per configuration."""
    order = tuple(query.join_variables())
    best_sizes, best_load = None, float("inf")
    for sizes in enumerate_configs(order, workers):
        load = workload(query, cardinalities, order, sizes)
        if best_sizes is None or load < best_load - 1e-12:
            best_sizes, best_load = sizes, load
        elif abs(load - best_load) <= 1e-12 and max(sizes) < max(best_sizes):
            best_sizes, best_load = sizes, load
    return best_sizes


class TestArrayLoadsMatchTheScan:
    """``optimize_config`` prices every configuration in one array
    expression per atom; the choice must be the per-configuration scan's,
    near-ties (third-of-a-tuple loads, skewed sizes) included."""

    @pytest.mark.parametrize("workers", [1, 2, 7, 15, 63, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_choice(self, workers, seed):
        rng = random.Random(seed)
        for query in (TRIANGLE, CLIQUE4):
            cards = {
                atom.alias: rng.choice([1, 3, 7, 1000, 10**6 + 1, 999_983])
                for atom in query.atoms
            }
            expected = scan_one_configuration_at_a_time(query, cards, workers)
            assert optimize_config(query, cards, workers).dim_sizes() == expected

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_memoized_configurations_choose_as_the_generator(self, name):
        """The configurations are enumerated once per (variable count,
        workers) and kept; every later call over them, the paper's queries
        at several cluster sizes in any order, chooses what a fresh
        generator scan chooses."""
        workload = get_workload(name)
        cards = cardinalities_for(workload.query, workload.dataset("unit"))
        for workers in (1, 2, 15, 16, 64, 16, 1):
            expected = scan_one_configuration_at_a_time(workload.query, cards, workers)
            chosen = optimize_config(workload.query, cards, workers)
            assert chosen.dim_sizes() == expected

    def test_variable_outside_the_join_counts_as_one(self):
        query = parse_query("Q(a) :- N(aw, c), HA(h, aw), HC(h, a), HY(h, y).")
        cards = {"N": 1, "HA": 90_000, "HC": 120_000, "HY": 17_000}
        expected = scan_one_configuration_at_a_time(query, cards, 64)
        assert optimize_config(query, cards, 64).dim_sizes() == expected


class TestConfigObject:
    def test_dimensionality_counts_nontrivial_dims(self):
        config = config_from_sizes(TRIANGLE, (4, 1, 4))
        assert config.dimensionality() == 2
        assert config.workers_used == 16

    def test_dim_lookup_defaults_to_one(self):
        config = config_from_sizes(TRIANGLE, (4, 4, 4))
        assert config.dim(Variable("nope")) == 1

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ValueError):
            HyperCubeConfig("Q", (Variable("x"),), {Variable("x"): 0})

    def test_size_count_must_match_join_variables(self):
        with pytest.raises(ValueError):
            config_from_sizes(TRIANGLE, (4, 4))
