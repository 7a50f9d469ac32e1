"""Tests for fractional HyperCube shares (Beame et al. LP)."""

import pytest

from repro.hypercube.shares import (
    expected_load,
    fractional_shares,
    optimal_fractional_workload,
    replication_factor,
)
from repro.query.atoms import Variable
from repro.query.parser import parse_query

TRIANGLE = parse_query("T(x,y,z) :- R:E(x,y), S:E(y,z), T:E(z,x).")
CLIQUE4 = parse_query(
    "C(x,y,z,p) :- R:E(x,y), S:E(y,z), T:E(z,p), P:E(p,x), K:E(x,z), L:E(y,p)."
)

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def uniform(query, size):
    return {atom.alias: size for atom in query.atoms}


class TestFractionalShares:
    def test_triangle_p64(self):
        result = fractional_shares(TRIANGLE, uniform(TRIANGLE, 10**6), 64)
        for share in result.shares.values():
            assert share == pytest.approx(4.0, rel=1e-3)

    def test_clique4_p16_fourth_root(self):
        result = fractional_shares(CLIQUE4, uniform(CLIQUE4, 10**6), 16)
        for share in result.shares.values():
            assert share == pytest.approx(2.0, rel=1e-3)

    def test_exponents_sum_to_one(self):
        result = fractional_shares(TRIANGLE, uniform(TRIANGLE, 1000), 63)
        assert sum(result.exponents.values()) == pytest.approx(1.0, abs=1e-6)

    def test_share_defaults_to_one_for_unknown_variable(self):
        result = fractional_shares(TRIANGLE, uniform(TRIANGLE, 1000), 64)
        assert result.share(Variable("nope")) == 1.0

    def test_single_server(self):
        result = fractional_shares(TRIANGLE, uniform(TRIANGLE, 1000), 1)
        assert all(s == 1.0 for s in result.shares.values())

    def test_no_join_variables(self):
        query = parse_query("Q(x,y) :- R(x,u), S(y,v).")
        result = fractional_shares(query, {"R": 10, "S": 10}, 16)
        assert result.shares == {}

    def test_invalid_servers(self):
        with pytest.raises(ValueError):
            fractional_shares(TRIANGLE, uniform(TRIANGLE, 10), 0)

    def test_skewed_relations_get_broadcast_pattern(self):
        # paper Sec. 2.1: tiny S1 -> p1=p2=1, p3=p (broadcast S1)
        query = parse_query("Q(x1,x2,x3) :- S1(x1,x2), S2(x2,x3), S3(x3,x1).")
        result = fractional_shares(query, {"S1": 2, "S2": 10**6, "S3": 10**6}, 64)
        shares = {v.name: s for v, s in result.shares.items()}
        assert shares["x3"] == pytest.approx(64.0, rel=1e-2)
        assert shares["x1"] == pytest.approx(1.0, abs=1e-2)
        assert shares["x2"] == pytest.approx(1.0, abs=1e-2)


class TestLoads:
    def test_expected_load_triangle(self):
        shares = {X: 4.0, Y: 4.0, Z: 4.0}
        load = expected_load(TRIANGLE, uniform(TRIANGLE, 10**6), shares)
        assert load == pytest.approx(3 * 10**6 / 16)

    def test_expected_load_with_missing_shares_defaults_to_one(self):
        load = expected_load(TRIANGLE, uniform(TRIANGLE, 100), {X: 2.0})
        # R(x,y): 100/2, S(y,z): 100, T(z,x): 100/2
        assert load == pytest.approx(50 + 100 + 50)

    def test_optimal_workload_matches_closed_form(self):
        # triangle, equal sizes m, p=64: 3m / p^(2/3) = 3m/16
        m = 10**6
        load = optimal_fractional_workload(TRIANGLE, uniform(TRIANGLE, m), 64)
        assert load == pytest.approx(3 * m / 16, rel=1e-3)

    def test_replication_factor_triangle(self):
        shares = {X: 4.0, Y: 4.0, Z: 4.0}
        # each atom misses one dimension -> 4 copies per tuple
        factor = replication_factor(TRIANGLE, uniform(TRIANGLE, 1000), shares)
        assert factor == pytest.approx(4.0)

    def test_replication_factor_empty(self):
        factor = replication_factor(TRIANGLE, uniform(TRIANGLE, 0), {})
        assert factor == 1.0
