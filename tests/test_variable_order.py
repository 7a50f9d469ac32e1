"""Tests for the Sec. 5 variable-order cost model."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.leapfrog import variable_order
from repro.leapfrog.tributary import TributaryJoin
from repro.leapfrog.variable_order import (
    OrderCost,
    best_join_order,
    enumerate_join_orders,
    estimate_order_cost,
    full_variable_order,
)
from repro.planner.decompose import HybridCatalog, IntermediateStats
from repro.query.atoms import Atom, ConjunctiveQuery, Constant, Variable
from repro.query.catalog import Catalog
from repro.query.parser import parse_query
from repro.storage.generators import twitter_graph
from repro.storage.relation import Database
from repro.workloads.registry import get_workload

X, Y, Z, U = Variable("x"), Variable("y"), Variable("z"), Variable("u")


def chain_database(a_fanout=1, b_fanout=50):
    """R(x, y): few x many y; S(y, z): each y to b_fanout z values."""
    db = Database()
    db.add_rows("R", ("a", "b"), [(i, j) for i in range(3) for j in range(10)])
    db.add_rows(
        "S", ("a", "b"), [(j, 100 + j * b_fanout + k) for j in range(10) for k in range(b_fanout)]
    )
    return db


class TestCostModel:
    def test_first_step_is_min_active_domain(self):
        query = parse_query("Q(x,y,z) :- R(x,y), S(y,z).")
        db = chain_database()
        catalog = Catalog(db)
        cost = estimate_order_cost(query, catalog, (Y,))
        # y has 10 distinct values in both R and S
        assert cost.step_sizes[0] == 10

    def test_residual_ratio_estimate(self):
        query = parse_query("Q(x,y,z) :- R(x,y), S(y,z).")
        db = chain_database(b_fanout=50)
        catalog = Catalog(db)
        # after fixing y, S contributes V(S,(y,z))/V(S,(y)) = 500/10 = 50
        # and R contributes V(R,(y,x))/V(R,(y)) = 30/10 = 3 on variable x
        cost_yx = estimate_order_cost(query, catalog, (Y, X))
        assert cost_yx.step_sizes == (10.0, 3.0)

    def test_cost_is_sum_of_prefix_products(self):
        query = parse_query("Q(x,y,z) :- R(x,y), S(y,z).")
        catalog = Catalog(chain_database())
        cost = estimate_order_cost(query, catalog, (Y, X))
        s1, s2 = cost.step_sizes
        assert cost.cost == pytest.approx(s1 + s1 * s2)

    def test_orders_with_lower_cost_do_fewer_seeks(self):
        # a skewed graph where starting from the high-fanout side is bad
        graph = twitter_graph(nodes=400, edges=1500, seed=2)
        db = Database()
        db.add(graph)
        catalog = Catalog(db)
        query = parse_query(
            "Q(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z), T:Twitter(z,x)."
        )
        costs = {}
        seeks = {}
        for order in enumerate_join_orders(query):
            estimate = estimate_order_cost(query, catalog, order)
            join = TributaryJoin(
                query,
                {a.alias: graph for a in query.atoms},
                order=full_variable_order(query, order),
            )
            join.run()
            costs[order] = estimate.cost
            seeks[order] = join.total_seeks()
        best_by_model = min(costs, key=lambda o: costs[o])
        worst_by_model = max(costs, key=lambda o: costs[o])
        # the model must rank the extremes consistently with reality
        assert seeks[best_by_model] <= seeks[worst_by_model]


class TestEnumeration:
    def test_exhaustive_enumeration_counts(self):
        query = parse_query("Q(x,y,z) :- R(x,y), S(y,z), T(z,x).")
        orders = list(enumerate_join_orders(query))
        assert len(orders) == 6
        assert len(set(orders)) == 6

    def test_limit_truncates(self):
        query = parse_query("Q(x,y,z) :- R(x,y), S(y,z), T(z,x).")
        assert len(list(enumerate_join_orders(query, limit=2))) == 2

    def test_sampling_is_deterministic_and_distinct(self):
        query = parse_query(
            "Q(a,b,c,d) :- R(a,b), S(b,c), T(c,d), U(d,a)."
        )
        sample1 = list(enumerate_join_orders(query, sample=5, seed=9))
        sample2 = list(enumerate_join_orders(query, sample=5, seed=9))
        assert sample1 == sample2
        assert len(set(sample1)) == 5


class TestBestOrder:
    def test_best_order_minimizes_model_cost(self):
        query = parse_query("Q(x,y,z) :- R(x,y), S(y,z).")
        catalog = Catalog(chain_database())
        best = best_join_order(query, catalog)
        for order in enumerate_join_orders(query):
            assert best.cost <= estimate_order_cost(query, catalog, order).cost

    def test_query_without_join_variables(self):
        query = parse_query("Q(x) :- R(x,y).")
        catalog = Catalog(chain_database())
        best = best_join_order(query, catalog)
        assert best.order == ()
        assert best.cost == 0.0

    def test_sampling_kicks_in_for_many_variables(self):
        query = parse_query(
            "Q(a,b,c,d,e) :- R1(a,b), R2(b,c), R3(c,d), R4(d,e), R5(e,a)."
        )
        db = Database()
        for atom in query.atoms:
            db.add_rows(atom.relation, ("u", "v"), [(1, 2), (2, 3)])
        best = best_join_order(query, Catalog(db), limit=10)
        assert len(best.order) == 5  # all five join variables ordered


def reference_order_cost(query, catalog, join_order):
    """The Sec. 5 cost written out per order, positions recomputed from the
    whole order at every step: the formula the search's step rule replaced,
    kept as its oracle."""
    join_order = tuple(join_order)
    if catalog.empty_atoms(query):
        return OrderCost(join_order, 0.0, (0.0,) * len(join_order))

    def positions(atom, upto):
        return [
            atom.positions_of(v)[0]
            for v in join_order[:upto]
            if v in atom.variables()
        ]

    step_sizes = []
    for i, variable in enumerate(join_order, start=1):
        candidates = []
        for atom in query.atoms:
            if variable not in atom.variables():
                continue
            prefix_i, prefix_prev = positions(atom, i), positions(atom, i - 1)
            v_i = catalog.atom_prefix_count_positions(atom, prefix_i)
            if not prefix_prev:
                candidates.append(float(v_i))
            elif prefix_i != prefix_prev:
                v_prev = catalog.atom_prefix_count_positions(atom, prefix_prev)
                candidates.append(v_i / max(1, v_prev))
        step_sizes.append(min(candidates) if candidates else 1.0)
    cost, product = 0.0, 1.0
    for size in step_sizes:
        product *= size
        cost += product
    return OrderCost(join_order, cost, tuple(step_sizes))


def first_minimum(query, catalog):
    """What scoring every permutation from scratch, in order, would keep."""
    best = None
    for order in itertools.permutations(query.join_variables()):
        candidate = reference_order_cost(query, catalog, order)
        assert estimate_order_cost(query, catalog, order) == candidate
        if best is None or candidate.cost < best.cost:
            best = candidate
    return best


POOL = [Variable(name) for name in "abcdef"]
RELATIONS = {"R0": 2, "R1": 2, "R2": 3}


@st.composite
def cyclic_query(draw):
    """A cycle over 2-6 variables (so each is a join variable) plus up to two
    extra atoms that may repeat a variable or select on a constant."""
    variables = POOL[: draw(st.integers(2, 6))]
    terms = [
        (variable, variables[(i + 1) % len(variables)])
        for i, variable in enumerate(variables)
    ]
    for _ in range(draw(st.integers(0, 2))):
        choice = st.sampled_from(variables) | st.builds(Constant, st.integers(0, 3))
        extra = draw(st.tuples(st.sampled_from(variables), choice, choice))
        terms.append(extra[: draw(st.integers(2, 3))])
    binary = st.sampled_from(["R0", "R1"])
    atoms = tuple(
        Atom(draw(binary) if len(t) == 2 else "R2", t, alias=f"A{i}")
        for i, t in enumerate(terms)
    )
    return ConjunctiveQuery("F", tuple(variables), atoms)


@st.composite
def small_database(draw):
    """Skewed random rows, or one value grid under every name: there all the
    steps of a level are equal and whole families of orders tie."""
    database = Database()
    side = draw(st.none() | st.integers(1, 3))
    for name, arity in RELATIONS.items():
        columns = ("u", "v", "w")[:arity]
        if side is not None:
            rows = list(itertools.product(range(side), repeat=arity))
        else:
            value = st.integers(0, 3) | st.integers(0, 12)
            rows = draw(
                st.lists(
                    st.tuples(*[value] * arity), min_size=1, max_size=14, unique=True
                )
            )
        database.add_rows(name, columns, rows)
    return database


@st.composite
def overlay(draw):
    """Estimated statistics standing in for one relation, as the residual
    stage of a hybrid plan prices its intermediate."""
    size = st.floats(0.5, 40.0)
    distinct = draw(st.dictionaries(st.sampled_from(POOL), size, max_size=4))
    name = draw(st.sampled_from(sorted(RELATIONS)))
    return {name: IntermediateStats(draw(size), distinct)}


@pytest.fixture
def step_evaluations(monkeypatch):
    """Every (prefix + variable) the step rule is asked to size, in order."""
    evaluations = []
    real = variable_order._step_size

    def counting(query, catalog, prefix, variable):
        evaluations.append(prefix + (variable,))
        return real(query, catalog, prefix, variable)

    monkeypatch.setattr(variable_order, "_step_size", counting)
    return evaluations


class TestSearchIsTheFirstMinimum:
    """Branch and bound must change nothing but the time: order, cost and
    step sizes equal, bit for bit, the first minimum over
    ``itertools.permutations``."""

    @given(cyclic_query(), small_database(), st.none() | overlay())
    @settings(max_examples=60, deadline=None)
    def test_random_queries_and_databases(self, query, database, estimates):
        catalog = Catalog(database)
        if estimates is not None:
            catalog = HybridCatalog(catalog, estimates)
        assert best_join_order(query, catalog) == first_minimum(query, catalog)

    def test_every_order_ties_on_a_uniform_database(self):
        query = parse_query(
            "Q(a,b,c,d) :- A:R0(a,b), B:R0(b,c), C:R0(c,d), D:R0(d,a)."
        )
        database = Database()
        database.add_rows("R0", ("u", "v"), list(itertools.product(range(3), repeat=2)))
        catalog = Catalog(database)
        orders = list(itertools.permutations(query.join_variables()))
        assert len({reference_order_cost(query, catalog, o).cost for o in orders}) == 1
        assert best_join_order(query, catalog) == first_minimum(query, catalog)
        assert best_join_order(query, catalog).order == orders[0]

    def test_empty_atom_reports_zero_cost_in_query_order(self):
        query = parse_query("Q(a,b,c) :- R0(a,b), R1(b,c), R2(c,a,9).")
        database = Database()
        database.add_rows("R0", ("u", "v"), [(1, 2)])
        database.add_rows("R1", ("u", "v"), [(2, 3)])
        database.add_rows("R2", ("u", "v", "w"), [(3, 1, 0)])
        catalog = Catalog(database)
        assert catalog.empty_atoms(query) == ("R2",)
        best = best_join_order(query, catalog)
        assert best == first_minimum(query, catalog)
        assert best == OrderCost(query.join_variables(), 0.0, (0.0, 0.0, 0.0))

    def test_q4_keeps_its_sampled_order_and_shares_prefixes(self, step_evaluations):
        """8! > 5 040: Q4 still scores the same seeded sample (its exact
        optimum is ROADMAP item 6's to adopt), one step-rule evaluation per
        distinct prefix of the sample instead of eight per order."""
        workload = get_workload("Q4")
        catalog = Catalog(workload.dataset("unit"))
        sample = list(enumerate_join_orders(workload.query, sample=5040, seed=0))
        prefixes = {order[:i] for order in sample for i in range(1, 9)}
        best = best_join_order(workload.query, catalog)
        assert len(step_evaluations) == len(prefixes) < 5040 * 8
        assert [v.name for v in best.order] == [
            "a2", "p3", "f2", "p2", "f1", "p1", "a1", "p4"
        ]
        assert best.cost == 282991.61625823495
        assert best == min(
            (reference_order_cost(workload.query, catalog, o) for o in sample),
            key=lambda scored: scored.cost,
        )

    @pytest.mark.parametrize("name", ["Q3", "Q8"])
    def test_exact_search_skips_most_prefixes(self, name, step_evaluations):
        """Six join variables: 1 956 prefixes, and the bound leaves under a
        quarter of them to size (each once)."""
        workload = get_workload(name)
        catalog = Catalog(workload.dataset("unit"))
        count = len(workload.query.join_variables())
        every_prefix = sum(math.perm(count, k) for k in range(1, count + 1))
        best = best_join_order(workload.query, catalog)
        sized = len(step_evaluations)
        assert len(set(step_evaluations)) == sized < every_prefix // 4
        assert best == first_minimum(workload.query, catalog)


class TestFullOrder:
    def test_appends_non_join_variables(self):
        query = parse_query("Q(x) :- R(x,y), S(y,u).")
        order = full_variable_order(query, (Y,))
        assert order[0] == Y
        assert set(order) == {X, Y, U}

    def test_idempotent_when_complete(self):
        query = parse_query("Q(x,y) :- R(x,y), S(y,x).")
        assert full_variable_order(query, (X, Y)) == (X, Y)
